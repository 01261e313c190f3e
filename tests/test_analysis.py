"""Profile surveys, balanced families, and core nonemptiness.

Frozen counts: 16 member profiles for two players of which exactly 3 are
covering; minimal balanced family counts 1, 2, 6, 42 for n = 1..4 with the
n = 4 size histogram {1: 1, 2: 7, 3: 12, 4: 22}.  Core nonemptiness is
cross-checked against a Fourier-Motzkin oracle that decides the defining
linear system directly.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rational_core_nonempty
from epicore import analysis
from epicore import (
    Coalition,
    InvalidInputError,
    KnowledgeProfile,
    PayoffVector,
    TUGame,
    UnsupportedSizeError,
    bondareva_shapley_nonempty,
    characterizes_core,
    core_membership,
    decide,
    enumerate_integer_core,
    irrelevance_invariance,
    minimal_balanced_families,
    prop51_check,
)
from epicore.analysis import (
    BalancedFamily,
    counterexample_game,
    game_id,
    is_balanced,
    member_profiles,
    profile_survey,
    unanimous_acceptance_set,
)


def g2():
    return TUGame.from_values(2, {"1": 10, "2": 10, "1,2": 30})


def c(text):
    return Coalition.parse(text)


def random_game(data, n, max_worth):
    cs = TUGame.from_values(n, {s: 0 for s in _keys(n)}).coalitions()
    worths = data.draw(st.lists(st.integers(0, max_worth),
                                min_size=len(cs), max_size=len(cs)))
    return TUGame.from_values(n, {str(s): w for s, w in zip(cs, worths)})


def _keys(n):
    out = []
    for r in range(1, n + 1):
        out.extend(",".join(map(str, comb))
                   for comb in itertools.combinations(range(1, n + 1), r))
    return out


# ---------------------------------------------------------------------------
# unanimous acceptance and core characterization


def test_covering_profile_recovers_the_core():
    cov = KnowledgeProfile.of(2, {1: ["1", "1,2"], 2: ["2"]})
    accepted = unanimous_acceptance_set(g2(), cov)
    assert accepted == frozenset(enumerate_integer_core(g2()))
    assert len(accepted) == 11


def test_unanimous_set_depends_only_on_effective_coalitions():
    # {2} moved to player 1's family is never effective
    a = KnowledgeProfile.of(2, {1: ["1", "1,2"], 2: ["2"]})
    b = KnowledgeProfile.of(2, {1: ["1", "1,2", "2"], 2: ["2"]})
    assert a.effective(2) == b.effective(2)
    assert unanimous_acceptance_set(g2(), a) == unanimous_acceptance_set(g2(), b)


def test_characterizes_core_report_fields():
    cov = KnowledgeProfile.of(2, {1: ["1", "1,2"], 2: ["2"]})
    rep = characterizes_core(g2(), cov)
    assert rep.characterizes_core
    assert rep.violations == ()
    assert rep.warnings == ()
    assert rep.game_id == game_id(g2())


def test_missing_singleton_breaks_characterization():
    prof = KnowledgeProfile.of(2, {1: ["1,2"], 2: ["2"]})
    rep = characterizes_core(g2(), prof)
    assert not rep.characterizes_core
    assert len(rep.violations) == 10
    for x in rep.violations:
        assert not core_membership(g2(), x)
        assert decide(g2(), 1, prof.family(1), x).acceptable
        assert decide(g2(), 2, prof.family(2), x).acceptable


def test_non_member_coalition_warns():
    prof = KnowledgeProfile.of(2, {1: ["2", "1,2"], 2: ["2"]})
    rep = characterizes_core(g2(), prof)
    assert any("not a member" in w for w in rep.warnings)


def test_counterexample_game_is_unanimously_accepted_outside_core():
    for n, missing in ((2, "1"), (3, "1,3"), (3, "2")):
        game, x = counterexample_game(n, c(missing))
        assert not core_membership(game, x)
        # a profile that tracks everything except the missing coalition
        fams = {i: [s for s in game.coalitions()
                    if i in s and s != c(missing)] for i in range(1, n + 1)}
        prof = KnowledgeProfile.of(n, fams)
        for i in range(1, n + 1):
            assert decide(game, i, prof.family(i), x).acceptable


def test_member_profiles_for_two_players():
    profs = member_profiles(2)
    assert len(profs) == 16
    for p in profs:
        for i in (1, 2):
            assert all(i in s for s in p.family(i))
    assert sum(p.covering(2) for p in profs) == 3


def test_profile_survey_matches_characterizes_core():
    profs = member_profiles(2)
    reports = profile_survey(g2(), profs)
    assert len(reports) == 16
    assert sum(r.characterizes_core for r in reports) == 3
    for p, r in zip(profs, reports):
        assert r.profile == p
        assert r == characterizes_core(g2(), p)


def test_profile_survey_enumerates_the_core_once(monkeypatch):
    calls = []

    def counted(game):
        calls.append(game)
        return enumerate_integer_core(game)

    monkeypatch.setattr(analysis, "enumerate_integer_core", counted)
    assert len(profile_survey(g2(), member_profiles(2))) == 16
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_covering_always_characterizes_core(data):
    game = random_game(data, 2, 4)
    prof = KnowledgeProfile.of(2, {1: ["1", "1,2"], 2: ["2", "1,2"]})
    assert characterizes_core(game, prof).characterizes_core


# ---------------------------------------------------------------------------
# irrelevance of non-member coalitions


def test_irrelevance_invariance_holds_on_examples():
    assert irrelevance_invariance(g2(), 1, [c("1")], c("2"))
    assert irrelevance_invariance(g2(), 2, [c("2"), c("1,2")], c("1"))


def test_irrelevance_rejects_member_coalitions():
    with pytest.raises(InvalidInputError):
        irrelevance_invariance(g2(), 1, [c("1")], c("1,2"))
    with pytest.raises(InvalidInputError):
        irrelevance_invariance(g2(), 1, [c("1"), c("2")], c("2"))


# ---------------------------------------------------------------------------
# balanced families


def test_minimal_balanced_family_counts():
    assert len(minimal_balanced_families(1)) == 1
    assert len(minimal_balanced_families(2)) == 2
    assert len(minimal_balanced_families(3)) == 6
    fams4 = minimal_balanced_families(4)
    assert len(fams4) == 42
    assert Counter(len(b.family) for b in fams4) == {1: 1, 2: 7, 3: 12, 4: 22}


def test_minimal_balanced_families_n3_exact():
    got = {tuple(str(s) for s in b.family) for b in minimal_balanced_families(3)}
    assert got == {
        ("1", "2", "3"),
        ("1", "2,3"),
        ("2", "1,3"),
        ("3", "1,2"),
        ("1,2", "1,3", "2,3"),
        ("1,2,3",),
    }


def test_balanced_weights_cover_each_player_exactly_once():
    for n in (1, 2, 3, 4):
        for b in minimal_balanced_families(n):
            assert all(w > 0 for w in b.weights)
            for p in range(1, n + 1):
                total = sum(w for s, w in zip(b.family, b.weights) if p in s)
                assert total == 1


def test_minimal_balanced_families_size_guard():
    with pytest.raises(UnsupportedSizeError):
        minimal_balanced_families(5)


def test_balanced_family_rejects_bad_weights():
    with pytest.raises(InvalidInputError):
        BalancedFamily(2, (c("1"), c("1,2")), (Fraction(1), Fraction(1)))


def test_is_balanced_examples():
    pairs = is_balanced(3, ["1,2", "1,3", "2,3"])
    assert pairs == {c("1,2"): Fraction(1, 2), c("1,3"): Fraction(1, 2),
                     c("2,3"): Fraction(1, 2)}
    partition = is_balanced(3, ["1", "2,3"])
    assert partition == {c("1"): Fraction(1), c("2,3"): Fraction(1)}
    # cannot cover player 2 at all
    assert is_balanced(2, ["1"]) is None
    # redundant members get weight zero
    padded = is_balanced(2, ["1", "1,2"])
    assert padded == {c("1"): Fraction(0), c("1,2"): Fraction(1)}


# ---------------------------------------------------------------------------
# core nonemptiness


def test_balanced_cover_condition_on_known_games():
    assert bondareva_shapley_nonempty(g2())
    assert not bondareva_shapley_nonempty(
        TUGame.from_values(2, {"1": 1, "2": 1, "1,2": 1}))
    # three-player pairs game: every pair worth 2 against a grand worth of 2
    pairs = TUGame.from_values(3, {"1": 0, "2": 0, "3": 0,
                                   "1,2": 2, "1,3": 2, "2,3": 2, "1,2,3": 2})
    assert not bondareva_shapley_nonempty(pairs)
    # raising the grand worth to 3 restores feasibility: (1,1,1)
    fixed = TUGame.from_values(3, {"1": 0, "2": 0, "3": 0,
                                   "1,2": 2, "1,3": 2, "2,3": 2, "1,2,3": 3})
    assert bondareva_shapley_nonempty(fixed)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_balanced_cover_agrees_with_feasibility_oracle(data):
    n = data.draw(st.integers(2, 3))
    game = random_game(data, n, 4)
    worth = {frozenset(s.members): game.v(s) for s in game.coalitions()}
    assert bondareva_shapley_nonempty(game) == rational_core_nonempty(n, worth)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_balanced_knowledge_hypothesis(data):
    n = data.draw(st.integers(2, 3))
    game = random_game(data, n, 3)
    assert prop51_check(game)


def test_game_id_is_stable():
    assert game_id(g2()) == "n=2;1:10;2:10;1,2:30"
