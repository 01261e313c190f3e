"""Verdicts, knowledge sets, and emitted proofs.

Every frozen verdict below was recomputed by hand from the surplus rule
(reject iff some known coalition containing the player can redistribute
its worth so the player strictly gains).  The oracle at the top repeats
that rule with raw dicts and ints, independent of the package types, and
the property tests hold decide() against it.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicore import (
    Coalition,
    InvalidInputError,
    KnowledgeProfile,
    PayoffVector,
    TUGame,
    decide,
    emit_proof,
    gamma,
    knowledge_set,
)
from epicore.acceptability import (
    MAX_GAMMA,
    _purge_spaces,
    c_formula,
    normalize_family,
    parse_family,
)
from epicore.games import all_coalitions
from epicore.logic import (
    Ach,
    And,
    Geq,
    Not,
    Or,
    ProofTree,
    Rule,
    check_proof,
)


# ---------------------------------------------------------------------------
# independent oracle: the surplus rule on raw ints


def oracle_rejects(n, worth, family, i, x_units):
    """worth: frozenset -> int.  x_units: payoffs in 1/n units.
    Returns the first blocking coalition (as a frozenset) or None."""
    for s in family:
        if i not in s:
            continue
        if sum(x_units[p - 1] for p in s) < n * worth[frozenset(s)]:
            return s
    return None


def worth_map(game):
    return {frozenset(s.members): game.v(s) for s in game.coalitions()}


# ---------------------------------------------------------------------------
# fixtures and strategies


def g2():
    return TUGame.from_values(2, {"1": 10, "2": 10, "1,2": 30})


def tiny():
    # bound defaults to 2*3+1 = 7
    return TUGame.from_values(2, {"1": 1, "2": 1, "1,2": 3})


def c(text):
    return Coalition.parse(text)


GAMES = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 4), min_size=2 ** n - 1, max_size=2 ** n - 1)))


def build(n, worths):
    cs = [c for c in TUGame.from_values(
        n, {str(s): 0 for s in _all_keys(n)}).coalitions()]
    return TUGame.from_values(n, {str(s): w for s, w in zip(cs, worths)})


def _all_keys(n):
    out = []
    for r in range(1, n + 1):
        out.extend(",".join(map(str, comb))
                   for comb in itertools.combinations(range(1, n + 1), r))
    return out


# ---------------------------------------------------------------------------
# family parsing and profiles


def test_parse_family_semicolon_syntax():
    assert parse_family("1;1,2") == (c("1"), c("1,2"))
    assert parse_family("") == ()
    assert parse_family("  ") == ()


def test_parse_family_rejects_garbage():
    with pytest.raises(InvalidInputError):
        parse_family("1;;2")
    with pytest.raises(InvalidInputError):
        parse_family("1;0")


def test_normalize_family_sorts_and_dedups():
    fam = normalize_family([c("1,2"), c("1"), c("1,2")], 2)
    assert fam == (c("1"), c("1,2"))


def test_normalize_family_rejects_out_of_range_members():
    with pytest.raises(InvalidInputError):
        normalize_family([c("3")], 2)


def test_profile_covering_and_effective():
    full = KnowledgeProfile.of(2, {1: [c("1"), c("1,2")], 2: [c("2")]})
    assert full.covering(2)
    assert full.effective(2) == frozenset({c("1"), c("2"), c("1,2")})
    # {2} known only by player 1 never becomes effective
    partial = KnowledgeProfile.of(2, {1: [c("1"), c("2"), c("1,2")]})
    assert partial.effective(2) == frozenset({c("1"), c("1,2")})
    assert not partial.covering(2)


def test_profile_of_requires_one_family_per_player():
    with pytest.raises(InvalidInputError):
        KnowledgeProfile.of(3, [[], []])


# ---------------------------------------------------------------------------
# frozen verdicts


def test_empty_family_accepts_everything_feasible():
    v = decide(g2(), 1, [], PayoffVector.of(9, 21))
    assert v.acceptable and v.case == "2.1"


def test_singleton_knowledge_rejects_below_standalone_worth():
    v = decide(g2(), 1, [c("1")], PayoffVector.of(9, 21))
    assert not v.acceptable and v.case == "2.2"
    assert v.coalition == c("1")
    assert v.vector == PayoffVector.of(10, 0)


def test_singleton_knowledge_accepts_at_standalone_worth():
    v = decide(g2(), 1, [c("1")], PayoffVector.of(10, 10))
    assert v.acceptable and v.case == "2.1"


def test_grand_coalition_knowledge_rejects_wasteful_split():
    v = decide(g2(), 1, [c("1,2")], PayoffVector.of(10, 10))
    assert not v.acceptable and v.case == "2.2"
    assert v.coalition == c("1,2")
    # the whole surplus lands on the asking player
    assert v.vector == PayoffVector.of(20, 10)


def test_second_player_rejects_zero_share():
    v = decide(g2(), 2, [c("2")], PayoffVector.of(30, 0))
    assert not v.acceptable and v.case == "2.2"
    assert v.coalition == c("2")
    assert v.vector == PayoffVector.of(0, 10)


def test_grid_ceiling_is_case_one():
    g = tiny()
    x = PayoffVector.of(g.bound, 0)  # 7 = bound, 14 units = bound * n
    v = decide(g, 1, [], x)
    assert v.acceptable and v.case == "1"


def test_decide_validates_inputs():
    with pytest.raises(InvalidInputError):
        decide(g2(), 3, [], PayoffVector.of(15, 15))
    with pytest.raises(InvalidInputError):
        decide(g2(), 1, [], PayoffVector.of(10, 10, 10))
    with pytest.raises(InvalidInputError):
        decide(g2(), 1, [c("3")], PayoffVector.of(15, 15))


def test_family_order_is_irrelevant():
    fam = [c("1,2"), c("1")]
    a = decide(g2(), 1, fam, PayoffVector.of(9, 21))
    b = decide(g2(), 1, list(reversed(fam)), PayoffVector.of(9, 21))
    assert (a.acceptable, a.coalition, a.vector) == (b.acceptable, b.coalition, b.vector)


def test_adding_surplus_coalition_flips_accept_to_reject():
    x = PayoffVector.of(10, 10)
    assert decide(g2(), 1, [c("1")], x).acceptable
    assert not decide(g2(), 1, [c("1"), c("1,2")], x).acceptable


# ---------------------------------------------------------------------------
# verdicts against the independent oracle


@settings(max_examples=80, deadline=None)
@given(GAMES, st.data())
def test_decide_matches_surplus_oracle(drawn, data):
    n, worths = drawn
    game = build(n, worths)
    i = data.draw(st.integers(1, n))
    all_cs = list(game.coalitions())
    fam = data.draw(st.lists(st.sampled_from(all_cs), max_size=4))
    units = data.draw(st.lists(st.integers(0, n * game.v(game.grand)),
                               min_size=n, max_size=n))
    x = PayoffVector.from_units(tuple(units), n)
    verdict = decide(game, i, fam, x)
    blocked = oracle_rejects(n, worth_map(game), fam, i, tuple(units))
    assert verdict.acceptable == (blocked is None)
    if not verdict.acceptable:
        s = verdict.coalition
        xu = x.units()
        w = verdict.vector.units()
        # members keep their payoff, the asker strictly gains, outsiders get zero
        assert all(w[p - 1] == xu[p - 1] for p in s if p != i)
        assert w[i - 1] > xu[i - 1]
        assert all(w[p - 1] == 0 for p in range(1, n + 1) if p not in s)
        assert sum(w[p - 1] for p in s) == n * game.v(s)


# ---------------------------------------------------------------------------
# knowledge sets and the acceptability formula


def test_knowledge_set_spans_the_coalition_grid():
    ks = knowledge_set(g2(), c("1"))
    # support {1}, 1/2-units 0..2*10
    assert len(ks) == 21
    assert all(isinstance(f, Ach) and f.coalition == c("1") for f in ks)
    assert all(f.vector[1] == 0 for f in ks)
    assert len(knowledge_set(tiny(), c("1"))) == 3


def test_gamma_enumerates_every_grid_atom_once():
    g = tiny()
    gam = gamma(g, [c("1")])
    assert len(gam) == (2 ** 2 - 1) * (g.bound * 2 + 1) ** 2
    positives = {f for f in gam if isinstance(f, Ach)}
    assert positives == knowledge_set(g, c("1"))
    # everything else shows up negated
    assert all(isinstance(f, Not) and isinstance(f.child, Ach)
               for f in gam - positives)


def test_gamma_with_two_coalitions_keeps_both_positive_sets():
    g = tiny()
    gam = gamma(g, [c("1"), c("1,2")])
    positives = {f for f in gam if isinstance(f, Ach)}
    assert positives == knowledge_set(g, c("1")) | knowledge_set(g, c("1,2"))


def test_acceptability_formula_shape():
    g = tiny()
    f = c_formula(g, 1, PayoffVector.of(0, 3))
    assert isinstance(f, Not) and isinstance(f.child, Or)
    # one disjunct per (coalition containing 1, grid vector)
    assert len(f.child.members) == 2 * (g.bound * 2 + 1) ** 2
    d = f.child.members[0]
    assert isinstance(d, And) and len(d.members) == 3
    kinds = [type(m) for m in d.members]
    assert kinds == [Ach, Geq, And]
    # the third member is the expanded strict comparison
    strict = d.members[2]
    assert [type(m) for m in strict.members] == [Geq, Not]


# ---------------------------------------------------------------------------
# emitted proofs


def test_acceptable_proof_concludes_the_formula():
    g = tiny()
    proof = emit_proof(g, 1, [c("1")], PayoffVector.of(1, 2))
    assert proof.rule == Rule.NotRight
    succ = list(proof.sequent.succ)
    assert len(succ) == 1
    assert isinstance(succ[0], Not) and isinstance(succ[0].child, Or)
    assert check_proof(proof).ok


def test_unacceptable_proof_concludes_the_negation():
    g = tiny()
    proof = emit_proof(g, 1, [c("1")], PayoffVector.of(0, 3))
    succ = list(proof.sequent.succ)
    assert isinstance(succ[0], Not) and isinstance(succ[0].child, Not)
    assert proof.size() == 12
    assert check_proof(proof).ok


def test_case_one_proof_checks():
    g = tiny()
    proof = emit_proof(g, 1, [], PayoffVector.of(g.bound, 0))
    assert check_proof(proof).ok


def test_checker_rejects_wrong_rule_label():
    g = tiny()
    proof = emit_proof(g, 1, [c("1")], PayoffVector.of(0, 3))
    forged = ProofTree(proof.sequent, Rule.AndRight, proof.children, proof.meta)
    res = check_proof(forged)
    assert not res.ok


def test_checker_rejects_detached_subtree():
    # a correct subtree does not prove a different root sequent
    g = tiny()
    good = emit_proof(g, 1, [c("1")], PayoffVector.of(0, 3))
    other = emit_proof(g, 1, [c("1")], PayoffVector.of(1, 2))
    forged = ProofTree(other.sequent, good.rule, good.children, good.meta)
    assert not check_proof(forged).ok


def test_repeated_emission_shares_no_stale_state():
    g = tiny()
    for x in (PayoffVector.of(0, 3), PayoffVector.of(1, 2), PayoffVector.of(0, 0)):
        p = emit_proof(g, 1, [c("1")], x)
        assert check_proof(p).ok


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=3), st.data())
def test_emitted_proofs_always_check(worths, data):
    game = build(2, worths)
    i = data.draw(st.integers(1, 2))
    fam = data.draw(st.lists(st.sampled_from(list(game.coalitions())), max_size=3))
    units = data.draw(st.lists(st.integers(0, 2 * game.v(game.grand)),
                               min_size=2, max_size=2))
    x = PayoffVector.from_units(tuple(units), 2)
    verdict = decide(game, i, fam, x)
    proof = emit_proof(game, i, fam, x)
    succ = list(proof.sequent.succ)
    negated = isinstance(succ[0], Not) and isinstance(succ[0].child, Not)
    assert negated == (not verdict.acceptable)
    assert check_proof(proof).ok


@pytest.mark.parametrize("n, bound", [(3, 8), (4, 2)])
def test_gamma_guard_admits_the_largest_grids_the_tests_need(n, bound):
    # 3 players at bound 8 is the guard's limit exactly: 25^3 * 7 = 109,375
    assert (bound * n + 1) ** n * (2 ** n - 1) <= MAX_GAMMA
    try:
        knowledge = gamma(
            TUGame.from_values(n, {str(s): 0 for s in all_coalitions(n)}, bound=bound), [])
        assert len(knowledge) == (bound * n + 1) ** n * (2 ** n - 1)
    finally:
        _purge_spaces()
