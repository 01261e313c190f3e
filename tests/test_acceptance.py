"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Each test is self-contained and prints through its pytest -v line as the
criterion's pass/fail record.  Wall-clock budgets are asserted where the
criterion carries one.  Independent evidence comes from three directions:
the Fourier-Motzkin feasibility oracle in _oracles.py (criterion 6), the
surplus-rule characterization recomputed with raw ints (criterion 4), and
frozen constants verified by hand (criteria 1, 2, 7, 8, 9).

Criterion 4 note: the per-player verdict depends only on the coalitions
the player both knows and belongs to, so the unanimous acceptance set of a
profile is a function of its effective coalition set alone.  Stages A and
B below establish that reduction on the real decide pipeline (all two
player games x all member profiles exhaustively; every three player
member profile on a fixed game); stage C then closes part 1 over every
three player game through the effective-set characterization, and stage D
runs part 2 on every non-covering member profile with real verdicts.
"""

import itertools
import random
import time

from _oracles import rational_core_nonempty
from epicore import (
    Coalition,
    PayoffVector,
    TUGame,
    bondareva_shapley_nonempty,
    core_membership,
    decide,
    effective_coalitions,
    enumerate_integer_core,
    grid_core,
    irrelevance_invariance,
    knowledge_growth,
)
from epicore.analysis import (
    counterexample_game,
    integer_vectors_up_to,
    member_profiles,
    unanimous_acceptance_set,
)
from epicore.cli import main
from epicore.jsonio import dump_json
from epicore.replica import Allocation, EdgeworthEconomy, ReplicaEconomy
from epicore._sweep import verify_all_queries
from fractions import Fraction as F


N3_KEYS = ("1", "2", "3", "1,2", "1,3", "2,3", "1,2,3")


def n3_game(values):
    return TUGame.from_values(3, dict(zip(N3_KEYS, values)))


def surplus_unanimous(game, effective):
    """The effective-set characterization of unanimous acceptance, computed
    with raw integer arithmetic."""
    n = game.n
    out = set()
    for x in integer_vectors_up_to(n, game.v(game.grand)):
        xu = x.units()
        if all(sum(xu[p - 1] for p in s) >= n * game.v(s) for s in effective):
            out.add(x)
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_example_core_via_cli(tmp_path, capsys):
    start = time.monotonic()
    path = str(tmp_path / "g2.json")
    dump_json({"players": 2, "v": {"1": 10, "2": 10, "1,2": 30}}, path)
    assert main(["core", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = {tuple(int(p) for p in ln.split(",")) for ln in lines}
    assert got == {(x, 30 - x) for x in range(10, 21)}
    assert len(lines) == 11
    assert time.monotonic() - start < 1.0


def test_criterion_2_example_verdict_table():
    g2 = TUGame.from_values(2, {"1": 10, "2": 10, "1,2": 30})
    c = Coalition.parse
    rows = (
        (1, [], (9, 21), True),
        (1, [c("1")], (9, 21), False),
        (1, [c("1")], (10, 10), True),
        (1, [c("1,2")], (10, 10), False),
        (2, [c("2")], (30, 0), False),
    )
    for i, family, x, acceptable in rows:
        verdict = decide(g2, i, family, PayoffVector.of(*x))
        assert verdict.acceptable == acceptable, (i, family, x)


def test_criterion_3_exclusive_checked_verdicts_exhaustively():
    start = time.monotonic()
    stats = verify_all_queries(n=2, max_worth=6)
    elapsed = time.monotonic() - start
    assert stats.ok
    assert not stats.failures
    assert stats.games == 343
    assert stats.queries == 197568
    assert stats.classes == stats.acceptable + stats.unacceptable == 63168
    assert elapsed < 300.0


def test_criterion_4_covering_characterizes_core_both_directions():
    start = time.monotonic()

    # stage A: two players, every game with worths <= 4, every member profile
    profiles2 = member_profiles(2)
    keys2 = ("1", "2", "1,2")
    for values in itertools.product(range(5), repeat=3):
        game = TUGame.from_values(2, dict(zip(keys2, values)))
        core = set(enumerate_integer_core(game))
        for prof in profiles2:
            accepted = set(unanimous_acceptance_set(game, prof))
            assert accepted == surplus_unanimous(game, prof.effective(2))
            if prof.covering(2):
                assert accepted == core

    # part 2, two players: each non-covering profile accepts a constructed
    # non-core proposal unanimously
    for prof in profiles2:
        if prof.covering(2):
            continue
        missing = sorted(set(TUGame.from_values(
            2, dict(zip(keys2, (0, 0, 0)))).coalitions()) - prof.effective(2))[0]
        game, x = counterexample_game(2, missing)
        assert not core_membership(game, x)
        for i in (1, 2):
            assert decide(game, i, prof.family(i), x).acceptable

    # stage B: three players, every member profile on a fixed game with all
    # worth levels in play, against the effective-set characterization
    probe = n3_game((1, 0, 2, 3, 4, 2, 4))
    profiles3 = member_profiles(3)
    assert len(profiles3) == 4096
    covering3 = [p for p in profiles3 if p.covering(3)]
    assert len(covering3) == 189
    probe_core = set(enumerate_integer_core(probe))
    for prof in profiles3:
        accepted = set(unanimous_acceptance_set(probe, prof))
        assert accepted == surplus_unanimous(probe, prof.effective(3))
        if prof.covering(3):
            assert accepted == probe_core

    # stage C: part 1 over every three player game via the established
    # reduction: full effective set <=> integer core
    for values in itertools.product(range(5), repeat=7):
        game = n3_game(values)
        assert surplus_unanimous(game, game.coalitions()) \
            == set(enumerate_integer_core(game))

    # stage D: part 2 with real verdicts for every non-covering profile
    all3 = n3_game((0,) * 7).coalitions()
    for prof in profiles3:
        if prof.covering(3):
            continue
        missing = sorted(set(all3) - prof.effective(3))[0]
        game, x = counterexample_game(3, missing)
        assert not core_membership(game, x)
        for i in (1, 2, 3):
            assert decide(game, i, prof.family(i), x).acceptable

    assert time.monotonic() - start < 600.0


def test_criterion_5_irrelevant_coalitions_never_flip_verdicts():
    rng = random.Random(20260819)
    cs3 = n3_game((0,) * 7).coalitions()
    for _ in range(200):
        game = n3_game([rng.randint(0, 4) for _ in range(7)])
        i = rng.randint(1, 3)
        extra = rng.choice([s for s in cs3 if i not in s])
        family = [s for s in cs3 if s != extra and rng.random() < 0.5]
        assert irrelevance_invariance(game, i, family, extra)


def test_criterion_6_balancedness_agrees_with_exact_feasibility():
    for values in itertools.product(range(5), repeat=7):
        game = n3_game(values)
        worth = {frozenset(s.members): v for s, v in game.items()}
        assert bondareva_shapley_nonempty(game) \
            == rational_core_nonempty(3, worth), values


def test_criterion_7_effective_coalition_counts():
    for k in range(2, 9):
        fam = effective_coalitions(k)
        count = k * k + 4 * k - 1
        assert len(fam) == len(set(fam)) == count
        _, average = knowledge_growth(k)
        assert average == F(count, 2 * k)
    # the explicit two-replica family: four singletons, four mixed pairs,
    # two near-balanced triples, and the whole participant set
    got = set(effective_coalitions(2))
    assert got == (
        {frozenset({(i, t)}) for i in (1, 2) for t in (1, 2)}
        | {frozenset({(1, a), (2, b)}) for a in (1, 2) for b in (1, 2)}
        | {frozenset({(1, 1), (1, 2), (2, 1)}),
           frozenset({(1, 1), (2, 1), (2, 2)})}
        | {frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})})


def test_criterion_8_single_replica_grid_core():
    start = time.monotonic()
    core = grid_core(ReplicaEconomy(EdgeworthEconomy(8), 1))

    def diagonal(t):
        return Allocation(((t, t), (1 - t, 1 - t)))

    for t in (F(3, 8), F(1, 2), F(5, 8)):
        assert diagonal(t) in core, t
    for t in (F(0), F(1, 8), F(7, 8), F(1)):
        assert diagonal(t) not in core, t
    assert diagonal(F(1, 2)) in core
    assert time.monotonic() - start < 60.0


def test_criterion_9_replication_eliminates_via_triples():
    start = time.monotonic()
    e1 = ReplicaEconomy(EdgeworthEconomy(8), 1)
    e2 = ReplicaEconomy(EdgeworthEconomy(8), 2)
    core1 = grid_core(e1)
    core2 = grid_core(e2)

    projected = {Allocation((a.bundles[0], a.bundles[2])) for a in core2}
    assert projected <= core1
    assert projected < core1

    # an eliminated point: both types equal-treated, type 1 on its
    # endowment indifference curve; survives at k = 1, blocked at k = 2
    f_alloc = Allocation(((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)),
                          (F(3, 4), F(3, 4)), (F(3, 4), F(3, 4))))
    assert Allocation((f_alloc.bundles[0], f_alloc.bundles[2])) in core1
    assert f_alloc not in core2

    # withholding the near-balanced triples restores it
    no_triples = [s for s in effective_coalitions(2) if len(s) != 3]
    partial = grid_core(e2, coalitions=no_triples)
    assert f_alloc in partial
    assert core2 < partial
    assert time.monotonic() - start < 300.0
