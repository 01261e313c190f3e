"""Replica exchange economies: utilities, effective coalitions, grid cores.

The comparison oracle in _oracles.py decides CES utility order through
isqrt intervals plus a rationality argument, and brute_grid_core there
enumerates every grid reallocation directly.  Both are independent of the
rank-table machinery inside the package, so the cross-checks below pin the
whole pipeline.  Frozen sets (the 13-point and single-point cores, the
blocking witnesses) were verified against that oracle and by hand.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import brute_blocks, brute_grid_core, ces_cmp_units
from epicore import (
    InvalidInputError,
    UnsupportedSizeError,
    VerificationFailure,
    econ_dominates,
    effective_coalitions,
    grid_core,
    knowledge_growth,
    partial_knowledge_witness,
    utility_compare,
)
from epicore.logic import Ach, CheckResult, check_proof
from epicore.replica import (
    Allocation,
    EdgeworthEconomy,
    ReplicaEconomy,
)


def econ(den, k):
    return ReplicaEconomy(EdgeworthEconomy(den), k)


def alloc(*bundles):
    return Allocation(tuple((F(a), F(b)) for a, b in bundles))


def units_of(core, den):
    return {tuple(tuple(int(c * den) for c in b) for b in a.bundles)
            for a in core}


def all_subsets(k):
    n = 2 * k
    return [s for r in range(1, n + 1)
            for s in itertools.combinations(range(1, n + 1), r)]


EQUAL_SPLIT_K2 = ((F(1, 2), F(1, 2)),) * 4
F_ALLOCATION = ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)),
                (F(3, 4), F(3, 4)), (F(3, 4), F(3, 4)))


# ---------------------------------------------------------------------------
# utility comparison


def test_utility_compare_pinned_values():
    # equal split beats holding the whole endowment of one good
    assert utility_compare((F(1, 2), F(1, 2)), (F(1), F(0))) > 0
    # the substitution curve through (1,0) passes through (1/4,1/4)
    assert utility_compare((F(1, 4), F(1, 4)), (F(1), F(0))) == 0
    assert utility_compare((F(3, 8), F(3, 8)), (F(1), F(0))) > 0
    assert utility_compare((F(1, 8), F(1, 8)), (F(0), F(1))) < 0
    assert utility_compare((F(2), F(3)), (F(2), F(3))) == 0


def test_utility_compare_is_symmetric_in_goods():
    assert utility_compare((F(1, 8), F(5, 8)), (F(5, 8), F(1, 8))) == 0


def test_utility_compare_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        utility_compare((F(-1), F(0)), (F(0), F(1)))
    with pytest.raises(InvalidInputError):
        utility_compare((F(1),), (F(0), F(1)))


GRID_BUNDLES = st.tuples(st.integers(0, 16), st.integers(0, 16))


@settings(max_examples=120, deadline=None)
@given(GRID_BUNDLES, GRID_BUNDLES)
def test_utility_compare_agrees_with_interval_oracle(a, b):
    fa = (F(a[0], 8), F(a[1], 8))
    fb = (F(b[0], 8), F(b[1], 8))
    assert utility_compare(fa, fb) == ces_cmp_units(a, b)


@settings(max_examples=80, deadline=None)
@given(GRID_BUNDLES, GRID_BUNDLES, GRID_BUNDLES)
def test_utility_order_is_total_and_transitive(a, b, c):
    frac = lambda u: (F(u[0], 8), F(u[1], 8))
    ab = utility_compare(frac(a), frac(b))
    ba = utility_compare(frac(b), frac(a))
    assert ab == -ba
    bc = utility_compare(frac(b), frac(c))
    ac = utility_compare(frac(a), frac(c))
    if ab >= 0 and bc >= 0:
        assert ac >= 0
        if ab > 0 or bc > 0:
            assert ac > 0


@settings(max_examples=60, deadline=None)
@given(GRID_BUNDLES, st.integers(1, 4), st.integers(0, 3))
def test_utility_is_strictly_monotone(a, d1, d2):
    fa = (F(a[0], 8), F(a[1], 8))
    fb = (F(a[0] + d1, 8), F(a[1] + d2, 8))
    assert utility_compare(fb, fa) > 0


# ---------------------------------------------------------------------------
# economies and allocations


def test_economy_validation():
    with pytest.raises(InvalidInputError):
        EdgeworthEconomy(0)
    with pytest.raises(InvalidInputError):
        ReplicaEconomy(EdgeworthEconomy(8), 0)


def test_participant_indexing_is_type_major():
    e = econ(8, 2)
    assert e.participants() == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert [e.participant_index(p) for p in e.participants()] == [1, 2, 3, 4]


def test_allocation_validation():
    with pytest.raises(InvalidInputError):
        alloc((-1, 0), (2, 1))
    with pytest.raises(InvalidInputError):
        Allocation(((F(1),),))
    x = alloc((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert x.units(2) == ((1, 1), (1, 1))
    with pytest.raises(InvalidInputError):
        x.units(3)


# ---------------------------------------------------------------------------
# effective coalition families


def test_effective_coalitions_k1():
    assert set(effective_coalitions(1)) == {
        frozenset({(1, 1)}), frozenset({(2, 1)}),
        frozenset({(1, 1), (2, 1)})}


def test_effective_coalitions_k2_exact():
    got = set(effective_coalitions(2))
    singles = {frozenset({(i, t)}) for i in (1, 2) for t in (1, 2)}
    mixed = {frozenset({(1, a), (2, b)}) for a in (1, 2) for b in (1, 2)}
    tris = {frozenset({(1, 1), (1, 2), (2, 1)}),
            frozenset({(1, 1), (2, 1), (2, 2)})}
    grand = {frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})}
    assert got == singles | mixed | tris | grand
    assert len(got) == 11


def test_effective_coalition_counts_follow_the_closed_form():
    for k in range(2, 9):
        fam = effective_coalitions(k)
        assert len(fam) == k * k + 4 * k - 1
        assert len(set(fam)) == len(fam)


def test_knowledge_growth_values():
    assert knowledge_growth(2) == (11, F(11, 4))
    assert knowledge_growth(3) == (20, F(10, 3))
    for k in range(2, 9):
        count, avg = knowledge_growth(k)
        assert avg == F(count, 2 * k)
    with pytest.raises(InvalidInputError):
        knowledge_growth(1)


# ---------------------------------------------------------------------------
# domination


def test_whole_set_dominates_the_endowment_split():
    e = econ(8, 1)
    x = alloc((1, 0), (0, 1))
    y = alloc((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert econ_dominates(e, y, x, [(1, 1), (2, 1)])


def test_no_allocation_dominates_itself():
    e = econ(8, 1)
    x = alloc((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert not econ_dominates(e, x, x, [(1, 1), (2, 1)])


def test_mixed_pair_midpoint_domination():
    e = econ(8, 2)
    x = alloc((F(3, 8), F(3, 8)), (F(5, 8), F(5, 8)),
              (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    y = alloc((F(1, 2), F(1, 2)), (0, 0), (F(1, 2), F(1, 2)), (0, 0))
    assert econ_dominates(e, y, x, [(1, 1), (2, 1)])


def test_domination_requires_exact_coalition_feasibility():
    e = econ(8, 1)
    x = alloc((1, 0), (0, 1))
    # hands out more than the pair's endowment
    y = alloc((F(3, 4), F(3, 4)), (F(3, 4), F(3, 4)))
    with pytest.raises(InvalidInputError):
        econ_dominates(e, y, x, [(1, 1), (2, 1)])
    # under-distribution is rejected the same way
    low = alloc((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))
    with pytest.raises(InvalidInputError):
        econ_dominates(e, low, x, [(1, 1), (2, 1)])


def test_domination_rejects_unknown_participants():
    e = econ(8, 1)
    x = alloc((1, 0), (0, 1))
    with pytest.raises(InvalidInputError):
        econ_dominates(e, x, x, [(1, 3)])
    with pytest.raises(InvalidInputError):
        econ_dominates(e, x, x, [])


# ---------------------------------------------------------------------------
# grid cores


def test_grid_core_k1_d8_frozen():
    core = grid_core(econ(8, 1))
    assert len(core) == 13
    diag = {a for a in core if a.bundles[0][0] == a.bundles[0][1]
            and a.bundles[1][0] == a.bundles[1][1]}
    assert {a.bundles[0][0] for a in diag} == {F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4)}
    # boundary of the contract curve on this grid
    assert alloc((F(1, 4), F(1, 4)), (F(3, 4), F(3, 4))) in core
    assert alloc((F(1, 8), F(1, 8)), (F(7, 8), F(7, 8))) not in core
    assert alloc((1, 0), (0, 1)) not in core


def test_grid_core_k2_d8_is_the_equal_split():
    core = grid_core(econ(8, 2))
    assert core == frozenset({Allocation(EQUAL_SPLIT_K2)})


def test_grid_core_agrees_with_brute_enumeration():
    for k, den in ((1, 4), (1, 8), (2, 2), (2, 3)):
        pkg = units_of(grid_core(econ(den, k)), den)
        brute = set(brute_grid_core(k, den))
        assert pkg == brute, (k, den)


def test_exhaustive_core_agrees_with_brute_enumeration():
    allsub = all_subsets(2)
    for den in (2, 3):
        pkg = units_of(grid_core(econ(den, 2), coalitions=allsub), den)
        brute = set(brute_grid_core(2, den, coalitions=allsub))
        assert pkg == brute, den


def test_effective_family_loses_nothing_against_exhaustive():
    for k, den in ((1, 2), (1, 4), (2, 2), (2, 4)):
        assert grid_core(econ(den, k)) == grid_core(econ(den, k), coalitions=all_subsets(k))


def test_replication_shrinks_the_core_per_type():
    core1 = grid_core(econ(8, 1))
    core2 = grid_core(econ(8, 2))
    projected = {Allocation((a.bundles[0], a.bundles[2])) for a in core2}
    assert projected < core1


def test_withholding_triples_restores_blocked_allocations():
    fam = [s for s in effective_coalitions(2) if len(s) != 3]
    partial = grid_core(econ(8, 2), coalitions=fam)
    full = grid_core(econ(8, 2))
    assert len(partial) == 29
    assert full < partial
    assert Allocation(F_ALLOCATION) in partial
    assert Allocation(F_ALLOCATION) not in full


def test_grid_core_size_guards():
    with pytest.raises(UnsupportedSizeError):
        grid_core(econ(4, 3))
    with pytest.raises(UnsupportedSizeError):
        grid_core(econ(16, 2))


# ---------------------------------------------------------------------------
# the k = 2 enumeration skips allocations a mixed pair blocks


NO_TRIPLES = [s for s in effective_coalitions(2) if len(s) != 3]
# (effective family, triples withheld) core sizes at k = 2 by D; the D <= 5
# entries are brute_grid_core's, the rest are pinned
K2_CORE_SIZES = {1: (6, 6), 2: (1, 1), 3: (6, 8), 4: (1, 15),
                 5: (8, 20), 6: (1, 15), 7: (8, 22), 8: (1, 29)}


def test_pair_need_is_the_least_unblocked_rank():
    from epicore.replica import _tables
    for den in range(1, 9):
        t = _tables(2 * den)
        res = (den, den)
        levels = max(t.rank.values()) + 1
        splits = [(t.rank[(a, b)], t.rank[(den - a, den - b)])
                  for a in range(den + 1) for b in range(den + 1)]

        def blocked(p, q):
            return any(x >= p and y >= q and (x > p or y > q) for x, y in splits)

        need = t.pair_need(res)
        assert len(need) == levels
        for p, q in enumerate(need):
            assert q == next(q for q in range(levels + 1)
                             if t.pair_strict(res, p, q) is None)
            assert not blocked(p, q) and (q == 0 or blocked(p, q - 1))
        assert all(a >= b for a, b in zip(need, need[1:])), den


def test_k2_core_sizes_are_pinned():
    for den, sizes in K2_CORE_SIZES.items():
        e = econ(den, 2)
        assert (len(grid_core(e)), len(grid_core(e, coalitions=NO_TRIPLES))) == sizes


def test_unpruned_path_agrees_with_brute_enumeration():
    # without the mixed pair {(1,2),(2,1)} the prune is off
    fam = [s for s in effective_coalitions(2) if s != frozenset({(1, 2), (2, 1)})]
    idxs = [(1,), (2,), (3,), (4,), (1, 3), (1, 4), (2, 4),
            (1, 2, 3), (1, 3, 4), (1, 2, 3, 4)]
    for den in (2, 3):
        pkg = units_of(grid_core(econ(den, 2), coalitions=fam), den)
        assert pkg == set(brute_grid_core(2, den, coalitions=idxs)), den


def test_k2_d8_tests_only_the_prune_survivors(monkeypatch):
    # the full family test runs on the 29 allocations no mixed pair blocks,
    # not on all 116,053 individually rational ones
    from epicore.replica import _Coalitions
    calls = []
    blocked = _Coalitions.blocked
    monkeypatch.setattr(_Coalitions, "blocked",
                        lambda self, *a, **kw: calls.append(1) or blocked(self, *a, **kw))
    for fam in (None, NO_TRIPLES):
        calls.clear()
        grid_core(econ(8, 2), coalitions=fam)
        assert len(calls) <= 29


def test_repeated_cores_share_their_allocations():
    first = grid_core(econ(8, 2), coalitions=NO_TRIPLES)
    second = grid_core(econ(8, 2), coalitions=NO_TRIPLES)
    assert first == second
    assert {id(a) for a in first} == {id(a) for a in second}


def test_allocation_keeps_fraction_pairs_and_validates_the_rest():
    b = (F(1, 2), F(0))
    assert Allocation([b]).bundles[0] is b
    for bad in ((F(-1), F(0)), (F(0), F(-1, 2)), (F(1),), (F(1), F(0), F(0)),
                (F(1), None), (F(1), "x")):
        with pytest.raises(InvalidInputError):
            Allocation([bad])


def _k1_dominated(e, x):
    """Brute domination check for k = 1 through econ_dominates alone."""
    den = e.base.grid_denominator
    if econ_dominates(e, alloc((1, 0), (0, 0)), x, [(1, 1)]):
        return True
    if econ_dominates(e, alloc((0, 0), (0, 1)), x, [(2, 1)]):
        return True
    for a1 in range(den + 1):
        for a2 in range(den + 1):
            y = alloc((F(a1, den), F(a2, den)),
                      (F(den - a1, den), F(den - a2, den)))
            if econ_dominates(e, y, x, [(1, 1), (2, 1)]):
                return True
    return False


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_core_membership_is_domination_freeness(u1, u2):
    # k = 1: a grid allocation is in the core iff no effective coalition
    # improves on it, which econ_dominates decides directly
    e = econ(8, 1)
    x = alloc((F(u1, 8), F(u2, 8)), (F(8 - u1, 8), F(8 - u2, 8)))
    assert (x in grid_core(e)) == (not _k1_dominated(e, x))


# ---------------------------------------------------------------------------
# partial knowledge witnesses


def test_witness_for_the_classic_blocked_allocation():
    sigma, atoms = partial_knowledge_witness(econ(8, 2), Allocation(F_ALLOCATION))
    assert sigma == (1, 1)
    assert len(atoms) == 1
    atom = next(iter(atoms))
    assert isinstance(atom, Ach)
    assert atom.vector == ((F(1, 2), F(1, 8)), (F(3, 4), F(1, 8)),
                           (F(3, 4), F(3, 4)), (F(0), F(0)))
    assert sorted(atom.coalition.members) == [1, 2, 3]


def test_witness_uses_the_singleton_for_ir_violations():
    sigma, atoms = partial_knowledge_witness(
        econ(8, 1), alloc((0, 0), (1, 1)))
    assert sigma == (1, 1)
    atom = next(iter(atoms))
    assert atom.vector == ((F(1), F(0)), (F(0), F(0)))
    assert atom.coalition.members == (1,)


def test_witness_midpoint_path():
    x = alloc((F(3, 8), F(3, 8)), (F(5, 8), F(5, 8)),
              (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    sigma, atoms = partial_knowledge_witness(econ(8, 2), x)
    assert sigma == (2, 1)
    atom = next(iter(atoms))
    assert atom.vector == ((F(3, 8), F(3, 8)), (F(0), F(0)),
                           (F(5, 8), F(5, 8)), (F(0), F(0)))
    assert sorted(atom.coalition.members) == [1, 3]


def _grid_allocations(k, den):
    """Every grid allocation of the 2k-agent replica economy."""
    total = k * den
    splits = [(a, total - a) for a in range(total + 1)]

    def parts(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in parts(remaining - first, slots - 1):
                yield (first,) + rest

    for good1 in parts(total, 2 * k):
        for good2 in parts(total, 2 * k):
            yield Allocation(tuple((F(a, den), F(b, den))
                                   for a, b in zip(good1, good2)))


def test_witness_is_none_exactly_on_the_core():
    # the witness names the staircase's first blocking coalition, its vector
    # dominates x there, and sigma is a member who gains strictly
    from epicore.replica import _plan
    for k, dens in ((1, range(1, 9)), (2, range(1, 4))):
        for den in dens:
            e = econ(den, k)
            plan = _plan(e)
            core = grid_core(e)
            hits = 0
            for x in _grid_allocations(k, den):
                w = partial_knowledge_witness(e, x)
                assert (w is None) == (x in core)
                if w is None:
                    hits += 1
                    continue
                sigma, atoms = w
                (atom,) = atoms
                members = atom.coalition.members
                ranks = tuple(plan.tables.rank[u] for u in x.units(den))
                assert members == plan.blocked(ranks)
                assert econ_dominates(e, Allocation(atom.vector), x, members)
                j = e.participant_index(sigma)
                assert j in members
                assert utility_compare(atom.vector[j - 1], x.bundles[j - 1]) > 0
            assert hits == len(core)


def test_staircase_splits_are_dominating_profiles():
    # every coalition of the effective family that the rank staircase
    # reports as blocking must hand back member bundles that econ_dominates
    # confirms, whether or not it is the first coalition to block; a check
    # reads only the members' bundles, so each distinct one runs once
    from epicore.replica import _plan
    blocking = set()
    checked = set()
    for k, dens in ((1, range(1, 9)), (2, range(1, 4))):
        for den in dens:
            e = econ(den, k)
            plan = _plan(e)
            for x in _grid_allocations(k, den):
                units = x.units(den)
                ranks = tuple(plan.tables.rank[u] for u in units)
                first = None
                for idxs in plan.family:
                    bundles = plan.bundles(idxs, ranks)
                    if bundles is None:
                        continue
                    if first is None:
                        first = idxs
                    blocking.add(idxs)
                    key = (den, idxs, bundles, tuple(units[j - 1] for j in idxs))
                    if key in checked:
                        continue
                    checked.add(key)
                    y = [(0, 0)] * (2 * k)
                    for j, (m1, m2) in zip(idxs, bundles):
                        y[j - 1] = (F(m1, den), F(m2, den))
                    assert econ_dominates(e, Allocation(y), x, idxs), (x, idxs)
                assert plan.blocked(ranks) == first
    assert blocking == set(_plan(econ(3, 2)).family) | {(1,), (2,), (1, 2)}


def test_blocking_search_is_complete_against_brute_force():
    # the peel-and-recurse search finds a dominating split exactly when raw
    # enumeration of the coalition's splits does, for coalitions of every
    # size and so for both peel positions of a triple and for the grand
    # coalition; the triples alone at D = 3
    from epicore.replica import _plan
    cases = [(den, all_subsets(2)) for den in (1, 2)]
    cases.append((3, [s for s in all_subsets(2) if len(s) == 3]))
    checked = set()
    for den, coalitions in cases:
        e = econ(den, 2)
        plan = _plan(e)
        for x in _grid_allocations(2, den):
            units = x.units(den)
            ranks = tuple(plan.tables.rank[u] for u in units)
            for s in coalitions:
                bundles = plan.bundles(s, ranks)
                assert (bundles is not None) == brute_blocks(2, den, units, s), (x, s)
                key = (den, s, bundles, tuple(units[j - 1] for j in s))
                if bundles is None or key in checked:
                    continue
                checked.add(key)
                y = [(0, 0)] * 4
                for j, (m1, m2) in zip(s, bundles):
                    y[j - 1] = (F(m1, den), F(m2, den))
                assert econ_dominates(e, Allocation(y), x, s), (x, s)


def test_witness_atoms_certify_a_checked_proof():
    # the witness construction runs the kernel check internally; a returned
    # witness therefore always carries a verifiable block, re-verified here
    # through econ_dominates
    e = econ(8, 2)
    x = Allocation(F_ALLOCATION)
    sigma, atoms = partial_knowledge_witness(e, x)
    atom = next(iter(atoms))
    y = Allocation(atom.vector)
    assert econ_dominates(e, y, x, atom.coalition.members)


def test_witness_is_kernel_checked_on_every_call(monkeypatch):
    from epicore import replica
    calls = []
    check = replica.check_proof
    monkeypatch.setattr(replica, "check_proof",
                        lambda *a: calls.append(1) or check(*a))
    x = Allocation(F_ALLOCATION)
    first = partial_knowledge_witness(econ(8, 2), x)
    second = partial_knowledge_witness(econ(8, 2), x)
    assert first == second and first[1] is second[1]
    assert len(calls) == 2
    monkeypatch.setattr(replica, "check_proof",
                        lambda *a: CheckResult(False, (), "refused"))
    with pytest.raises(VerificationFailure, match="refused"):
        partial_knowledge_witness(econ(8, 2), x)


def test_witness_respects_equilibrium():
    assert partial_knowledge_witness(
        econ(8, 2), Allocation(EQUAL_SPLIT_K2)) is None
    assert partial_knowledge_witness(
        econ(8, 1), alloc((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))) is None


def test_witness_validates_input():
    with pytest.raises(InvalidInputError):
        partial_knowledge_witness(econ(8, 1), Allocation(F_ALLOCATION))
    with pytest.raises(InvalidInputError):
        partial_knowledge_witness(econ(8, 1), alloc((1, 1), (1, 1)))
    with pytest.raises(InvalidInputError):
        partial_knowledge_witness(econ(8, 1), alloc((F(1, 3), F(2, 3)),
                                                    (F(2, 3), F(1, 3))))
    with pytest.raises(UnsupportedSizeError):
        partial_knowledge_witness(econ(4, 3), Allocation(
            tuple(((F(1, 2), F(1, 2)),) * 6)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 16), st.integers(0, 16), st.integers(0, 16),
       st.integers(0, 16), st.integers(0, 16), st.integers(0, 16))
def test_unequal_treatment_is_always_dominated(a1, a2, b1, b2, c1, c2):
    # every feasible allocation giving same-type copies different utility
    # is blocked through worst-copy midpoints, on or off the grid
    d1, d2 = 32 - a1 - b1 - c1, 32 - a2 - b2 - c2
    assume(d1 >= 0 and d2 >= 0)
    e = econ(8, 2)
    bundles = ((F(a1, 16), F(a2, 16)), (F(b1, 16), F(b2, 16)),
               (F(c1, 16), F(c2, 16)), (F(d1, 16), F(d2, 16)))
    x = Allocation(bundles)
    t1 = utility_compare(bundles[0], bundles[1])
    t2 = utility_compare(bundles[2], bundles[3])
    assume(t1 != 0 or t2 != 0)
    worst1 = bundles[0] if t1 <= 0 else bundles[1]
    worst2 = bundles[2] if t2 <= 0 else bundles[3]
    mid1 = ((bundles[0][0] + bundles[1][0]) / 2, (bundles[0][1] + bundles[1][1]) / 2)
    mid2 = ((bundles[2][0] + bundles[3][0]) / 2, (bundles[2][1] + bundles[3][1]) / 2)
    pair = [(1, 1 if t1 <= 0 else 2), (2, 1 if t2 <= 0 else 2)]
    y = [(F(0), F(0))] * 4
    y[e.participant_index(pair[0]) - 1] = mid1
    y[e.participant_index(pair[1]) - 1] = mid2
    assert econ_dominates(e, Allocation(tuple(y)), x, pair)
