"""Replica exchange economies on a rational grid, compared exactly.

Two agent types trade two commodities.  Type 1 owns (1,0), type 2 owns
(0,1), and everyone shares the CES utility with exponent 1/2:

    u(x1, x2) = (sqrt(x1) + sqrt(x2))^2 = x1 + x2 + 2*sqrt(x1*x2)

Utility values are irrational, but every comparison between two bundles
reduces to integer arithmetic by isolating the radicals and squaring with
sign tracking, so domination checks are exact.  Allocations live on a
uniform grid (denominator D per commodity), which keeps core computations
finite: the grid core reported here can only over-approximate the true
core restricted to the grid, since dominators between grid points are
invisible.

The k-fold replica has participants (i, t) for type i in {1, 2} and copy
t in 1..k, each carrying the type endowment and the shared utility.
Participants are indexed 1..2k in type-major order: (1,1), ..., (1,k),
(2,1), ..., (2,k).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import comb
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import InvalidInputError, UnsupportedSizeError, VerificationFailure
from .games import Coalition
from .logic import (
    Ach,
    And,
    FormulaSet,
    Geq,
    _cmp_units,
    check_proof,
    strict_gain,
    witness_derivation,
)

Bundle = tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# exact utility comparison


def utility_compare(a: Sequence, b: Sequence) -> int:
    """Exact ordinal comparison of two bundles under the CES utility with
    exponent 1/2: -1, 0, or 1.  Bundles are pairs of non-negative
    rationals.
    """
    return _cmp_units(_as_bundle(a), _as_bundle(b))


def _as_bundle(raw) -> Bundle:
    # a pair of non-negative Fractions already is a bundle: keep it shared
    if (type(raw) is tuple and len(raw) == 2 and type(raw[0]) is Fraction
            and type(raw[1]) is Fraction and raw[0] >= 0 and raw[1] >= 0):
        return raw
    try:
        pair = tuple(Fraction(c) for c in raw)
    except (TypeError, ValueError):
        raise InvalidInputError(f"not a commodity bundle: {raw!r}") from None
    if len(pair) != 2:
        raise InvalidInputError("a bundle holds exactly two commodity quantities")
    if pair[0] < 0 or pair[1] < 0:
        raise InvalidInputError("bundle quantities must be non-negative")
    return pair


# ---------------------------------------------------------------------------
# economies and allocations


@dataclass(frozen=True)
class EdgeworthEconomy:
    """Two-type, two-commodity exchange economy on a 1/D grid.

    Endowments are fixed: type 1 owns (1,0), type 2 owns (0,1).  Both
    types share the CES utility with exponent 1/2.
    """

    grid_denominator: int

    def __post_init__(self):
        if not isinstance(self.grid_denominator, int) or self.grid_denominator < 1:
            raise InvalidInputError("grid denominator must be a positive integer")


@dataclass(frozen=True)
class ReplicaEconomy:
    """k copies of each type of a base economy.

    Participant (i, t) is copy t of type i; all copies of a type share
    the type's endowment and utility.
    """

    base: EdgeworthEconomy
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidInputError("replica count must be a positive integer")

    def participants(self) -> tuple[tuple[int, int], ...]:
        """All (type, copy) pairs in canonical index order."""
        k = self.k
        return tuple((i, t) for i in (1, 2) for t in range(1, k + 1))

    def participant_index(self, sigma: tuple[int, int]) -> int:
        """1-based index of participant (i, t) in type-major order."""
        i, t = sigma
        if i not in (1, 2) or not 1 <= t <= self.k:
            raise InvalidInputError(f"no participant {sigma!r} in a {self.k}-fold replica")
        return (i - 1) * self.k + t


class Allocation:
    """One commodity bundle per participant, in canonical participant order."""

    __slots__ = ("bundles", "_hash")

    def __init__(self, bundles: Iterable):
        bs = tuple(_as_bundle(b) for b in bundles)
        if not bs:
            raise InvalidInputError("allocation needs at least one bundle")
        self.bundles = bs
        self._hash = hash(bs)

    def __len__(self):
        return len(self.bundles)

    def __eq__(self, other):
        return type(other) is Allocation and self.bundles == other.bundles

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Allocation({list(self.bundles)!r})"

    def units(self, den: int) -> tuple[tuple[int, int], ...]:
        """Bundles as integer unit counts on the 1/den grid.

        Rejects bundles that do not lie on the grid.
        """
        out = []
        for b in self.bundles:
            m1, m2 = b[0] * den, b[1] * den
            if m1.denominator != 1 or m2.denominator != 1:
                raise InvalidInputError(
                    f"bundle {b} is not on the 1/{den} grid")
            out.append((int(m1), int(m2)))
        return tuple(out)


def _check_allocation(economy: ReplicaEconomy, x: Allocation, name: str) -> None:
    if len(x) != 2 * economy.k:
        raise InvalidInputError(
            f"{name} must assign one bundle to each of {2 * economy.k} participants")


def _feasible_total(economy: ReplicaEconomy, x: Allocation) -> bool:
    k = economy.k
    tot1 = sum(b[0] for b in x.bundles)
    tot2 = sum(b[1] for b in x.bundles)
    return tot1 == k and tot2 == k


# ---------------------------------------------------------------------------
# effective coalitions and their count


# The effective family holds k^2 + 4k - 1 coalitions, the largest of 2k
# participants; at k = 300 listing them takes 1.4 s and 145 MB.
MAX_LISTED_REPLICAS = 100


def effective_coalitions(k: int) -> tuple[frozenset, ...]:
    """The coalitions that suffice for core rejection in a k-fold replica.

    Four groups: the 2k singletons, the k*k mixed pairs {(1,n),(2,m)},
    the 2(k-1) near-balanced coalitions holding all copies 1..n of one
    type and copies 1..n-1 of the other (n = 2..k), and the whole set.
    Deduplicated, canonical order (size, then members).
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidInputError("replica count must be a positive integer")
    if k > MAX_LISTED_REPLICAS:
        raise UnsupportedSizeError(
            f"effective coalitions are listed for k <= {MAX_LISTED_REPLICAS}, got k={k}")
    groups: list[frozenset] = []
    for i in (1, 2):
        for n in range(1, k + 1):
            groups.append(frozenset({(i, n)}))
    for n in range(1, k + 1):
        for m in range(1, k + 1):
            groups.append(frozenset({(1, n), (2, m)}))
    for n in range(2, k + 1):
        lead = {(1, t) for t in range(1, n + 1)}
        trail = {(2, t) for t in range(1, n)}
        groups.append(frozenset(lead | trail))
        lead = {(2, t) for t in range(1, n + 1)}
        trail = {(1, t) for t in range(1, n)}
        groups.append(frozenset(lead | trail))
    groups.append(frozenset((i, t) for i in (1, 2) for t in range(1, k + 1)))
    seen = set()
    out = []
    for s in groups:
        if s not in seen:
            seen.add(s)
            out.append(s)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(out)


def knowledge_growth(k: int) -> tuple[int, Fraction]:
    """Effective-coalition count and the per-participant average.

    count = k^2 + 4k - 1 and average = count / (2k); the count is
    cross-checked against the enumerated list.
    """
    if not isinstance(k, int) or k < 2:
        raise InvalidInputError("knowledge growth is defined for k >= 2")
    count = k * k + 4 * k - 1
    listed = len(effective_coalitions(k))
    if listed != count:
        raise VerificationFailure(
            f"effective-coalition count mismatch at k={k}: "
            f"formula {count}, enumerated {listed}")
    average = Fraction(count, 2 * k)
    if average != Fraction(k, 2) + 2 - Fraction(1, 2 * k):
        raise VerificationFailure(f"average identity fails at k={k}")
    return count, average


# ---------------------------------------------------------------------------
# domination


def _normalize_members(economy: ReplicaEconomy, S) -> tuple[int, ...]:
    """Members may be (type, copy) pairs or flat participant indices 1..2k,
    the numbering used inside proof coalitions."""
    members = set()
    try:
        for sigma in S:
            if isinstance(sigma, int):
                if not 1 <= sigma <= 2 * economy.k:
                    raise ValueError(sigma)
                members.add(sigma)
            else:
                members.add(economy.participant_index(tuple(sigma)))
    except (TypeError, ValueError):
        raise InvalidInputError(f"not a participant set: {S!r}") from None
    if not members:
        raise InvalidInputError("coalition must be nonempty")
    return tuple(sorted(members))


def econ_dominates(economy: ReplicaEconomy, y: Allocation, x: Allocation, S) -> bool:
    """Does y beat x through coalition S?

    y restricted to S must redistribute exactly the members' endowments
    (componentwise equality); anything else is rejected as invalid input.
    Domination is a weak utility improvement for every member and a
    strict one for at least one.
    """
    _check_allocation(economy, y, "y")
    _check_allocation(economy, x, "x")
    idxs = _normalize_members(economy, S)
    k = economy.k
    need1 = sum(1 for j in idxs if j <= k)
    need2 = len(idxs) - need1
    got1 = sum(y.bundles[j - 1][0] for j in idxs)
    got2 = sum(y.bundles[j - 1][1] for j in idxs)
    if got1 != need1 or got2 != need2:
        raise InvalidInputError(
            "y does not redistribute the coalition's endowments "
            f"(needs ({need1}, {need2}) in total, has ({got1}, {got2}))")
    strict = False
    for j in idxs:
        c = utility_compare(y.bundles[j - 1], x.bundles[j - 1])
        if c < 0:
            return False
        if c > 0:
            strict = True
    return strict


# ---------------------------------------------------------------------------
# rank tables: every grid bundle gets an integer rank, equal utilities
# share a rank, and coalition queries become staircase lookups


class _Tables:
    __slots__ = ("max_units", "rank", "_pair", "_need", "_upper")

    def __init__(self, max_units: int):
        self.max_units = max_units
        grid = [(m1, m2)
                for m1 in range(max_units + 1) for m2 in range(max_units + 1)]
        grid.sort(key=cmp_to_key(_cmp_units))
        rank: dict[tuple[int, int], int] = {}
        r = -1
        prev = None
        for m in grid:
            if prev is None or _cmp_units(m, prev) != 0:
                r += 1
                prev = m
            rank[m] = r
        self.rank = rank
        self._pair = {}
        self._need = {}
        self._upper = {}

    def pair(self, res: tuple[int, int]):
        """Staircase for two-member splits of an exact unit resource.

        Returns (avals, bvals, splits): ascending first-member ranks; for
        each, the best second-member rank achievable with first rank >=
        avals[i]; and a split reaching it, coded by the first member's
        bundle (m1, m2) as m1 * (r2 + 1) + m2 (see `unpair`).
        """
        st = self._pair.get(res)
        if st is None:
            r1, r2 = res
            rank = self.rank
            best: dict[int, int] = {}
            at: dict[int, int] = {}
            code = 0
            for m1 in range(r1 + 1):
                for m2 in range(r2 + 1):
                    a = rank[(m1, m2)]
                    b = rank[(r1 - m1, r2 - m2)]
                    if best.get(a, -1) < b:
                        best[a] = b
                        at[a] = code
                    code += 1
            avals = sorted(best)
            bvals = []
            splits = []
            cur, cur_at = -1, None
            for a in reversed(avals):
                if best[a] > cur:
                    cur = best[a]
                    cur_at = at[a]
                bvals.append(cur)
                splits.append(cur_at)
            bvals.reverse()
            splits.reverse()
            st = self._pair[res] = (avals, bvals, splits)
        return st

    @staticmethod
    def unpair(res: tuple[int, int], code: int) -> tuple:
        """The two unit bundles of the split of res that `code` names."""
        r1, r2 = res
        m1, m2 = divmod(code, r2 + 1)
        return (m1, m2), (r1 - m1, r2 - m2)

    def pair_meets(self, res, p: int, q: int) -> Optional[int]:
        # a split with first rank >= p and second rank >= q, or None
        avals, bvals, splits = self.pair(res)
        i = bisect_left(avals, p)
        if i < len(avals) and bvals[i] >= q:
            return splits[i]
        return None

    def pair_strict(self, res, p: int, q: int) -> Optional[int]:
        # a split meeting (p, q) that is strictly above at one member, or None
        avals, bvals, splits = self.pair(res)
        i = bisect_left(avals, p)
        if i == len(avals):
            return None
        m = bvals[i]
        if m > q:
            return splits[i]
        if m < q:
            return None
        j = bisect_right(avals, p)
        if j < len(avals) and bvals[j] >= q:
            return splits[j]
        return None

    def pair_need(self, res) -> tuple[int, ...]:
        """For each first-member rank p, the least second-member rank q
        that `pair_strict(res, p, q)` leaves unblocked.  Blocked profiles
        form a down-set, so the table is non-increasing in p."""
        need = self._need.get(res)
        if need is None:
            levels = range(max(self.rank.values()) + 2)
            need = self._need[res] = tuple(
                bisect_left(levels, True,
                            key=lambda q: self.pair_strict(res, p, q) is None)
                for p in levels[:-1])
        return need

    def upper_min(self, target: int) -> tuple:
        """Componentwise-minimal grid bundles with rank >= target."""
        out = self._upper.get(target)
        if out is None:
            rank = self.rank
            top = self.max_units
            pts = []
            prev = None
            for m1 in range(top + 1):
                lo, hi = 0, top + 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if rank[(m1, mid)] >= target:
                        hi = mid
                    else:
                        lo = mid + 1
                if lo > top:
                    continue
                if prev is None or lo < prev:
                    pts.append((m1, lo))
                    prev = lo
            out = self._upper[target] = tuple(pts)
        return out

    def peel(self, res, targets: tuple, strict: bool) -> Optional[tuple]:
        """A split of res giving member i a rank >= targets[i], and a
        strictly higher rank to one member if `strict`, or None.

        The first member is peeled off with each componentwise-minimal
        bundle that reaches its target, and the rest recurse on what is
        left, down to the two-member staircase.  The split is the members'
        unit bundles in order.  Minimal bundles make the search complete:
        utility is strictly monotone, so whatever a dominating profile
        gives the peeled member beyond a minimal bundle below it can go to
        another member, who then gains strictly.
        """
        if len(targets) == 2:
            if strict:
                code = self.pair_strict(res, targets[0], targets[1])
            else:
                code = self.pair_meets(res, targets[0], targets[1])
            return None if code is None else self.unpair(res, code)
        r1, r2 = res
        target = targets[0]
        rest = targets[1:]
        rank = self.rank
        for single in self.upper_min(target):
            m1, m2 = single
            if m1 > r1 or m2 > r2:
                continue
            hit = self.peel((r1 - m1, r2 - m2), rest, strict and rank[single] == target)
            if hit is not None:
                return (single,) + hit
        return None


@lru_cache(maxsize=8)
def _tables(max_units: int) -> _Tables:
    return _Tables(max_units)


# ---------------------------------------------------------------------------
# coalition descriptors: compiled query plans for one economy


class _Coalitions:
    """Blocking queries for a fixed replica economy and coalition family."""

    def __init__(self, economy: ReplicaEconomy, family: Sequence[tuple[int, ...]]):
        base = economy.base
        self.den = base.grid_denominator
        self.k = economy.k
        self.tables = _tables(self.k * self.den)
        self.endow_rank = self.tables.rank[(self.den, 0)]
        self.family = tuple(family)
        self.singles = tuple(s[0] for s in self.family if len(s) == 1)
        self.larger = tuple(s for s in self.family if len(s) > 1)
        self._memo: dict = {}

    def resource(self, idxs: tuple[int, ...]) -> tuple[int, int]:
        k, den = self.k, self.den
        ones = sum(1 for j in idxs if j <= k)
        return (ones * den, (len(idxs) - ones) * den)

    def blocked(self, ranks: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """The first coalition of the family that rejects the allocation
        with these member ranks, or None."""
        e = self.endow_rank
        for j in self.singles:
            if e > ranks[j - 1]:
                return (j,)
        for idxs in self.larger:
            if self._blocked_by(idxs, ranks) is not None:
                return idxs
        return None

    def bundles(self, idxs: tuple[int, ...], ranks: tuple[int, ...]) -> Optional[tuple]:
        """Unit bundles, one per member of idxs in order, by which idxs
        rejects the allocation with these member ranks, or None."""
        res = self.resource(idxs)
        if len(idxs) == 1:
            return (res,) if self.endow_rank > ranks[idxs[0] - 1] else None
        split = self._blocked_by(idxs, ranks)
        if split is None:
            return None
        if len(idxs) == 2:
            return self.tables.unpair(res, split)
        return tuple(b for _, b in sorted(zip(_peel_order(self.k, idxs), split)))

    def _blocked_by(self, idxs: tuple[int, ...], ranks: tuple[int, ...]):
        """How idxs rejects these ranks, or None: for a pair the staircase
        split (decoded by `bundles`), for a larger coalition the member
        bundles in `_peel_order`."""
        t = self.tables
        targets = tuple(ranks[j - 1] for j in idxs)
        if len(idxs) == 2:
            return t.pair_strict(self.resource(idxs), targets[0], targets[1])
        key = (idxs, targets)
        try:
            return self._memo[key]
        except KeyError:
            pass
        ordered = tuple(targets[p] for p in _peel_order(self.k, idxs))
        hit = self._memo[key] = t.peel(self.resource(idxs), ordered, True)
        return hit


@lru_cache(maxsize=None)
def _peel_order(k: int, idxs: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of idxs in the order `_Tables.peel` takes them: members of
    the rarer type first, else in coalition order, so that a triple peels
    its lone-type member and the last two form the pair."""
    ones = sum(1 for j in idxs if j <= k)
    count = (ones, len(idxs) - ones)
    return tuple(sorted(range(len(idxs)), key=lambda p: count[idxs[p] > k]))


def _family_indices(economy: ReplicaEconomy, sets: Iterable) -> tuple[tuple[int, ...], ...]:
    seen = set()
    out = []
    for s in sets:
        idxs = _normalize_members(economy, s)
        if idxs not in seen:
            seen.add(idxs)
            out.append(idxs)
    out.sort(key=lambda v: (len(v), v))
    return tuple(out)


# bounds one type's k-tuples of bundles, comb(kD + k, k)**2 at most, and the
# allocations _core tests when the mixed-pair prune is off
MAX_GRID_CANDIDATES = 1_000_000


def _plan(economy: ReplicaEconomy, coalitions: Optional[Iterable] = None) -> _Coalitions:
    """Query plan over `coalitions` (default: the effective family); the
    size guard of grid_core and partial_knowledge_witness, for every k."""
    k = economy.k
    den = economy.base.grid_denominator
    if k * den > 16 or comb(k * den + k, k) ** 2 > MAX_GRID_CANDIDATES:
        raise UnsupportedSizeError(
            f"replica grid queries are guarded to k*D <= 16 and at most "
            f"{MAX_GRID_CANDIDATES:,} k-tuples of bundles a type; got k={k}, D={den}")
    if coalitions is None:
        coalitions = effective_coalitions(k)
    return _Coalitions(economy, _family_indices(economy, coalitions))


@lru_cache(maxsize=8)
def _witness_plan(economy: ReplicaEconomy) -> _Coalitions:
    # witnesses always query the effective family, so one plan serves them all
    return _plan(economy)


# ---------------------------------------------------------------------------
# grid core


def grid_core(economy: ReplicaEconomy, *, coalitions: Optional[Iterable] = None) -> frozenset:
    """Feasible grid allocations no coalition can reject with a grid witness.

    By default only the effective coalition family is consulted; pass
    `coalitions` (an iterable of participant sets) to use a custom family,
    such as every nonempty coalition; one enumeration serves every k.  The
    result over-approximates the true core restricted to the grid:
    dominators that live between grid points are not seen.
    """
    return frozenset(_core(_plan(economy, coalitions)))


def _core(plan: _Coalitions):
    """Each type's ordered k-tuples of bundles (individually rational ones
    when every singleton is in the family) as cons cells (least rank, last
    bundle, cell before), grouped by sum.  The k*k mixed pairs all split
    (D, D) on one staircase, so a type-1 tuple and a type-2 tuple at the
    complementary sum pass them exactly when the least type-2 rank is at
    least need[least type-1 rank]; only such pairs are tested in full."""
    k, den = plan.k, plan.den
    rank = plan.tables.rank
    total = k * den
    low = plan.endow_rank if set(plan.singles) == set(range(1, 2 * k + 1)) else 0
    pool = [(b, r) for b, r in rank.items() if r >= low]
    groups = {b: [(r, b, None)] for b, r in pool}
    for _ in range(k - 1):
        wider: dict[tuple[int, int], list] = {}
        for (s1, s2), cells in groups.items():
            for b, r in pool:
                if s1 + b[0] <= total and s2 + b[1] <= total:
                    add = wider.setdefault((s1 + b[0], s2 + b[1]), []).append
                    for c in cells:
                        add((r if r < c[0] else c[0], b, c))
        groups = wider
    for cells in groups.values():
        cells.sort(key=itemgetter(0), reverse=True)
    if {(t, u) for t in range(1, k + 1) for u in range(k + 1, 2 * k + 1)} <= set(plan.larger):
        need = plan.tables.pair_need((den, den))
    else:
        need = [0] * len(rank)
        count = sum(len(cells) * len(groups.get((total - s1, total - s2), ()))
                    for (s1, s2), cells in groups.items())
        if count > MAX_GRID_CANDIDATES:
            raise UnsupportedSizeError(
                f"without all {k * k} mixed pairs the grid core at k={k}, D={den} "
                f"tests {count:,} allocations; at most {MAX_GRID_CANDIDATES:,} are tested")
    out = []
    for (s1, s2), cells in groups.items():
        others = groups.get((total - s1, total - s2))
        if not others:
            continue
        for cell in cells:
            floor = need[cell[0]]
            if others[0][0] < floor:
                continue
            first = _unroll(cell)
            for other in others:
                if other[0] < floor:
                    break
                units = first + _unroll(other)
                if plan.blocked(tuple([rank[u] for u in units])) is None:
                    out.append(_allocation(units, den))
    return out


def _unroll(cell) -> tuple:
    return () if cell is None else _unroll(cell[2]) + (cell[1],)


# Repeated queries share their grid objects: one bundle per unit pair (at
# most 17^2 per denominator under the size guard), core member and atom.
@lru_cache(maxsize=None)
def _bundle(units: tuple[int, int], den: int) -> Bundle:
    return (Fraction(units[0], den), Fraction(units[1], den))


@lru_cache(maxsize=4096)
def _allocation(units: tuple, den: int) -> Allocation:
    return Allocation(tuple(_bundle(u, den) for u in units))


@lru_cache(maxsize=4096)
def _rejection(k: int, idxs: tuple[int, ...], units: tuple, den: int):
    """The atom that coalition idxs achieves these member unit bundles
    (everyone else gets nothing), and the witness (sigma, {atom}) for each
    member j who may be the strict gainer sigma."""
    y_vec = [_bundle((0, 0), den)] * (2 * k)
    for j, u in zip(idxs, units):
        y_vec[j - 1] = _bundle(u, den)
    ach = Ach(tuple(y_vec), Coalition(idxs))
    atoms = frozenset({ach})
    return ach, {j: ((1, j) if j <= k else (2, j - k), atoms) for j in idxs}


# ---------------------------------------------------------------------------
# partial-knowledge rejection witnesses


def partial_knowledge_witness(economy: ReplicaEconomy, x: Allocation):
    """A participant and a one-atom knowledge set that reject x, or None.

    If x lies outside the grid core, returns (sigma, {ach}) where ach
    asserts that some effective coalition T containing sigma can achieve
    a bundle profile dominating x, with sigma gaining strictly.  The
    blocking derivation is re-checked with the sequent kernel, which
    compares bundles by utility, before returning.  Returns None exactly
    when x is in the grid core.
    """
    _check_allocation(economy, x, "x")
    if not _feasible_total(economy, x):
        raise InvalidInputError("x must redistribute the total endowment exactly")
    plan = _witness_plan(economy)
    ranks = tuple(plan.tables.rank[u] for u in x.units(plan.den))
    idxs = plan.blocked(ranks)
    if idxs is None:
        return None
    # a singleton's decoded bundle is its endowment
    return _certify(economy, x, idxs, *_rejection(
        economy.k, idxs, plan.bundles(idxs, ranks), plan.den))


def _certify(economy: ReplicaEconomy, x: Allocation, idxs: tuple[int, ...],
             ach: Ach, witnesses: dict):
    """Re-check the rejection atom's derivation with the kernel."""
    n = 2 * economy.k
    y_vec = ach.vector
    x_vec = x.bundles
    tag = ach.coalition
    grand = Coalition(tuple(range(1, n + 1)))

    sigma_idx = None
    for j in idxs:
        if utility_compare(y_vec[j - 1], x_vec[j - 1]) > 0:
            sigma_idx = j
            break
    if sigma_idx is None:
        raise VerificationFailure("blocking candidate has no strict gainer")

    witness = And((ach, Geq(y_vec, tag, tag, x_vec, grand),
                   strict_gain(y_vec, tag, sigma_idx, x_vec, grand)))
    root = witness_derivation((sigma_idx,), FormulaSet.of((ach,)), witness)
    res = check_proof(root)
    if not res.ok:
        raise VerificationFailure(
            f"rejection derivation failed kernel check: {res.reason}")
    return witnesses[sigma_idx]
