"""Transferable-utility cooperative games with exact arithmetic.

A game is a pair (N, v): a finite player set N = {1, ..., n} and a
characteristic function v assigning a non-negative integer worth to every
nonempty coalition.  Payoff vectors live on the 1/n grid (each entry times n
is a non-negative integer) and are bounded by a per-game cap M, so every
object in sight is finite and exactly representable.

All arithmetic uses fractions.Fraction; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Mapping, Optional

from .errors import InvalidInputError, UnsupportedSizeError


@dataclass(frozen=True)
class Coalition:
    """A nonempty set of players, stored as a sorted tuple of 1-based ids.

    Coalitions sort canonically: by cardinality first, then
    lexicographically on the member tuple.
    """

    members: tuple[int, ...]

    def __lt__(self, other: "Coalition") -> bool:
        return self.canonical_key < other.canonical_key

    def __post_init__(self):
        if not self.members:
            raise InvalidInputError("coalition must be nonempty")
        if list(self.members) != sorted(set(self.members)):
            object.__setattr__(self, "members", tuple(sorted(set(self.members))))
        if self.members[0] < 1:
            raise InvalidInputError("player ids are 1-based positive integers")

    @staticmethod
    def of(*players: int) -> "Coalition":
        return Coalition(tuple(players))

    @staticmethod
    def parse(text: str) -> "Coalition":
        """Parse the file format: comma-separated 1-based ids, e.g. "1,3"."""
        try:
            ids = tuple(int(p) for p in text.split(","))
        except (ValueError, AttributeError):
            raise InvalidInputError(f"bad coalition key: {text!r}") from None
        if len(set(ids)) != len(ids):
            raise InvalidInputError(f"duplicate player in coalition key: {text!r}")
        return Coalition(ids)

    @property
    def canonical_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.members), self.members)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.members)

    def __contains__(self, player: int) -> bool:
        return player in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def all_coalitions(n: int) -> tuple[Coalition, ...]:
    """Every nonempty coalition of {1..n} in canonical order (size, then lex)."""
    out = []
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            out.append(Coalition(combo))
    return tuple(out)


@lru_cache(maxsize=None)
def _coalition_index(n: int) -> dict[Coalition, int]:
    return {s: k for k, s in enumerate(all_coalitions(n))}


@dataclass(frozen=True)
class PayoffVector:
    """A length-n payoff vector on the 1/n grid.

    Entries are non-negative Fractions and entries[i] * n must be an integer
    (players are 1-based, so player i receives entries[i-1]).  The upper
    bound M is a property of the game, checked where vectors meet games.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise InvalidInputError("payoff vector must have at least one entry")
        ent = tuple(Fraction(e) for e in self.entries)
        object.__setattr__(self, "entries", ent)
        for e in ent:
            if e < 0:
                raise InvalidInputError(f"negative payoff entry {e}")
            if (e * n).denominator != 1:
                raise InvalidInputError(
                    f"entry {e} is off the 1/{n} grid (entry*n must be integral)")

    @staticmethod
    def of(*values) -> "PayoffVector":
        return PayoffVector(tuple(Fraction(v) for v in values))

    @staticmethod
    def from_units(units: Iterable[int], n: int) -> "PayoffVector":
        """Build from integer grid units, unit = 1/n."""
        return PayoffVector(tuple(Fraction(u, n) for u in units))

    def units(self) -> tuple[int, ...]:
        """Entries in integer units of 1/n (lossless by the grid invariant)."""
        n = len(self.entries)
        return tuple(int(e * n) for e in self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def value_of(self, player: int) -> Fraction:
        return self.entries[player - 1]

    def total(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def coalition_sum(self, coalition: Coalition) -> Fraction:
        return sum((self.entries[p - 1] for p in coalition), Fraction(0))

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


@dataclass(frozen=True)
class TUGame:
    """A TU game: player count, characteristic values, and payoff cap M.

    `values` is aligned with all_coalitions(n).  Every nonempty coalition
    must be present, worths are non-negative integers, and v(S) < M.
    The default cap M = 2 * max_S v(S) + 1 leaves room above any worth.
    """

    n: int
    values: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("need at least one player")
        coalitions = all_coalitions(self.n)
        if len(self.values) != len(coalitions):
            raise InvalidInputError(
                f"expected {len(coalitions)} coalition values, got {len(self.values)}")
        for s, v in zip(coalitions, self.values):
            if not isinstance(v, int) or v < 0:
                raise InvalidInputError(f"v({s}) must be a non-negative integer")
            if v >= self.bound:
                raise InvalidInputError(f"v({s})={v} must be below the bound {self.bound}")

    @staticmethod
    def from_values(n: int, worth: Mapping, bound: Optional[int] = None) -> "TUGame":
        """Build a game from a coalition -> worth mapping.

        Keys may be Coalition objects or file-format strings like "1,3";
        every nonempty coalition of {1..n} must appear exactly once.
        """
        normalized: dict[Coalition, int] = {}
        for k, v in worth.items():
            c = Coalition.parse(k) if isinstance(k, str) else k
            if c in normalized:
                raise InvalidInputError(f"coalition listed twice: {c}")
            normalized[c] = v
        worth = normalized
        coalitions = all_coalitions(n)
        missing = [s for s in coalitions if s not in worth]
        if missing:
            raise InvalidInputError(f"missing coalition values: {missing[0]} (and {len(missing)-1} more)"
                                    if len(missing) > 1 else f"missing coalition value: {missing[0]}")
        extra = set(worth) - set(coalitions)
        if extra:
            raise InvalidInputError(f"unknown coalition for n={n}: {sorted(extra)[0]}")
        vals = tuple(worth[s] for s in coalitions)
        if bound is None:
            bound = 2 * max(vals) + 1
        return TUGame(n, vals, bound)

    def v(self, coalition: Coalition) -> int:
        return self.values[_coalition_index(self.n)[coalition]]

    @property
    def grand(self) -> Coalition:
        return all_coalitions(self.n)[-1]

    def coalitions(self) -> tuple[Coalition, ...]:
        return all_coalitions(self.n)

    def items(self) -> Iterator[tuple[Coalition, int]]:
        return zip(all_coalitions(self.n), self.values)


def core_membership(game: TUGame, x: PayoffVector) -> bool:
    """Exact core test: Pareto optimality plus coalitional rationality.

    x is in the core iff the entries sum to v(N) and every coalition S
    receives at least v(S) in total.
    """
    if x.n != game.n:
        raise InvalidInputError("payoff vector length does not match player count")
    if x.total() != game.v(game.grand):
        return False
    return all(x.coalition_sum(s) >= v for s, v in game.items())


# A bounded-sum enumeration visits C(cap + m, m) tuples; the integer core,
# for one, tests each split of v(N) at 20 to 100 us.
MAX_GRID_UNITS = 20_000


def grid_units(m: int, cap: int) -> tuple[tuple[int, ...], ...]:
    """Every m-tuple of non-negative integers with sum at most cap, in
    lexicographic order.  Refused before any is built when there are more
    than MAX_GRID_UNITS of them."""
    count = comb(cap + m, m)
    if count > MAX_GRID_UNITS:
        raise UnsupportedSizeError(
            f"{count:,} vectors of length {m} have entries summing to at most "
            f"{cap}; bounded-sum enumerations are guarded to {MAX_GRID_UNITS:,}")
    tuples = [()]
    for _ in range(m):
        tuples = [t + (u,) for t in tuples for u in range(cap - sum(t) + 1)]
    return tuple(tuples)


def enumerate_integer_core(game: TUGame) -> tuple[PayoffVector, ...]:
    """All integer payoff vectors in the core, in lexicographic order.

    Finite because core vectors are non-negative (singleton rationality)
    and sum to v(N): every split of v(N) into n parts is tested.
    """
    n, total = game.n, game.v(game.grand)
    sums = list(game.items())
    out = []
    for head in grid_units(n - 1, total):
        x = PayoffVector.of(*head, total - sum(head))
        if all(x.coalition_sum(s) >= v for s, v in sums):
            out.append(x)
    return tuple(out)


def dominates(game: TUGame, y: PayoffVector, x: PayoffVector, coalition: Coalition) -> bool:
    """Domination through a coalition: weak improvement for every member,
    strict for at least one.

    Feasibility of y for the coalition is deliberately NOT part of this
    predicate; callers compare the coalition sum against the worth where
    they need it.  The game argument only anchors the dimension.
    """
    if y.n != x.n or y.n != game.n:
        raise InvalidInputError("payoff vectors must match the game's player count")
    ye, xe = y.entries, x.entries
    ok = all(ye[p - 1] >= xe[p - 1] for p in coalition)
    return ok and any(ye[p - 1] > xe[p - 1] for p in coalition)


def blocking_witness(game: TUGame, x: PayoffVector) -> Optional[tuple[Coalition, PayoffVector]]:
    """First blocking coalition (canonical order) with its dominating vector.

    Requires integer entries and sum(x) <= v(N).  For the first coalition S
    with a deficit (sum over S below v(S)), the witness pays each member of
    S its old payoff plus deficit/n and pays zero off S.  Returns None iff
    no coalition has a deficit, which on this domain means x is in the core.
    """
    if x.n != game.n:
        raise InvalidInputError("payoff vector length does not match player count")
    if not x.is_integral():
        raise InvalidInputError("blocking construction needs integer payoffs")
    n = game.n
    if x.total() > game.v(game.grand):
        raise InvalidInputError("blocking construction needs sum(x) <= v(N)")
    for s, v in game.items():
        deficit = v - x.coalition_sum(s)
        if deficit > 0:
            share = Fraction(deficit, n)
            entries = tuple(
                x.entries[p - 1] + share if p in s else Fraction(0)
                for p in range(1, n + 1))
            y = PayoffVector(entries)
            # all three guarantees hold by construction; cheap to re-assert
            assert dominates(game, y, x, s)
            assert y.coalition_sum(s) <= v
            return (s, y)
    return None
