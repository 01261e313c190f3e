"""Knowledge profiles and the core: verification-oriented analysis.

Three groups of tools:

* unanimous acceptance: which integer proposals every player accepts under
  a knowledge profile, and whether that set coincides with the core
  (covering profiles do; a profile missing a coalition is defeated by an
  explicit counterexample game);
* irrelevance: knowledge about coalitions not containing the player never
  changes a verdict;
* balancedness: exact-rational balanced-family detection, minimal balanced
  family enumeration (n <= 4), and the induced core-nonemptiness test.

Everything is exact; no floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Optional

from .acceptability import KnowledgeProfile, decide, normalize_family
from .errors import InvalidInputError, UnsupportedSizeError
from .games import (
    Coalition,
    PayoffVector,
    TUGame,
    all_coalitions,
    enumerate_integer_core,
    grid_units,
)

# Member profiles number 2^(n 2^(n-1)): 4,096 at n = 3, 4.3 billion at n = 4.
MAX_PROFILES = 4_096
# A survey decides each profile, integer proposal and player at most once,
# at 18 to 50 us a verdict on a 2-core x86-64 VM: 2 s at most.
MAX_SURVEY_VERDICTS = 40_000

# ---------------------------------------------------------------------------
# unanimous acceptance and core characterization


def integer_vectors_up_to(n: int, total: int) -> tuple[PayoffVector, ...]:
    """All nonnegative integer vectors with sum at most `total`, lex order."""
    return tuple(PayoffVector.of(*units) for units in grid_units(n, total))


def unanimous_acceptance_set(game: TUGame, profile: KnowledgeProfile) -> frozenset[PayoffVector]:
    """Integer proposals x with sum(x) <= v(N) that every player accepts
    under their own coalition family."""
    if profile.n != game.n:
        raise InvalidInputError("profile size does not match the game")
    out = []
    for x in integer_vectors_up_to(game.n, game.v(game.grand)):
        if all(decide(game, i, profile.family(i), x).acceptable
               for i in range(1, game.n + 1)):
            out.append(x)
    return frozenset(out)


@dataclass(frozen=True)
class ProfileReport:
    game_id: str
    profile: KnowledgeProfile
    characterizes_core: bool
    violations: tuple[PayoffVector, ...]
    warnings: tuple[str, ...] = ()


def game_id(game: TUGame) -> str:
    return f"n={game.n};" + ";".join(
        f"{c}:{game.v(c)}" for c in game.coalitions())


def characterizes_core(game: TUGame, profile: KnowledgeProfile) -> ProfileReport:
    """Does unanimous acceptance single out exactly the integer core?

    Core points are always unanimously acceptable (no coalition runs a
    surplus over them), so the report only ever lists violations in one
    direction: accepted vectors outside the core.  Families containing a
    coalition without the owning player are tolerated (they cannot block)
    but flagged, since they fall outside the characterization hypothesis.
    """
    warnings = []
    for i in range(1, game.n + 1):
        for s in profile.family(i):
            if i not in s:
                warnings.append(f"player {i} tracks {s} but is not a member")
    unanimous = unanimous_acceptance_set(game, profile)
    core = frozenset(enumerate_integer_core(game))
    violations = tuple(sorted(unanimous - core, key=lambda v: v.entries))
    missing = core - unanimous
    assert not missing, f"core point rejected: {sorted(missing)[0].entries}"
    return ProfileReport(game_id(game), profile, not violations,
                         violations, tuple(warnings))


def counterexample_game(n: int, missing: Coalition) -> tuple[TUGame, PayoffVector]:
    """The game defeating every profile in which `missing` is known by no
    member: worth n for the grand coalition and for `missing`, zero
    elsewhere.  The returned proposal is outside the core yet acceptable
    to every player who does not know `missing`.
    """
    if not missing.members:
        raise InvalidInputError("missing coalition must be nonempty")
    if missing.members[-1] > n:
        raise InvalidInputError(f"coalition {missing} exceeds the player set 1..{n}")
    worths = {c: (n if c == missing or len(c.members) == n else 0)
              for c in all_coalitions(n)}
    game = TUGame.from_values(n, worths)
    if len(missing.members) == n:
        x = PayoffVector.of(*([0] * n))
    else:
        x = PayoffVector.of(*([1] * n))
    return game, x


def profile_survey(game: TUGame, profiles: Iterable[KnowledgeProfile]) -> list[ProfileReport]:
    """One report per profile, refused before the first verdict when the
    survey could ask for more than MAX_SURVEY_VERDICTS of them."""
    profiles = tuple(profiles)
    proposals = comb(game.v(game.grand) + game.n, game.n)
    verdicts = len(profiles) * proposals * game.n
    if verdicts > MAX_SURVEY_VERDICTS:
        raise UnsupportedSizeError(
            f"surveying {len(profiles):,} profiles x {proposals:,} proposals x "
            f"{game.n} players takes up to {verdicts:,} verdicts; surveys are "
            f"guarded to {MAX_SURVEY_VERDICTS:,}")
    return [characterizes_core(game, p) for p in profiles]


def member_profiles(n: int) -> tuple[KnowledgeProfile, ...]:
    """All profiles in which players only track coalitions they belong to,
    refused before any is built when there are more than MAX_PROFILES."""
    # each player tracks any subset of its 2^(n-1) coalitions
    bits = n * 2 ** (n - 1)
    if 2 ** bits > MAX_PROFILES:
        raise UnsupportedSizeError(
            f"{n} players have 2^{bits:,} member profiles; they are listed "
            f"up to {MAX_PROFILES:,}")
    per_player = []
    for i in range(1, n + 1):
        own = [s for s in all_coalitions(n) if i in s]
        per_player.append([tuple(sorted(f))
                           for size in range(len(own) + 1)
                           for f in itertools.combinations(own, size)])
    return tuple(KnowledgeProfile(fams)
                 for fams in itertools.product(*per_player))


def irrelevance_invariance(game: TUGame, i: int, family: Iterable[Coalition],
                           coalition: Coalition) -> bool:
    """Adding a coalition the player does not belong to never flips a
    verdict.  Checked over every proposal of the 1/n grid with sum at most
    v(N), which holds every integer proposal."""
    family = normalize_family(family, game.n)
    if i in coalition:
        raise InvalidInputError(f"player {i} belongs to {coalition}; not irrelevant")
    if coalition in family:
        raise InvalidInputError(f"{coalition} is already tracked")
    extended = normalize_family(family + (coalition,), game.n)
    n = game.n
    xs = [PayoffVector.from_units(u, n) for u in grid_units(n, n * game.v(game.grand))]
    return all(decide(game, i, family, x).acceptable
               == decide(game, i, extended, x).acceptable for x in xs)


# ---------------------------------------------------------------------------
# balanced families


@dataclass(frozen=True)
class BalancedFamily:
    """A family of coalitions with exact weights balancing every player."""

    n: int
    family: tuple[Coalition, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.family) != len(self.weights):
            raise InvalidInputError("one weight per coalition required")
        for i in range(1, self.n + 1):
            share = sum((w for s, w in zip(self.family, self.weights) if i in s),
                        Fraction(0))
            if share != 1:
                raise InvalidInputError(
                    f"weights do not balance player {i} (got {share})")
        for w in self.weights:
            if not 0 <= w <= 1:
                raise InvalidInputError(f"weight {w} outside [0,1]")


def _solve_full_rank(cols: list[tuple[int, ...]], n: int) -> Optional[tuple[Fraction, ...]]:
    """Solve sum_j m[i][j] * x[j] = 1 (i = 1..n) for a full-column-rank 0/1
    matrix given column-wise; None when inconsistent or rank-deficient."""
    k = len(cols)
    rows = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(1)]
            for i in range(n)]
    pivot_cols = []
    r = 0
    for c in range(k):
        pivot = next((rr for rr in range(r, n) if rows[rr][c] != 0), None)
        if pivot is None:
            return None  # rank-deficient: a smaller support covers this case
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for rr in range(n):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[r])]
        pivot_cols.append(c)
        r += 1
    for rr in range(r, n):
        if rows[rr][k] != 0:
            return None  # inconsistent
    sol = [Fraction(0)] * k
    for rr, c in enumerate(pivot_cols):
        sol[c] = rows[rr][k]
    return tuple(sol)


def is_balanced(n: int, family: Iterable[Coalition]) -> Optional[dict[Coalition, Fraction]]:
    """Exact weights witnessing balancedness, or None.

    Searches basic solutions: if any nonnegative weights exist, some
    full-rank support of at most n coalitions carries them.  Unused
    coalitions get weight zero.
    """
    fam = normalize_family(family, n)
    if not fam:
        raise InvalidInputError("family must be nonempty")
    incidence = {s: tuple(1 if i in s else 0 for i in range(1, n + 1)) for s in fam}
    for size in range(1, min(n, len(fam)) + 1):
        for support in itertools.combinations(fam, size):
            sol = _solve_full_rank([incidence[s] for s in support], n)
            if sol is not None and all(w >= 0 for w in sol):
                weights = {s: Fraction(0) for s in fam}
                weights.update(dict(zip(support, sol)))
                return weights
    return None


def _enumerate_minimal(n: int) -> tuple[BalancedFamily, ...]:
    """Vertices of the balancedness polytope: full-rank supports of at most
    n coalitions whose unique solution is strictly positive."""
    coalitions = all_coalitions(n)
    incidence = {s: tuple(1 if i in s else 0 for i in range(1, n + 1))
                 for s in coalitions}
    found = []
    for size in range(1, n + 1):
        for support in itertools.combinations(coalitions, size):
            sol = _solve_full_rank([incidence[s] for s in support], n)
            if sol is not None and all(w > 0 for w in sol):
                found.append(BalancedFamily(
                    n, support, tuple(Fraction(w) for w in sol)))
    found.sort(key=lambda b: (len(b.family), tuple(s.canonical_key for s in b.family)))
    return tuple(found)


@lru_cache(maxsize=None)
def minimal_balanced_families(n: int) -> tuple[BalancedFamily, ...]:
    """All minimal balanced families (unique, strictly positive weights),
    enumerated by the solver for 1 <= n <= 4."""
    if not 1 <= n <= 4:
        raise UnsupportedSizeError(
            f"minimal balanced family enumeration supports 1 <= n <= 4, got {n}")
    return _enumerate_minimal(n)


def bondareva_shapley_nonempty(game: TUGame) -> bool:
    """Core nonemptiness via the balanced-cover conditions: for every
    minimal balanced family, the weighted worths must not exceed v(N)."""
    if game.n > 4:
        raise UnsupportedSizeError(
            f"balancedness test supports up to 4 players, got {game.n}")
    vn = game.v(game.grand)
    for b in minimal_balanced_families(game.n):
        total = sum((w * game.v(s) for s, w in zip(b.family, b.weights)),
                    Fraction(0))
        if total > vn:
            return False
    return True


# ---------------------------------------------------------------------------
# balanced knowledge and core acceptance


def prop51_check(game: TUGame) -> bool:
    """True iff the balanced-knowledge hypothesis implies a nonempty core on
    this game, as it always should.

    The hypothesis: every minimal balanced family, once each coalition is
    assigned to its lowest-indexed member, who tracks it, leaves some
    integer proposal with sum at most v(N) unanimously acceptable.
    """
    if game.n > 4:
        raise UnsupportedSizeError(
            f"balanced-knowledge check supports up to 4 players, got {game.n}")
    for b in minimal_balanced_families(game.n):
        fams: dict = {}
        for s in b.family:
            fams.setdefault(s.members[0], []).append(s)
        if not unanimous_acceptance_set(game, KnowledgeProfile.of(game.n, fams)):
            return True
    return bondareva_shapley_nonempty(game)
