"""Exhaustive verdict and proof verification over small game classes.

Called by the tests (criterion 3 of the acceptance suite) and by the
`sweep` workload of `perfbench/`; no command-line path reaches it (the CLI's
`verify` surveys knowledge profiles in `analysis`).  The key economy: a
query's verdict and proof depend on the game only through the grid bound
and the worths of the coalitions in the queried family, so queries are
deduplicated by that signature and proofs are emitted once per class.
Games are processed in groups sharing one grid bound; interning tables are
dropped between groups to keep memory flat.

Proof trees and interning tables hold no reference cycles, so the cyclic
garbage collector would only walk the group's tables again and again
without freeing anything.  The sweep pauses it while a group runs,
collects once at each group boundary after the tables are dropped, and
restores the caller's collector state when it returns or raises.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass, field

from .acceptability import _atom_space, _Emitter, _purge_spaces, decide
from .errors import VerificationFailure
from .games import PayoffVector, TUGame, all_coalitions, grid_units
from .logic import Not, check_proof, collector_paused


@dataclass
class SweepStats:
    games: int = 0
    queries: int = 0
    classes: int = 0
    acceptable: int = 0
    unacceptable: int = 0
    seconds: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_class(emitter: _Emitter, space, i, xu, verdict, stats, label):
    """Emit the proof for one query class, confirm polarity and validity."""
    if verdict.acceptable:
        proof = emitter.acceptable_proof(xu)
        stats.acceptable += 1
    else:
        proof = emitter.unacceptable_proof(xu, verdict.coalition,
                                           verdict.vector.units())
        stats.unacceptable += 1

    # polarity must match the verdict: C for acceptable, not-C for not
    succ = proof.sequent.succ
    want_or = space.big_or(i, xu)
    shape_ok = len(succ) == 1
    if shape_ok:
        f = next(iter(succ))
        if verdict.acceptable:
            shape_ok = isinstance(f, Not) and f.child is want_or
        else:
            shape_ok = (isinstance(f, Not) and isinstance(f.child, Not)
                        and f.child.child is want_or)
    if not shape_ok:
        stats.failures.append(f"{label}: proof root does not state the verdict")
        return

    # the emitter's cache vouches for the subtrees its proofs share
    res = check_proof(proof, emitter.cache)
    if not res.ok:
        stats.failures.append(f"{label}: proof rejected at {res.path}: {res.reason}")


def _verify_group(n: int, top: int, coalitions, families, stats: SweepStats):
    """All games whose maximum worth is exactly `top`: one grid bound."""
    emitters: dict = {}
    seen: set = set()
    space = _atom_space(n, 2 * top + 1)
    for worths in itertools.product(range(top + 1), repeat=len(coalitions)):
        if max(worths) != top:
            continue
        game = TUGame.from_values(
            n, {c: w for c, w in zip(coalitions, worths)})
        stats.games += 1
        xs = [(PayoffVector.from_units(u, n), u)
              for u in grid_units(n, n * game.v(game.grand))]
        for i in range(1, n + 1):
            for family in families:
                fam_worths = tuple(game.v(s) for s in family)
                ekey = (i, family, fam_worths)
                for x, xu in xs:
                    stats.queries += 1
                    if (ekey, xu) in seen:
                        continue
                    seen.add((ekey, xu))
                    stats.classes += 1
                    verdict = decide(game, i, family, x)
                    emitter = emitters.get(ekey)
                    if emitter is None:
                        # worths off the family never matter; anchor the
                        # grid with an explicit bound
                        canon = TUGame.from_values(
                            n, {c: (game.v(c) if c in family else 0)
                                for c in coalitions},
                            bound=game.bound)
                        emitter = emitters[ekey] = _Emitter(canon, i, family)
                    _check_class(emitter, space, i, xu, verdict, stats,
                                 f"top={top} i={i} family={family} "
                                 f"worths={fam_worths} x={xu}")


def verify_all_queries(n: int = 2, max_worth: int = 6) -> SweepStats:
    """Run decide+emit+check over every query on every game with integer
    worths in [0, max_worth]: all players, all knowledge families, all grid
    proposals with sum at most the grand worth.

    Stops after the first group of games (one top worth) with failures and
    raises VerificationFailure on them.
    """
    stats = SweepStats()
    t0 = time.perf_counter()
    coalitions = all_coalitions(n)
    families = [tuple(sorted(fam))
                for size in range(len(coalitions) + 1)
                for fam in itertools.combinations(coalitions, size)]

    with collector_paused():
        for top in range(max_worth + 1):
            _verify_group(n, top, coalitions, families, stats)
            _purge_spaces()
            gc.collect()
            if stats.failures:
                break
    stats.seconds = time.perf_counter() - t0
    if stats.failures:
        raise VerificationFailure(
            f"{len(stats.failures)} of {stats.classes} query classes failed; "
            f"first: {stats.failures[0]}")
    return stats
