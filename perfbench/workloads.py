"""The benchmark's four workloads.

Each workload turns the seed into a pool of *rounds* of plain inputs.
`run_round(runner, r)` runs round `r` of the pool (wrapping around) one
timed call at a time through `Runner.op`, a closed loop with one client.
After the timed loop, `check` compares the recorded outputs with
expectations that do not come from epicore itself: pinned counts, the
raw-integer surplus rule, and the oracles in tests/_oracles.py.  A traced
run always runs the first `TRACE_ROUNDS` rounds, so its per-round counts
repeat exactly for a given seed.

Importing this module imports epicore: the worker puts the checkout's
src/ first on sys.path before it does.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import sys
from fractions import Fraction
from time import perf_counter

from epicore import _sweep, acceptability, analysis, cli, logic, replica
from epicore.acceptability import KnowledgeProfile
from epicore.analysis import bondareva_shapley_nonempty, profile_survey
from epicore.errors import EpicoreError
from epicore.games import Coalition, TUGame
from epicore.jsonio import dump_json
from epicore.replica import (
    Allocation,
    EdgeworthEconomy,
    ReplicaEconomy,
    effective_coalitions,
    grid_core,
    partial_knowledge_witness,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a failed op's output: it raised MemoryError or one of epicore's errors
FAILED = object()
OP_ERRORS = (MemoryError, EpicoreError)


class Workload:
    """Defaults for the figures a workload may add to its results."""

    def counts(self) -> dict:
        """Totals that must repeat exactly, for per-round per-layer metrics."""
        return {}

    def extras(self) -> dict:
        """Figures printed with the result but not in the JSON result line."""
        return {}


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    """`_sweep.verify_all_queries(n=2, max_worth=3)`: decide, build the
    knowledge set, emit and kernel-check every query class of the first
    four worth groups of criterion 3.  Exhaustive, so the seed is unused
    and the pool holds one round.  One op is one query class; its latency
    is the time from the previous class's check to its own."""

    TRACE_ROUNDS = 1
    EXPECT = {"games": 64, "queries": 12800, "classes": 4880}

    def __init__(self, seed: int, workdir: str):
        self.passes: list = []

    def run_round(self, runner, r: int) -> None:
        ends: list = []
        inner = _sweep._check_class

        def clocked(*args):
            inner(*args)
            ends.append(perf_counter())

        _sweep._check_class = clocked
        try:
            stats = runner.op("sweep", _sweep.verify_all_queries, n=2, max_worth=3)
        finally:
            _sweep._check_class = inner
        if stats is FAILED:
            self.passes.append(None)
            return
        runner.split_last(ends)
        self.passes.append({"games": stats.games, "queries": stats.queries,
                            "classes": stats.classes, "ok": stats.ok,
                            "verdicts": stats.acceptable + stats.unacceptable})

    def check(self) -> list:
        bad = []
        for p in self.passes:
            if p is None:
                bad.append((1, "sweep pass raised"))
                continue
            got = {k: p[k] for k in self.EXPECT}
            if got != self.EXPECT or not p["ok"] or p["verdicts"] != p["classes"]:
                # every class of the pass counts as failed
                bad.append((max(p["classes"], 1), f"sweep counts {p}"))
        return bad

    def counts(self) -> dict:
        done = [p for p in self.passes if p is not None]
        return {"sweep.classes": sum(p["classes"] for p in done),
                "sweep.queries": sum(p["queries"] for p in done)}


# ---------------------------------------------------------------------------
# prove -> check round trip


def surplus_accepts(worth: dict, i: int, family, units) -> bool:
    """Player i rejects exactly when a known coalition containing i gets
    less than its worth; proposals are in units of 1/n."""
    n = len(units)
    for key in family:
        members = [int(p) for p in key.split(",")]
        if i in members and sum(units[p - 1] for p in members) < n * worth[key]:
            return False
    return True


def draw_query(rng) -> tuple:
    """One roundtrip query: a two-player game with worths 0..2, a player,
    a family (each coalition known with probability 1/2) and a proposal
    drawn uniformly from the grid of units of 1/2 with sum at most v(N)."""
    worth = {k: rng.randint(0, 2) for k in Roundtrip.KEYS}
    i = rng.randint(1, 2)
    family = tuple(k for k in Roundtrip.KEYS if rng.random() < 0.5)
    cap = 2 * worth["1,2"]
    units = rng.choice([(a, b) for a in range(cap + 1) for b in range(cap + 1 - a)])
    return worth, i, family, units


class Roundtrip(Workload):
    """`cli.main(["prove", ...])` then `cli.main(["check", ...])`, in
    process, on two-player games with worths <= 2 at the fixed bound 3.
    One op is one prove+check pair.  A round is four acceptable and three
    rejected queries, A R A R A R A, all distinct across the pool.  The
    round's share of 4/7 stands for the accept share of `draw_query`,
    0.565 over 200,000 draws (selftest.py checks it).  An accepted query
    costs about eight times a rejected one, so the share is fixed per round
    rather than left to the seed.  Each op starts from cold interning
    caches, as a fresh `epicore prove` process would."""

    TRACE_ROUNDS = 1
    POOL = 4
    BOUND = 3
    PATTERN = (True, False, True, False, True, False, True)
    KEYS = ("1", "2", "1,2")

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        need = {v: self.POOL * self.PATTERN.count(v) for v in (True, False)}
        pools: dict = {True: [], False: []}
        seen = set()
        while any(len(pools[v]) < need[v] for v in pools):
            worth, i, family, units = draw_query(rng)
            key = (tuple(worth.values()), i, family, units)
            verdict = surplus_accepts(worth, i, family, units)
            if key in seen or len(pools[verdict]) >= need[verdict]:
                continue
            seen.add(key)
            pools[verdict].append((worth, i, family, units))
        self.proof_path = os.path.join(workdir, "proof.json")
        self.rounds = []
        for r in range(self.POOL):
            queries = []
            for verdict in self.PATTERN:
                worth, i, family, units = pools[verdict].pop()
                game_path = os.path.join(workdir, f"game{r}-{len(queries)}.json")
                dump_json({"players": 2, "bound": self.BOUND, "v": worth}, game_path)
                x = ",".join(str(Fraction(u, 2)) for u in units)
                argv = ["prove", game_path, "-i", str(i), "-K", ";".join(family),
                        "-x", x, "-o", self.proof_path]
                queries.append((argv, verdict))
            self.rounds.append(queries)
        self.results: list = []

    def _pair(self, tracer, argv):
        rc1, out1 = _run_cli(tracer, "cli.prove", argv)
        size = os.path.getsize(self.proof_path) if rc1 == 0 else 0
        rc2, out2 = _run_cli(tracer, "cli.check", ["check", self.proof_path])
        return rc1, out1, rc2, out2, size

    def run_round(self, runner, r: int) -> None:
        for argv, verdict in self.rounds[r % self.POOL]:
            acceptability._purge_spaces()
            out = runner.op("bench.roundtrip", self._pair, runner.tracer, argv)
            self.results.append((argv, verdict, out))

    def check(self) -> list:
        bad = []
        for argv, verdict, out in self.results:
            if out is FAILED:
                bad.append((1, f"{argv}: raised"))
                continue
            rc1, out1, rc2, out2, _ = out
            want = "verdict: " + ("Accept" if verdict else "Reject")
            nodes = re.search(r"^nodes: (\d+)$", out1, re.M)
            checked = re.search(r"(\d+) node\(s\)$", out2, re.M)
            ok = (rc1 == 0 and rc2 == 0 and want in out1.splitlines()
                  and nodes is not None and checked is not None
                  and nodes.group(1) == checked.group(1))
            if not ok:
                bad.append((1, f"{argv}: exit {rc1}/{rc2}, want {want!r}, "
                               f"got {out1!r} / {out2!r}"))
        return bad

    def extras(self) -> dict:
        sizes = [out[4] for _, _, out in self.results if out is not FAILED]
        return {"proof_bytes_per_op": sum(sizes) / len(sizes) if sizes else 0.0}


def _run_cli(tracer, span: str, argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tracer.call(span, cli.main, argv)
    return rc, out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# replica cores and witnesses


class Replica(Workload):
    """For D = 1..8 at k = 2: `grid_core` with the effective family and
    with the near-balanced triples withheld (criterion 9), then
    `partial_knowledge_witness` on every allocation of the triples-withheld
    core and on a seeded sample of feasible allocations, half of them with
    unequal treatment of copies; each round of the pool draws its own
    sample.  One op is one public replica call."""

    TRACE_ROUNDS = 4
    POOL = 12
    K = 2
    DENOMINATORS = range(1, 9)
    SAMPLE = 8
    # (effective family, triples withheld) grid core sizes at k = 2, as
    # tests/_oracles.py::brute_grid_core computes them; selftest.py
    # re-derives the small ones
    CORE_SIZES = {1: (6, 6), 2: (1, 1), 3: (6, 8), 4: (1, 15),
                  5: (8, 20), 6: (1, 15), 7: (8, 22), 8: (1, 29)}

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.no_triples = [s for s in effective_coalitions(self.K) if len(s) != 3]
        self.economies = {den: ReplicaEconomy(EdgeworthEconomy(den), self.K)
                          for den in self.DENOMINATORS}
        self.samples = [{den: [_allocation(rng, den, equal=(j % 2 == 0))
                               for j in range(self.SAMPLE)]
                         for den in self.DENOMINATORS}
                        for _ in range(self.POOL)]
        self.cores: list = []
        self.witnesses: list = []

    def run_round(self, runner, r: int) -> None:
        samples = self.samples[r % self.POOL]
        for den, economy in self.economies.items():
            core = runner.op("replica.grid_core", grid_core, economy)
            partial = runner.op("replica.grid_core", grid_core, economy,
                                coalitions=self.no_triples)
            self.cores.append((den, core, partial))
            if core is FAILED or partial is FAILED:
                continue
            for a in sorted(partial, key=lambda a: a.bundles) + samples[den]:
                w = runner.op("replica.witness", partial_knowledge_witness, economy, a)
                self.witnesses.append((den, a, a in core, w))

    def check(self) -> list:
        bad = []
        for den, core, partial in self.cores:
            for got, want in zip((core, partial), self.CORE_SIZES[den]):
                if got is FAILED or len(got) != want:
                    bad.append((1, f"D={den}: grid core size "
                                   f"{'raised' if got is FAILED else len(got)}, want {want}"))
        for den, a, member, w in self.witnesses:
            if w is FAILED or (w is None) != member:
                bad.append((1, f"D={den} {a!r}: witness {w!r}, core member {member}"))
        return bad

    def counts(self) -> dict:
        return {"replica.core_size": sum(len(c) for _, core, partial in self.cores
                                         for c in (core, partial) if c is not FAILED)}


def _composition(rng, total: int, parts: int) -> list:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _allocation(rng, den: int, equal: bool) -> Allocation:
    """A feasible k = 2 allocation on the 1/den grid: bundles sum to the
    total endowment (2, 2).  `equal` gives both copies of a type the same
    bundle; otherwise the four bundles are drawn independently."""
    if equal:
        a, b = rng.randint(0, den), rng.randint(0, den)
        units = [(a, b), (a, b), (den - a, den - b), (den - a, den - b)]
    else:
        units = list(zip(_composition(rng, 2 * den, 4), _composition(rng, 2 * den, 4)))
    return Allocation([(Fraction(u, den), Fraction(v, den)) for u, v in units])


# ---------------------------------------------------------------------------
# knowledge-profile survey


N3_KEYS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))


def _member_profiles() -> list:
    """Every three-player profile in which players only know coalitions
    they belong to, as tuples of families of member tuples."""
    per_player = []
    for i in (1, 2, 3):
        own = [s for s in N3_KEYS if i in s]
        per_player.append([f for r in range(len(own) + 1)
                           for f in itertools.combinations(own, r)])
    return list(itertools.product(*per_player))


def _effective(profile) -> set:
    return {s for i, fam in enumerate(profile, start=1) for s in fam if i in s}


def _coalition_sum(x, s) -> int:
    return sum(x[p - 1] for p in s)


def raw_violations(values: tuple, effective) -> set:
    """Criterion 4 with raw integers: integer proposals every player
    accepts under the surplus rule, minus the integer core."""
    worth = dict(zip(N3_KEYS, values))
    vn = worth[(1, 2, 3)]
    out = set()
    for x in itertools.product(range(vn + 1), repeat=3):
        if sum(x) > vn:
            continue
        accepted = all(_coalition_sum(x, s) >= worth[s] for s in effective)
        in_core = sum(x) == vn and all(_coalition_sum(x, s) >= v for s, v in worth.items())
        if accepted and not in_core:
            out.add(x)
    return out


class Survey(Workload):
    """Seeded three-player games with worths <= 4.  One op is one game:
    `bondareva_shapley_nonempty` plus `profile_survey` over a uniform
    sample of 32 of its 4,096 member profiles (189 of them, 4.6%, cover
    every coalition).  A round is five games, one for each grand-coalition
    worth 0..4 in seeded order, because the cost of a game grows with the
    number of proposals below v(N)."""

    TRACE_ROUNDS = 36
    POOL = 120
    PROFILES = 32

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        profiles = _member_profiles()
        known = {p: KnowledgeProfile.of(3, [[Coalition(s) for s in fam] for fam in p])
                 for p in profiles}
        self.rounds = []
        for _ in range(self.POOL):
            grand = list(range(5))
            rng.shuffle(grand)
            games = []
            for vn in grand:
                values = tuple(rng.randint(0, 4) for _ in range(6)) + (vn,)
                raw = rng.sample(profiles, self.PROFILES)
                game = TUGame.from_values(
                    3, {",".join(map(str, s)): v for s, v in zip(N3_KEYS, values)})
                games.append((values, raw, game, [known[p] for p in raw]))
            self.rounds.append(games)
        self.results: list = []

    @staticmethod
    def _game(tracer, game, profiles):
        nonempty = tracer.call("analysis.bondareva", bondareva_shapley_nonempty, game)
        reports = tracer.call("analysis.survey", profile_survey, game, profiles)
        return nonempty, reports

    def run_round(self, runner, r: int) -> None:
        for case in self.rounds[r % self.POOL]:
            out = runner.op("bench.survey", self._game, runner.tracer, case[2], case[3])
            self.results.append((case, out))

    def check(self) -> list:
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        try:
            from _oracles import rational_core_nonempty
        finally:
            sys.path.pop(0)
        bad = []
        for (values, raw, _, _), out in self.results:
            if out is FAILED:
                bad.append((1, f"game {values}: raised"))
                continue
            nonempty, reports = out
            worth = {frozenset(s): v for s, v in zip(N3_KEYS, values)}
            problems = []
            if nonempty != rational_core_nonempty(3, worth):
                problems.append(f"core nonempty {nonempty} disagrees with the oracle")
            if len(reports) != len(raw):
                problems.append(f"{len(reports)} reports for {len(raw)} profiles")
            for profile, report in zip(raw, reports):
                effective = _effective(profile)
                want = raw_violations(values, effective)
                got = {tuple(int(e) for e in v.entries) for v in report.violations}
                if len(effective) == len(N3_KEYS) and not report.characterizes_core:
                    problems.append(f"covering profile {profile} misses the core")
                if got != want or report.characterizes_core != (not want):
                    problems.append(f"profile {profile}: violations {sorted(got)}, "
                                    f"surplus rule gives {sorted(want)}")
            if problems:
                bad.append((1, f"game {values}: {problems[0]}"))
        return bad


WORKLOADS = {"sweep": Sweep, "roundtrip": Roundtrip, "replica": Replica,
             "survey": Survey}


# ---------------------------------------------------------------------------
# traced run: rebind each caller module's own name for the callee


def instrument(tracer) -> None:
    """Wrap the entry points each layer is reached through.  Recursive
    `check_proof` is wrapped where it is called from outside the kernel,
    so it is timed once per top-level call; the checks `_Emitter` runs
    while building a proof go through `acceptability.check_proof` and are
    charged to the kernel, not to emission."""
    counts = tracer.counts

    def proof_nodes(result, args, kwargs):
        counts["logic.proof_nodes"] += args[0].size()

    def gamma_size(result, args, kwargs):
        counts["acceptability.gamma_size"] += len(result)

    def bytes_written(result, args, kwargs):
        counts["jsonio.bytes_written"] += os.path.getsize(args[1])

    patch = tracer.patch
    for module in (_sweep, acceptability, analysis, cli):
        patch(module, "decide", "acceptability.decide")
    patch(_sweep, "check_proof", "logic.check", after=proof_nodes)
    patch(acceptability, "check_proof", "logic.check")
    patch(replica, "check_proof", "logic.check", after=proof_nodes)
    patch(cli, "check_proof", "logic.check_reloaded", after=proof_nodes)
    patch(acceptability, "gamma", "acceptability.gamma", after=gamma_size)
    patch(acceptability._Emitter, "acceptable_proof", "acceptability.emit")
    patch(acceptability._Emitter, "unacceptable_proof", "acceptability.emit")
    patch(analysis, "enumerate_integer_core", "games.integer_core")
    patch(cli, "proof_to_obj", "jsonio.serialize")
    patch(cli, "dump_json", "jsonio.serialize", after=bytes_written)
    for name in ("load_game", "load_json", "proof_from_obj"):
        patch(cli, name, "jsonio.parse")
    tracer.count(logic.ChainCache, "get", "logic.cache", hit=lambda r: r is not None)
