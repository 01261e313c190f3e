"""One workload run in a process of its own.

`run.py` starts this script with a JSON configuration as its only
argument and reads the JSON object it prints as its last line.  The
process caps its own address space first, then imports epicore from the
checkout and builds the workload's inputs (the set-up time), then runs
whole rounds of the workload one op at a time and checks the outputs
after the timed loop.

Modes:
  setup    build the inputs, report the set-up time and stop;
  measure  also run rounds while another round is expected to end inside
           `seconds`, and until `min_ops` ops ran;
  fixed    also run the workload's first TRACE_ROUNDS rounds.
With `trace` on, the calls into each layer are recorded as spans and
summarized per round.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Runner:
    """Times one op at a time and keeps one latency sample per op."""

    def __init__(self, tracer, failed, op_errors):
        self.tracer = tracer
        self.failed = failed
        self.op_errors = op_errors
        self.latencies: list = []
        self.units = 0
        self.errors: list = []
        self._start = 0.0

    def op(self, span, fn, *args, **kwargs):
        self.tracer.begin_op()
        self._start = t0 = perf_counter()
        try:
            out = self.tracer.call(span, fn, *args, **kwargs)
        except self.op_errors as e:
            out = self.failed
            self.errors.append(f"{span}: {type(e).__name__}: {e}")
        self.latencies.append(perf_counter() - t0)
        self.units += 1
        return out

    def split_last(self, ends: list) -> None:
        """Replace the last op's sample by one sample per sub-op, given
        the times at which the sub-ops finished."""
        if not ends:
            return
        self.latencies.pop()
        prev = self._start
        for t in ends:
            self.latencies.append(t - prev)
            prev = t
        self.units += len(ends) - 1


def latency_summary(samples: list) -> dict:
    """Median, and the tail: the mean latency of the slowest 1% of ops,
    of the slowest eleven when 1% is fewer, but of no more than the
    slowest tenth (undefined below eleven samples).  A mean over the tail
    rather than one sample at a percentile, because on `sweep` each of the
    slowest samples is one garbage-collector pause whose length alone
    swings by a third between identical runs."""
    s = sorted(samples)
    out = {"op_samples": len(s), "op_p50_ms": median(s) * 1e3 if s else None,
           "op_tail_ms": None, "op_tail_percentile": None}
    if len(s) >= 11:
        k = max(math.ceil(len(s) / 100), min(11, math.ceil(len(s) / 10)))
        out["op_tail_ms"] = sum(s[-k:]) / k * 1e3
        out["op_tail_percentile"] = 100.0 * (len(s) - k) / len(s)
    return out


def layer_metrics(tracer, workload, rounds: int, wall: float) -> dict:
    """Per-layer figures of a traced run, per round."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / rounds

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / rounds

    out = {}
    for name in ("acceptability.emit", "acceptability.decide", "acceptability.gamma",
                 "logic.check", "replica.grid_core", "replica.witness",
                 "games.integer_core", "analysis.bondareva"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    for name in ("sweep", "logic.check_reloaded", "jsonio.serialize", "jsonio.parse",
                 "cli.prove", "cli.check", "analysis.survey", "trace.bookkeeping"):
        out[name + ".self_s"] = self_s(name)
    gammas = totals.get("acceptability.gamma", (0,))[0]
    out["acceptability.gamma_size"] = (counts["acceptability.gamma_size"] / gammas
                                       if gammas else 0.0)
    lookups = counts["logic.cache"]
    out["logic.cache_hit_ratio"] = counts["logic.cache.hits"] / lookups if lookups else 0.0
    out["logic.proof_nodes"] = counts["logic.proof_nodes"] / rounds
    out["jsonio.bytes_written"] = counts["jsonio.bytes_written"] / rounds
    base = {"sweep.classes": 0, "sweep.queries": 0, "replica.core_size": 0}
    base.update(workload.counts())
    out.update({k: v / rounds for k, v in base.items()})
    out["trace.self_share"] = sum(row[1] for row in totals.values()) / wall
    return out


def main(argv: list) -> int:
    cfg = json.loads(argv[1])
    cap = cfg["memory_cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # imports epicore

    import epicore
    if os.path.dirname(os.path.abspath(epicore.__file__)) != os.path.join(SRC, "epicore"):
        print(f"error: imported epicore from {epicore.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], workdir)
        setup_s = perf_counter() - t0
        result = {"setup_s": setup_s}
        if cfg["mode"] != "setup":
            result.update(measure(cfg, workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(cfg: dict, workload) -> dict:
    from tracer import NullTracer, Tracer
    from workloads import FAILED, OP_ERRORS, instrument

    tracer = Tracer() if cfg["trace"] else NullTracer()
    if cfg["trace"]:
        instrument(tracer)
    runner = Runner(tracer, FAILED, OP_ERRORS)
    fixed = cfg["mode"] == "fixed"
    rounds = 0
    rates = []      # ops per second of each round
    start = perf_counter()
    while True:
        units, t0 = runner.units, perf_counter()
        workload.run_round(runner, rounds)
        rates.append((runner.units - units) / (perf_counter() - t0))
        rounds += 1
        elapsed = perf_counter() - start
        if fixed:
            if rounds >= workload.TRACE_ROUNDS:
                break
        elif (runner.units >= cfg["min_ops"]
              and elapsed + elapsed / rounds > cfg["seconds"]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if cfg["trace"]:
        tracer.restore()

    bad = workload.check()
    failed = sum(units for units, _ in bad)
    out = {"rounds": rounds, "elapsed_s": elapsed, "attempted": runner.units,
           "failed": failed,
           "ops_per_s": median(rates), "peak_rss_mb": peak_rss_mb,
           "messages": (runner.errors + [m for _, m in bad])[:5]}
    out.update(latency_summary(runner.latencies))
    out.update(workload.extras())
    if cfg["trace"]:
        out["layers"] = layer_metrics(tracer, workload, rounds, elapsed)
        tracer.write_jsonl(cfg["trace_file"])
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
