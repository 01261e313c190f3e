"""epicore benchmark: one workload per invocation, or all four.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  sweep      decide -> knowledge set -> emit -> in-memory kernel check over
             the first four worth groups of criterion 3;
  roundtrip  `epicore prove` then `epicore check`, in process;
  replica    replica grid cores and partial-knowledge witnesses at k = 2;
  survey     balancedness and knowledge-profile surveys of 3-player games.

Every workload runs in child processes of its own, one op at a time.
With --trace 0 the run measures the end-to-end metrics: set-up time is the
median over eleven children: ten that only set up, half of them before the
measuring one and half after it, plus the measuring one.
With --trace 1 it runs a fixed number of rounds of the workload untraced,
then the same rounds traced, and reports per-layer figures per round plus
the tracing overhead.  Outputs are checked after the timed loop; a wrong
output counts as a failed op and makes the exit code 1.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric by name with its unit, the environment, and extra figures.
Results and span traces are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "roundtrip", "replica", "survey")

SETUP_CHILDREN = 10     # half before the measuring child, half after
MIN_OPS = 11            # so op_tail_ms averages more than one op
MEMORY_CAP_MB = 3072    # RLIMIT_AS of each workload child
DEADLINE_MARGIN_S = 150.0  # set-up children and one overshooting round

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
# printed, not part of the JSON result line: see README.md
EXTRA = ("rounds", "elapsed_s", "op_samples", "op_tail_percentile", "proof_bytes_per_op")
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "gamma_size": "formulas",
                   "cache_hit_ratio": "ratio", "proof_nodes": "count",
                   "bytes_written": "bytes", "core_size": "count",
                   "classes": "count", "queries": "count",
                   "self_share": "ratio", "trace_overhead": "ratio"}


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "epicore")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def child(cfg: dict, deadline: float) -> dict:
    cfg = dict(cfg, memory_cap_mb=MEMORY_CAP_MB)
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(cfg)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['workload']} child exceeded its time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{cfg['workload']} child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def deadline_after(seconds: int) -> float:
    """When one workload's children must all have ended."""
    return time.monotonic() + seconds + DEADLINE_MARGIN_S


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = deadline_after(seconds)
    base = {"workload": name, "seed": seed, "mode": "measure", "trace": False,
            "min_ops": MIN_OPS, "seconds": seconds}
    if not trace:
        def setup_only():
            return child(dict(base, mode="setup"), deadline)["setup_s"]

        # spread over the run, so one slow spell of the host weighs less
        setups = [setup_only() for _ in range(SETUP_CHILDREN // 2)]
        run = child(base, deadline)
        setups.append(run["setup_s"])
        setups += [setup_only() for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
        metrics = {k: run[k] for k, _ in END_TO_END}
        metrics["setup_s"] = median(setups)
        units = dict(END_TO_END)
        runs = [run]
    else:
        os.makedirs(OUT, exist_ok=True)
        plain = child(dict(base, mode="fixed"), deadline)
        traced = child(dict(base, mode="fixed", trace=True,
                            trace_file=os.path.join(OUT, f"{name}.trace.jsonl")),
                       deadline)
        metrics = dict(traced["layers"])
        metrics["trace_overhead"] = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[-1]] for k in metrics}
        runs = [plain, traced]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"workload": name, "trace": trace, "env": environment(seed),
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "extra": {k: runs[0][k] for k in EXTRA if runs[0].get(k) is not None},
            "messages": [m for r in runs for m in r["messages"]]}


def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} ({'traced' if result['trace'] else 'end to end'}), "
          f"{result['attempted']} ops attempted")
    for key, m in result["metrics"].items():
        print(f"{name:10s} {key:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:10s} {'failed_ratio':34s} {result['failed_ratio']:>16.6g} ratio")
    for key, value in result["extra"].items():
        unit = "bytes" if key == "proof_bytes_per_op" else ""
        print(f"{name:10s} {key:34s} {value:>16.6g} {unit}".rstrip())
    print(f"{name:10s} env {json.dumps(result['env'], sort_keys=True)}")
    for m in result["messages"]:
        print(f"{name:10s} FAILED: {m}", file=sys.stderr)


def result_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def _stop(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "epicore", "__init__.py")):
        print(f"error: no epicore package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        report(result)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        results.append(result)
    for result in results:
        print(result_line(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
