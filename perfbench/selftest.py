"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Runs the traced rounds of each workload twice, through the same worker
the benchmark uses, and checks that the correctness gate passes and that the
counts which must not depend on timing repeat exactly.  Also re-derives
the pinned replica core sizes of the small grids with the brute-force
oracle of the test suite.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

EXACT = {"sweep": ("sweep.classes", "sweep.queries", "logic.proof_nodes"),
         "roundtrip": ("logic.proof_nodes", "jsonio.bytes_written"),
         "replica": ("replica.core_size", "logic.proof_nodes"),
         "survey": ("games.integer_core.calls", "acceptability.decide.calls")}


def traced_rounds(workload: str, seed: int) -> dict:
    cfg = {"workload": workload, "seed": seed, "mode": "fixed", "trace": True,
           "trace_file": os.path.join(run.OUT, f"selftest-{workload}.trace.jsonl")}
    os.makedirs(run.OUT, exist_ok=True)
    return run.child(cfg, run.deadline_after(0))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gate_passes_and_exact_counts_repeat(workload):
    first = traced_rounds(workload, seed=7)
    second = traced_rounds(workload, seed=7)
    for res in (first, second):
        assert res["failed"] == 0, res["messages"]
        assert res["attempted"] >= 1
    for key in EXACT[workload]:
        assert first["layers"][key] > 0, key
        assert first["layers"][key] == second["layers"][key], key
    if workload == "sweep":
        assert first["layers"]["sweep.classes"] == 4880
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert set(first["layers"]) | {"trace_overhead"} \
        == {m["name"] for m in declared["per_layer"]}
    assert [name for name, _ in run.END_TO_END] \
        == [m["name"] for m in declared["end_to_end"]]


def test_pinned_replica_core_sizes_match_brute_force():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from _oracles import brute_grid_core
        from workloads import Replica
    finally:
        del sys.path[:2]
    no_triples = [(1,), (2,), (3,), (4,), (1, 3), (1, 4), (2, 3), (2, 4), (1, 2, 3, 4)]
    for den in range(1, 6):
        want = (len(brute_grid_core(2, den)), len(brute_grid_core(2, den, no_triples)))
        assert Replica.CORE_SIZES[den] == want, den


def test_roundtrip_pattern_stands_for_the_draws_accept_share():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from workloads import Roundtrip, draw_query, surplus_accepts
    finally:
        sys.path.pop(0)
    rng = random.Random(0)
    draws = 50_000
    accepted = sum(surplus_accepts(*draw_query(rng)) for _ in range(draws))
    pattern = Roundtrip.PATTERN.count(True) / len(Roundtrip.PATTERN)
    assert abs(accepted / draws - pattern) < 0.02


def test_tail_is_the_mean_of_the_slowest_ops():
    from worker import latency_summary
    # 1% of the ops; at least eleven; at most a tenth
    for n, k in ((11, 2), (14, 2), (100, 10), (455, 11), (1960, 20), (4880, 49)):
        samples = [i / 1000 for i in range(n)]
        random.Random(n).shuffle(samples)
        got = latency_summary(samples)
        assert got["op_tail_ms"] == pytest.approx(sum(range(n - k, n)) / k)
        assert got["op_tail_ms"] > got["op_p50_ms"]
        assert got["op_tail_percentile"] == pytest.approx(100 * (n - k) / n)
    assert latency_summary([0.1] * 10)["op_tail_ms"] is None


def test_missing_package_fails_without_a_result(tmp_path, capsys):
    # a checkout that holds only the benchmark must not print a result
    assert os.path.isfile(os.path.join(ROOT, "src", "epicore", "__init__.py"))
    saved = run.ROOT
    run.ROOT = str(tmp_path)
    try:
        code = run.main(["--workload", "replica", "--seed", "1", "--seconds", "1"])
    finally:
        run.ROOT = saved
    assert code != 0
    assert capsys.readouterr().out == ""
