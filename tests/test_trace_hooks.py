"""The benchmark's trace hooks still find every name they rebind.

`perfbench/workloads.instrument` wraps entry points of epicore by name
(for instance `logic.ChainCache.get`, `analysis.enumerate_integer_core`
and `_Emitter.acceptable_proof`).  A refactor that renames or deletes one
of them breaks traced benchmark runs; this test catches that in the
ordinary suite.  It only reads the perfbench modules.
"""

import importlib.util
import pathlib

from epicore import _sweep, analysis, logic
from epicore.acceptability import _Emitter

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores_every_hook():
    tracer = _load("tracer").Tracer()
    hooks = [(logic.ChainCache, "get"), (analysis, "enumerate_integer_core"),
             (_Emitter, "acceptable_proof"), (_sweep, "check_proof")]
    before = [getattr(owner, attr) for owner, attr in hooks]
    _load("workloads").instrument(tracer)
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(hooks, before))
        stats = _sweep.verify_all_queries(n=1, max_worth=1)
        assert stats.ok and stats.classes
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr in hooks] == before
    totals = tracer.counts
    assert totals["logic.cache"] > 0 and totals["logic.proof_nodes"] > 0
