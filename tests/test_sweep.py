"""The exhaustive sweep: where it stops, and the cyclic garbage collector.

The sweep stops after the first worth group with failures.

The sweep pauses the collector while a worth group runs, so it must hand
back the collector as it found it: on a normal return, on a rejected proof
and on an error raised inside a group.  It must also leave no reference
cycles for a collection to find.
"""

import gc

import pytest

from epicore import _sweep
from epicore.errors import VerificationFailure
from epicore.logic import CheckResult


@pytest.fixture
def collector_state():
    was_enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_sweep_restores_collector_state(collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    stats = _sweep.verify_all_queries(n=2, max_worth=2)
    assert stats.ok and stats.classes > 0
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_sweep_restores_collector_state_after_failure(collector_state, monkeypatch,
                                                      enabled):
    monkeypatch.setattr(_sweep, "check_proof",
                        lambda *args: CheckResult(False, (0,), "forced rejection"))
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(VerificationFailure, match="forced rejection"):
        _sweep.verify_all_queries(n=2, max_worth=2)
    assert gc.isenabled() is enabled


def test_sweep_stops_after_the_first_group_with_failures(monkeypatch):
    tops = []

    def failing_group(n, top, coalitions, families, stats):
        tops.append(top)
        stats.failures.append(f"group {top}")

    monkeypatch.setattr(_sweep, "_verify_group", failing_group)
    with pytest.raises(VerificationFailure, match="first: group 0"):
        _sweep.verify_all_queries(n=2, max_worth=2)
    assert tops == [0]


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("enabled", [True, False])
def test_sweep_restores_collector_state_after_error_mid_group(collector_state,
                                                              monkeypatch, enabled):
    def interrupted(*args):
        raise Interrupted

    monkeypatch.setattr(_sweep, "decide", interrupted)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(Interrupted):
        _sweep.verify_all_queries(n=2, max_worth=2)
    assert gc.isenabled() is enabled


def test_sweep_leaves_no_cyclic_garbage(collector_state):
    gc.collect()
    # keep whatever a collection finds, including the sweep's own collections
    gc.set_debug(gc.DEBUG_SAVEALL)
    _sweep.verify_all_queries(n=2, max_worth=2)
    assert gc.collect() == 0
    assert gc.garbage == []
