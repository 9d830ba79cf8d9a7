"""Serving leaves no reference cycles behind: refcounting frees it all.

Each end-to-end benchmark workload (seed 1, 1 s) is served with the
cyclic garbage collector disabled; afterwards, while the system is
still alive, a collection must find nothing unreachable.  A self-valued
event (a resource grant whose value was the request itself) or a
recursive nested closure on a per-operation path turns every operation
into cyclic-GC work, and shows up here as a non-zero count.

Instrumented serving is held to the same rule, and a telemetry-only
tracer must keep no span state once an open-loop run drains: spans
fold into the registry as they end and are not retained.
"""

import gc
from collections import Counter

import pytest

from perfbench.run import serve
from perfbench.workloads import WORKLOADS
from repro.runner import run_workflow
from repro.workloads.registry import build


def _without_cyclic_garbage(run):
    """``run()`` with the cyclic GC off; assert it left no cycles."""
    enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        unreachable = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        assert unreachable == 0, kinds.most_common(8)
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_serving_creates_no_cyclic_garbage(workload):
    built = WORKLOADS[workload].build(seed=1, seconds=1.0)
    _without_cyclic_garbage(lambda: serve(built))


@pytest.mark.parametrize("trace", [False, True], ids=["telemetry", "both"])
def test_instrumented_serving_drains_span_state(trace):
    summary = _without_cyclic_garbage(
        lambda: run_workflow(
            build("genome"), engine="worker", invocations=20, workers=3,
            open_loop_rate=4.0, seed=3, collect_telemetry=True, trace=trace,
        )
    )
    assert summary.completed == 20
    tracer = summary.system.cluster.spans
    assert tracer.telemetry is not None
    assert tracer._open == {} and tracer._contexts == {}
    if trace:
        assert len(tracer.spans) > 0
    else:
        assert len(tracer.spans) == 0 and len(tracer) == 0
        assert tracer._roots == {}
