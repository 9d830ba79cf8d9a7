"""Serving leaves no reference cycles behind: refcounting frees it all.

Each end-to-end benchmark workload (seed 1, 1 s) is served with the
cyclic garbage collector disabled; afterwards, while the system is
still alive, a collection must find nothing unreachable.  A self-valued
event (a resource grant whose value was the request itself) or a
recursive nested closure on a per-operation path turns every operation
into cyclic-GC work, and shows up here as a non-zero count.
"""

import gc
from collections import Counter

import pytest

from perfbench.run import serve
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_serving_creates_no_cyclic_garbage(workload):
    built = WORKLOADS[workload].build(seed=1, seconds=1.0)
    enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        serve(built)
        unreachable = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        assert unreachable == 0, kinds.most_common(8)
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if enabled:
            gc.enable()
