"""Golden simulated outcomes of the end-to-end benchmark's workloads.

Each workload is built and served through the benchmark's own code
(``perfbench.workloads`` / ``perfbench.run.measure``) at seed 1 for a
1-second run, and the digest of its outcome stream — every invocation's
workflow, id, status, start and finish time, in completion order — must
equal the pinned value.  A change that only makes the simulator faster
must leave all three untouched; a change that alters simulated behaviour
on purpose has to re-pin them and say why.  Event counts are not
pinned: the kernel may schedule fewer events for the same outcome.
"""

import pytest

from perfbench.run import measure
from perfbench.workloads import WORKLOADS

DIGESTS = {
    "serve-ctl": "2f12b39d92376b9a4c971f599aab0e40ca2d8d0d1fb9af80a34721eda1eb2751",
    "sci-faastore": "c4ed4b17f786b5e46f91363d8f8181cebb8730188252f2b04e09536ceca0ca9c",
    "sci-dataflow": "e1ffce2a1a298e41d0f734d9f2d3124af7b13083967f2243ee1e943ead3bb244",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_outcome_digest(workload):
    result = measure(WORKLOADS[workload], seed=1, seconds=1.0, repeats=1)
    assert result["checks"]["all_attempts_accounted"]
    assert result["checks"]["remote_store_drained"]
    assert result["checks"]["faastores_drained"]
    assert result["digest"] == DIGESTS[workload]
