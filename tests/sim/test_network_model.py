"""The fluid network model against its frozen reference.

``benchmarks/_seed_network.py`` is the model as it stood before the
scaling work: flow-by-flow water-filling over every flow, with all
flows advanced at every network event.  The live model aggregates
same-route flows, rebalances one connected component at a time and
advances a flow's bytes only at its own component's events, so the two
agree to float rounding but not bit for bit.  These tests drive both
through fig_scale's workload and compare them record by record, and pin
a digest of the live records so that any drift at all is deliberate.
"""

import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from repro.experiments.fig_scale import drive_network, make_plan
from repro.obs.telemetry import validate_snapshot
from repro.sim import network
from repro.sim.kernel import Environment
from repro.sim.network import MB, Network, NetworkConfig

_SEED_NETWORK = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "_seed_network.py"
)
# Measured worst case over the BENCH_network sweep is 3.2e-15.
_FINISH_REL_TOL = 1e-12

# sha256 of repr(records) of drive_network(network, 32, 200, seed=11).
_GOLDEN_DIGEST = (
    "6cd0ff092c2f25dab8f0755027ec3630eebba80dff2dcf08f25c3367b229af65"
)


@pytest.fixture(scope="module")
def seed_network():
    spec = importlib.util.spec_from_file_location(
        "faasflow_seed_network_reference", _SEED_NETWORK
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclass creation reads sys.modules[cls.__module__].
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize(
    "nodes,flows,seed", [(8, 100, 11), (16, 120, 23), (32, 200, 11), (64, 300, 5)]
)
def test_matches_seed_model_record_by_record(seed_network, nodes, flows, seed):
    reference = drive_network(
        seed_network, nodes, flows, seed=seed, collect_records=True
    )["records"]
    live = drive_network(
        network, nodes, flows, seed=seed, collect_records=True
    )["records"]
    assert len(live) == len(reference) == flows
    for ours, theirs in zip(live, reference):
        src, dst, size, started, finished, kind, tag = ours
        assert (src, dst, size, started, kind, tag) == (
            theirs[0], theirs[1], theirs[2], theirs[3], theirs[5], theirs[6]
        )
        assert math.isclose(finished, theirs[4], rel_tol=_FINISH_REL_TOL)


def test_records_match_golden_digest():
    records = drive_network(network, 32, 200, seed=11, collect_records=True)[
        "records"
    ]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == _GOLDEN_DIGEST


def test_single_flow_exact():
    env = Environment()
    net = Network(env, NetworkConfig())
    a = net.attach("a", 10 * MB)
    b = net.attach("b", 10 * MB)
    net.transfer(a, b, 20 * MB)
    env.run()
    (record,) = net.records
    # 20 MB over a 10 MB/s bottleneck (propagation latency applies to
    # control messages, not bulk flows).
    assert math.isclose(
        record.finished_at - record.started_at, 2.0, rel_tol=1e-12
    )


def test_bandwidth_change_applies_mid_flow():
    env = Environment()
    net = Network(env, NetworkConfig())
    a = net.attach("a", 10 * MB)
    b = net.attach("b", 10 * MB)
    net.transfer(a, b, 30 * MB)

    def tighten(_event):
        net.set_nic_bandwidth(b, 5 * MB)

    env.schedule_at(1.0).callbacks.append(tighten)
    env.run()
    (record,) = net.records
    # 10 MB in the first second at 10 MB/s, remaining 20 MB at 5 MB/s.
    assert math.isclose(
        record.finished_at - record.started_at, 1.0 + 4.0, rel_tol=1e-9
    )


class TestDriveTelemetry:
    """fig_scale's ``--telemetry-out`` snapshot of one network cell."""

    NODES, FLOWS, GROUP, SEED = 16, 120, 4, 23

    @pytest.fixture(scope="class")
    def cell(self):
        return drive_network(
            network, self.NODES, self.FLOWS, seed=self.SEED,
            group_size=self.GROUP, telemetry=True,
        )

    def test_snapshot_valid(self, cell):
        snapshot = cell["telemetry"]
        assert validate_snapshot(snapshot) == []
        assert {m["name"] for m in snapshot["metrics"]} == {
            "net.bytes", "net.transfers",
        }

    def test_bytes_match_plan_per_node(self, cell):
        # Counters increment at flow completion, so the addition order
        # differs from plan order — per-node sums match to float
        # tolerance, and transfer counts match exactly.
        plan = make_plan(
            self.NODES, self.FLOWS, seed=self.SEED, group_size=self.GROUP
        )
        expected: dict[str, float] = {}
        counts: dict[str, int] = {}
        for _gap, _at, src, _dst, size in plan:
            expected[f"n{src}"] = expected.get(f"n{src}", 0.0) + size
            counts[f"n{src}"] = counts.get(f"n{src}", 0) + 1
        metrics = cell["telemetry"]["metrics"]
        observed = {
            m["labels"]["node"]: m["total"]
            for m in metrics
            if m["name"] == "net.bytes"
        }
        assert observed == pytest.approx(expected, rel=1e-12)
        assert {
            m["labels"]["node"]: int(m["total"])
            for m in metrics
            if m["name"] == "net.transfers"
        } == counts
