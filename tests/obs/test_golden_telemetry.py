"""Golden telemetry: pinned snapshots of small instrumented runs.

Each run below is a ``run_workflow(..., collect_telemetry=True)`` call
whose snapshot is pinned by the sha256 of its canonical JSON
(``json.dumps(snapshot, sort_keys=True)``).  Together they cover every
engine in ``repro.core.ENGINES`` with data shipping on, fault injection
with retries (and, with ``max_retries=0``, failed invocations), eager
pushes and FaaStore spills.  A digest moves when any count, sum, bucket,
window or label of any metric moves, so a change to how the runtime,
containers, FaaStore, network or engines report their facts must leave
these pins alone unless it changes the facts on purpose.

The ``faasflow-trace slo`` report of one run is pinned as text, and a
run with span retention on must fold exactly the telemetry-only
snapshot.  Fig. 5's two clusters (the monolithic baseline and the FaaS
deployment) are pinned as ``faasflow-experiment fig05 --telemetry-out``
writes them; the monolithic baseline reports like an engine, with
``workflow.*`` series labeled ``engine=monolithic``.
"""

import hashlib
import json

import pytest

from repro.clients import run_closed_loop
from repro.core import ENGINES, MonolithicSystem
from repro.core.state import reset_invocation_ids
from repro.experiments import fig05_data_movement
from repro.experiments.common import make_cluster
from repro.obs import SpanTracer
from repro.obs.cli import main as trace_main
from repro.obs.context import TraceCollector, activate, deactivate
from repro.obs.telemetry import (
    MetricsRegistry,
    find_metrics,
    validate_snapshot,
    write_telemetry_json,
)
from repro.runner import run_workflow
from repro.workloads.registry import build

RUNS = {
    "worker-soykb": dict(
        source="soykb", engine="worker", workers=2, invocations=3,
        fault_rate=0.1, seed=5,
    ),
    "dataflow-genome": dict(
        source="genome", engine="dataflow", workers=3, invocations=3,
        fault_rate=0.1, seed=5,
    ),
    "master-genome": dict(
        source="genome", engine="master", workers=3, invocations=3,
        fault_rate=0.1, seed=5,
    ),
    "worker-word-count-failures": dict(
        source="word-count", engine="worker", workers=3, invocations=4,
        fault_rate=0.05, max_retries=0, seed=7, open_loop_rate=2.0,
        tenant="acme",
    ),
}

DIGESTS = {
    "worker-soykb":
        "65d06af9d7485517da522732b6203a05e786cb483aaa420f71d220ce32ba7327",
    "dataflow-genome":
        "6bc22159865f9a080983aa3a640a20e0f63932301630dc0022aa07de2849823d",
    "master-genome":
        "35f48892d5c4733a7361b01b6ee4319375cc65a57c9205342b098d49bf9e5814",
    "worker-word-count-failures":
        "82ac2551ee9d1ca67dd65f2a1ffcd00411e0251b3f866b3b2411cf65dfd83c70",
}

# fig05 on video-ffmpeg: the monolithic cluster, then the FaaS one.
FIG05_DIGESTS = [
    "fcfc2c6bfd0e3fe288ae1231c39b73ef83952992db5811136c79a3fddd63c73e",
    "fde9b95fbc466dec105792bc3ecdfecdf5d34e5a3e81a935f2dc18ad0d046b65",
]

# Every metric the pinned runs produce, across all of them.
REACHED = {
    "container.cold_start_seconds",
    "container.cold_starts",
    "container.crashes",
    "container.warm_reuses",
    "data.bytes",
    "data.ops",
    "data.seconds",
    "data.spills",
    "function.execute_seconds",
    "function.queue_wait_seconds",
    "function.retries",
    "net.bytes",
    "net.transfers",
    "workflow.cold_starts",
    "workflow.invocations",
    "workflow.latency",
    "workflow.retries",
    "workflow.scheduling_overhead",
}

# Emitted metrics no tier-1 run reaches: containers are evicted only by
# keep-alive expiry (600 s) or a red-black version recycle, and these
# runs last a few simulated seconds on one deployment version.
UNREACHED = {"container.evictions"}

SLO_TEXT = """\
== golden ==
tenant    workflow       target  invocations  attainment  errors  p99 (ms)  burn   status
------  ----------  -----------  -----------  ----------  ------  --------  ----  -------
  acme  word-count  2,000ms@p95            4       75.0%  50.00%   2,747.9  8.33  BURNING

"""


def _run(key: str, **extra):
    kwargs = dict(RUNS[key])
    source = kwargs.pop("source")
    # Retry jitter is keyed by invocation id: pin the id sequence so a
    # run's snapshot does not depend on what ran before it.
    reset_invocation_ids(1)
    return run_workflow(
        build(source), collect_telemetry=True, **kwargs, **extra
    )


def _digest(snapshot: dict) -> str:
    canon = json.dumps(snapshot, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.fixture(scope="module")
def snapshots():
    return {key: _run(key).telemetry for key in RUNS}


def test_every_engine_is_pinned():
    assert {kwargs["engine"] for kwargs in RUNS.values()} == set(ENGINES)


@pytest.mark.parametrize("key", list(RUNS))
def test_snapshot_digest(snapshots, key):
    snapshot = snapshots[key]
    assert validate_snapshot(snapshot) == []
    assert _digest(snapshot) == DIGESTS[key]


def test_metric_names(snapshots):
    names = {
        entry["name"]
        for snapshot in snapshots.values()
        for entry in snapshot["metrics"]
    }
    assert names == REACHED
    assert not names & UNREACHED


def test_runs_reach_retries_failures_and_spills(snapshots):
    def total(key, name, **labels):
        return sum(
            entry.get("total", entry.get("count", 0))
            for entry in snapshots[key]["metrics"]
            if entry["name"] == name
            and all(entry["labels"].get(k) == v for k, v in labels.items())
        )

    for key in ("worker-soykb", "dataflow-genome", "master-genome"):
        assert total(key, "function.retries") > 0
    assert total("worker-soykb", "data.spills", phase="put") > 0
    assert total("dataflow-genome", "data.spills", phase="push") > 0
    assert total("dataflow-genome", "data.ops", phase="push") > 0
    failures = "worker-word-count-failures"
    assert total(failures, "workflow.invocations", status="failed") > 0
    assert total(failures, "workflow.invocations", status="ok") > 0


@pytest.mark.parametrize("key", ["worker-soykb", "master-genome"])
def test_span_retention_folds_the_same_snapshot(snapshots, key):
    summary = _run(key, trace=True)
    assert len(summary.spans.spans) > 0
    assert _digest(summary.telemetry) == _digest(snapshots[key])


def test_slo_report_text(snapshots, tmp_path, capsys):
    write_telemetry_json(
        tmp_path / "golden-telemetry.json",
        snapshots["worker-word-count-failures"],
    )
    assert trace_main(["slo", str(tmp_path), "--latency-target", "2.0"]) == 0
    assert capsys.readouterr().out == SLO_TEXT


def _fig05_snapshots(tmp_path, spans: bool) -> list[dict]:
    collector = TraceCollector(tmp_path, spans=spans, telemetry=True)
    activate(collector)
    try:
        reset_invocation_ids(1)
        fig05_data_movement.run(["video-ffmpeg"])
    finally:
        deactivate()
    return [
        json.loads(path.read_text())
        for path in collector.flush()
        if path.name.endswith("-telemetry.json")
    ]


def test_fig05_snapshot_digests(tmp_path):
    snapshots = _fig05_snapshots(tmp_path / "telemetry", spans=False)
    assert [_digest(s) for s in snapshots] == FIG05_DIGESTS
    mono = snapshots[0]
    assert validate_snapshot(mono) == []
    assert find_metrics(mono, "workflow.invocations", engine="monolithic")
    assert find_metrics(mono, "data.seconds", phase="put", local="local")
    both = _fig05_snapshots(tmp_path / "both", spans=True)
    assert [_digest(s) for s in both] == FIG05_DIGESTS


def test_monolithic_data_seconds_is_the_measured_duration():
    cluster = make_cluster(workers=1)
    env = cluster.env
    registry = MetricsRegistry(clock=lambda: env.now)
    cluster.install_spans(SpanTracer(env, retain=False, telemetry=registry))
    mono = MonolithicSystem(cluster)
    mono.register(build("video-ffmpeg"))
    run_closed_loop(mono, "video-ffmpeg", 2)
    (entry,) = find_metrics(registry.snapshot(), "data.seconds")
    durations = [t.duration for t in mono.metrics.transfers]
    assert entry["count"] == len(durations) > 0
    total = 0.0
    for duration in durations:
        total += duration
    assert entry["sum"] == total
