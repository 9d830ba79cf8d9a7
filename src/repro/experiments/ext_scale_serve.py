"""Extension — sustained serving at scale (~1M invocations, ISSUE 10).

The engine bench (``benchmarks/test_bench_engine.py``) measures *how
fast* the hot path is against the frozen pre-PR engines; this
experiment demonstrates *that it sustains*: one simulated cluster
serves on the order of a million open-loop invocations across eight
tenants without accumulating per-invocation state anywhere.

Every O(served) record sink is disabled or drained: clients run with
``keep_records=False`` (status counters only), a reaper process
periodically empties the metrics collector, and the ground truth is
the streaming telemetry registry — mergeable per-(tenant, workflow)
histograms and counters whose size is O(label sets), not O(served).
The table reports the per-tenant rollups straight from those
instruments; the notes pin the lifecycle claim with the measured peak
in-flight and peak live per-engine invocation state.

Defaults target WorkerSP (the paper's engine).  ``--quick`` in the CLI
shrinks the run to ~20k invocations for CI; the full million-scale run
takes tens of minutes of wall clock.
"""

from __future__ import annotations

import time

from ..clients import OpenLoopClient
from ..core import ENGINES, EngineConfig, hash_partition
from ..obs import MetricsRegistry, SpanTracer
from ..sim import Cluster, ClusterConfig, ContainerSpec, Environment
from ..workloads import chain, diamond, fan, tree
from .common import ExperimentResult

__all__ = ["run"]

# Paper-scale workflow shapes (FaaSFlow's benchmarks are 8-16 node
# DAGs), cycled over the tenants; service times small enough that the
# run is control-plane-bound, output sizes zero so the data plane is
# idle either way.
_SHAPES = ("chain", "fan", "diamond", "tree")


def _make_dag(shape: str, name: str):
    if shape == "chain":
        return chain(length=12, name=name, service_time=0.01, output_size=0.0)
    if shape == "fan":
        return fan(
            width=8, name=name, service_time=0.01,
            hub_output=0.0, branch_output=0.0,
        )
    if shape == "diamond":
        return diamond(width=6, name=name, service_time=0.01, output_size=0.0)
    return tree(
        depth=3, fanout=2, name=name, service_time=0.01, output_size=0.0
    )


def _reaper(env, metrics, interval: float):
    """Periodically empty the metrics collector's record list.

    At million scale the collector would otherwise retain every
    ``InvocationRecord``; telemetry (mergeable sketches) is the
    scalable account of the run, so the raw records can go.
    """
    while True:
        yield env.timeout(interval)
        metrics.invocations.clear()
        metrics.transfers.clear()


def run(
    invocations: int = 1_000_000,
    engine: str = "worker",
    tenants: int = 8,
    workers: int = 8,
    rate_per_minute: float = 1_200.0,
    batch_control: bool = False,
    seed: int = 13,
) -> ExperimentResult:
    if engine not in ENGINES:
        raise ValueError("engine must be 'worker', 'master', or 'dataflow'")
    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    if engine == "master" and rate_per_minute > 300.0:
        # The central engine serializes every assignment; paper-scale
        # DAGs overload it beyond ~5 invocations/s per tenant.
        rate_per_minute = 150.0
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(
            workers=workers,
            container=ContainerSpec(cold_start_time=0.05),
        ),
    )
    telemetry = MetricsRegistry(clock=lambda: env.now)
    cluster.install_spans(SpanTracer(env, retain=False, telemetry=telemetry))
    config = EngineConfig(
        ship_data=False,
        worker_process_time=0.001,
        master_process_time=0.001,
        dataflow_trigger_time=0.0005,
        local_trigger_time=0.0002,
        batch_control=batch_control,
    )
    system = ENGINES[engine](cluster, config)

    tenant_rows = []
    tenant_map: dict[str, str] = {}
    for index in range(tenants):
        tenant = f"tenant-{index}"
        shape = _SHAPES[index % len(_SHAPES)]
        workflow = f"{shape}-{index}"
        dag = _make_dag(shape, workflow)
        placement = hash_partition(dag, cluster.worker_names())
        if engine == "master":
            system.register(dag, placement)
        else:
            system.deploy(dag, placement, prewarm=2)
        tenant_map[workflow] = tenant
        tenant_rows.append((tenant, workflow))
    system.set_tenants(tenant_map)

    per_tenant = max(1, invocations // tenants)
    clients = [
        OpenLoopClient(
            system,
            workflow,
            per_tenant,
            rate_per_minute,
            seed=seed + index,
            keep_records=False,
        )
        for index, (_, workflow) in enumerate(tenant_rows)
    ]
    env.process(_reaper(env, system.metrics, 60.0), name="metrics-reaper")
    started = time.perf_counter()
    procs = [
        env.process(client.run(), name=f"client:{tenant}")
        for (tenant, _), client in zip(tenant_rows, clients)
    ]
    env.run(until=env.all_of(procs))
    wall = time.perf_counter() - started
    simulated = env.now

    rows = []
    total_served = 0
    total_ok = 0
    for (tenant, workflow), client in zip(tenant_rows, clients):
        served = sum(client.status_counts.values())
        ok = client.status_counts.get("ok", 0)
        total_served += served
        total_ok += ok
        latency = telemetry.histogram(
            "workflow.latency",
            tenant=tenant, workflow=workflow, engine=system.engine_label
            if hasattr(system, "engine_label") else system.mode,
        )
        rows.append(
            [
                tenant,
                workflow,
                served,
                f"{ok / served * 100:.2f}%" if served else "-",
                round(latency.mean * 1000, 1) if latency.count else "-",
                round(latency.quantile(99) * 1000, 1)
                if latency.count
                else "-",
            ]
        )
    peak_live = 0
    if engine != "master":
        for eng in system.engines.values():
            for structure in eng._structures.values():
                peak_live = max(peak_live, structure.peak_live_invocations)
    notes = [
        f"{total_served:,} invocations served ({total_ok:,} ok) over "
        f"{simulated:,.0f} simulated seconds = "
        f"{total_served / simulated:,.0f} invocations/simulated-second "
        f"sustained; {wall:,.1f}s wall = {total_served / wall:,.0f} "
        "invocations/wall-second through the simulator",
        f"state lifecycle: peak in-flight {system.peak_in_flight} "
        f"(client-side O(in-flight): records not retained), peak live "
        f"per-engine invocation state {peak_live} — both set by "
        f"concurrency, not by the {total_served:,} served",
        f"telemetry registry holds {len(telemetry)} instruments for "
        f"{tenants} tenants — O(label sets), not O(invocations)",
        f"engine={engine}, batch_control={batch_control}, "
        f"{rate_per_minute:.0f} arrivals/min/tenant",
    ]
    return ExperimentResult(
        experiment="ext-scale-serve",
        title=(
            f"Sustained serving at scale: {total_served:,} open-loop "
            f"invocations, {tenants} tenants, {engine} engine"
        ),
        headers=[
            "tenant",
            "workflow",
            "served",
            "ok",
            "mean (ms)",
            "p99 (ms)",
        ],
        rows=rows,
        notes=notes,
        data={
            "engine": engine,
            "batch_control": batch_control,
            "total_served": total_served,
            "total_ok": total_ok,
            "simulated_seconds": simulated,
            "wall_seconds": wall,
            "invocations_per_wall_second": total_served / wall,
            "peak_in_flight": system.peak_in_flight,
            "peak_live_invocations": peak_live,
            "telemetry_instruments": len(telemetry),
        },
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
