"""fig_scale — cluster-scale throughput sweep of the fluid network model.

Not a figure from the paper: the paper's testbed stops at 8 nodes, while
related DAG engines (DFlow; Wukong, "In Search of a Fast and Efficient
Serverless DAG Engine") evaluate at hundreds of concurrent invocations.
This sweep drives the fluid network model alone — no engines, no
containers — across cluster sizes and concurrent-flow counts and reports
how fast the simulator itself processes flow events.  It is the
experiment-harness face of ``benchmarks/test_bench_network.py``, which
additionally compares against the frozen pre-optimization model.

The workload models FaaSFlow's locality structure: the cluster is
partitioned into worker groups of ``group_size`` nodes (one deployed
workflow per group, paper §4.1), each flow moves data between two nodes
of one group, and a configurable fraction of each group's traffic aims
at the group's first node — the per-workflow collector/storage hotspot
of the paper's Figs. 12-14 regime.  ``group_size >= nodes`` collapses
the partitioning and yields uniform all-to-all traffic, the worst case
for component-local rebalancing (one connected component, no route
repetition).
"""

from __future__ import annotations

import random
import time

from ..sim import Environment, MB
from .common import ExperimentResult, ParallelRunner

__all__ = [
    "run",
    "drive_network",
    "make_plan",
    "DEFAULT_NODES",
    "DEFAULT_FLOWS",
]

DEFAULT_NODES = (8, 32, 64, 128)
DEFAULT_FLOWS = (10, 100, 500, 1000)


def make_plan(
    nodes: int,
    flows: int,
    seed: int = 11,
    group_size: int = 8,
    hotspot_fraction: float = 0.3,
) -> list[tuple[float, float, int, int, float]]:
    """Generate the arrival plan: ``(gap, at, src, dst, size)`` entries.

    ``gap`` is the inter-arrival delay consumed by the driver's timeout
    loop; ``at`` is the same instant as an absolute timestamp (``at =
    previous at + gap``, the identical float-addition sequence the kernel
    performs when accumulating timeouts, so both representations land on
    bit-identical start times).  Pre-generating the plan keeps RNG
    consumption identical no matter which network module executes it.
    """
    rng = random.Random(seed)
    window = max(0.25, flows / 400.0)  # arrival burst, simulated seconds
    group_size = min(group_size, nodes)
    groups = [
        range(base, min(base + group_size, nodes))
        for base in range(0, nodes, group_size)
    ]
    plan = []
    t = 0.0
    for _ in range(flows):
        group = groups[rng.randrange(len(groups))]
        src, dst = rng.sample(group, 2)
        if rng.random() < hotspot_fraction and src != group[0]:
            dst = group[0]
        size = rng.uniform(4.0, 40.0) * MB
        gap = rng.uniform(0.0, window / flows)
        t = t + gap
        plan.append((gap, t, src, dst, size))
    return plan


def drive_network(
    network_module,
    nodes: int,
    flows: int,
    seed: int = 11,
    group_size: int = 8,
    hotspot_fraction: float = 0.3,
    bandwidth: float = 100 * MB,
    collect_records: bool = False,
    telemetry: bool = False,
) -> dict:
    """Run one sweep cell against ``network_module`` and time it.

    ``network_module`` is any module exposing the ``Network`` /
    ``NetworkConfig`` API — the live ``repro.sim.network`` or the frozen
    ``benchmarks/_seed_network.py`` baseline — so the same byte-exact
    workload drives both sides of an A/B comparison.
    """
    plan = make_plan(
        nodes, flows, seed=seed,
        group_size=group_size, hotspot_fraction=hotspot_fraction,
    )

    env = Environment()
    net = network_module.Network(env, network_module.NetworkConfig())
    registry = None
    if telemetry:
        from ..obs import MetricsRegistry, SpanTracer

        registry = MetricsRegistry(clock=lambda: env.now)
        net.spans = SpanTracer(env, retain=False, telemetry=registry)
    nics = [net.attach(f"n{i}", bandwidth) for i in range(nodes)]

    def starter(env):
        for gap, _at, src, dst, size in plan:
            yield env.timeout(gap)
            net.transfer(nics[src], nics[dst], size)

    start = time.perf_counter()
    env.process(starter(env))
    env.run()
    wall = time.perf_counter() - start
    events = 2 * flows  # one arrival + one completion rebalance each
    out = {
        "nodes": nodes,
        "flows": flows,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else float("inf"),
        "sim_makespan": env.now,
    }
    if collect_records:
        out["records"] = [
            (r.src, r.dst, r.size, r.started_at, r.finished_at, r.kind, r.tag)
            for r in net.records
        ]
    if registry is not None:
        out["telemetry"] = registry.snapshot()
    return out


def _cell(task: tuple) -> dict:
    """One sweep cell against the live network model (pool-shippable)."""
    nodes, flows, seed, telemetry = task
    from ..sim import network as live

    return drive_network(live, nodes, flows, seed=seed, telemetry=telemetry)


def run(
    nodes: tuple[int, ...] = DEFAULT_NODES,
    flows: tuple[int, ...] = DEFAULT_FLOWS,
    seed: int = 11,
    jobs: int = 1,
    telemetry_out: str | None = None,
) -> ExperimentResult:
    cells = [
        (n, f, seed + index)
        for index, (n, f) in enumerate(
            (n, f) for n in nodes for f in flows
        )
    ]
    telemetry = telemetry_out is not None
    results = ParallelRunner(jobs).map(
        _cell, [(n, f, s, telemetry) for n, f, s in cells]
    )
    written = []
    if telemetry_out is not None:
        from pathlib import Path

        from ..obs.telemetry import write_telemetry_json

        directory = Path(telemetry_out)
        directory.mkdir(parents=True, exist_ok=True)
        for stats in results:
            snapshot = stats.pop("telemetry", None)
            if snapshot is not None:
                name = (
                    f"fig_scale-n{stats['nodes']}-f{stats['flows']}"
                    "-telemetry.json"
                )
                written.append(write_telemetry_json(directory / name, snapshot))
    rows = [
        [
            stats["nodes"],
            stats["flows"],
            round(stats["wall_seconds"] * 1000, 2),
            round(stats["events_per_sec"]),
            round(stats["sim_makespan"], 3),
        ]
        for stats in results
    ]
    return ExperimentResult(
        experiment="fig_scale",
        title="Fluid network model throughput vs cluster size x concurrent flows",
        headers=[
            "nodes",
            "flows",
            "wall (ms)",
            "events/sec",
            "sim makespan (s)",
        ],
        rows=rows,
        notes=[
            "events/sec = flow arrivals + completions over real wall time; "
            "simulated results are wall-time independent",
            "A/B speedup vs the frozen pre-optimization model lives in "
            "BENCH_network.json (benchmarks/test_bench_network.py)",
        ],
        data={"cells": list(results), "telemetry_paths": written},
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
