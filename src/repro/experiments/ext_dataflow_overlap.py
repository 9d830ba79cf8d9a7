"""Extension — DataflowSP eager-shipping ablation with span attribution.

The three-way fig12/fig13 sweeps show *where* DataflowSP's tail sits;
this experiment shows *why*.  Each data-intensive benchmark runs on
WorkerSP, DataflowSP with eager shipping, and DataflowSP with shipping
disabled (trigger-only dataflow), all with span tracing on, and the
table reports the measured exact-sum latency decomposition.  The
signature of communication/computation overlap is in the ``transfer``
column: eager shipping moves the producer→consumer bytes while
upstream functions still compute, so the consumer-side window that
``breakdown()`` attributes to transfer collapses while ``execute``
stays constant.
"""

from __future__ import annotations

from ..clients import run_closed_loop
from ..workloads import BENCHMARKS, build
from .common import (
    ExperimentResult,
    MB,
    ParallelRunner,
    deploy_with_feedback,
    derive_seed,
    make_cluster,
    make_dataflow,
    make_faasflow,
)

__all__ = ["run"]

VARIANTS = (
    ("worker", "WorkerSP"),
    ("dataflow", "DataflowSP"),
    ("dataflow-noship", "DataflowSP (no eager ship)"),
)


def _cell(task: tuple) -> dict:
    """One (benchmark, variant) run with spans on — pool-shippable."""
    name, variant, invocations, bandwidth, seed = task
    from ..obs import SpanTracer

    cluster = make_cluster(storage_bandwidth=bandwidth)
    # Spans must be installed before the system is built (engines and
    # the runtime snapshot cluster.spans at construction).  Breakdowns
    # read the span ring; an ambient telemetry sink is kept.
    if not cluster.spans.retain:
        cluster.install_spans(
            SpanTracer(cluster.env, telemetry=cluster.spans.telemetry)
        )
    if variant == "worker":
        system, scheduler = make_faasflow(cluster, ship_data=True)
    else:
        system, scheduler = make_dataflow(
            cluster, ship_data=True,
            eager_ship=(variant == "dataflow"),
        )
    dag = build(name)
    deploy_with_feedback(system, scheduler, dag, warmup_invocations=1)
    system.metrics.clear()
    run_closed_loop(system, name, invocations)
    parts = system.metrics.mean_breakdown(name)
    return {
        "e2e": parts["e2e"],
        "execute": parts["execute"],
        "cold_start": parts["cold_start"],
        "transfer": parts["transfer"],
        "queue_wait": parts["queue_wait"],
        "sync": parts["sync"],
        "engine": parts["engine"],
        "local_fraction": system.metrics.local_fraction(name),
    }


def run(
    invocations: int = 20,
    bandwidth: float = 50 * MB,
    benchmarks: tuple[str, ...] = ("genome", "video-ffmpeg"),
    jobs: int = 1,
    seed: int = 13,
) -> ExperimentResult:
    tasks = [
        (
            name,
            variant,
            invocations,
            bandwidth,
            derive_seed(seed, name, variant),
        )
        for name in benchmarks
        for variant, _ in VARIANTS
    ]
    results = ParallelRunner(jobs).map(_cell, tasks)
    rows = []
    series: dict[tuple, dict] = {}
    for (name, variant, _, _, _), parts in zip(tasks, results):
        series[(name, variant)] = parts
        label = dict(VARIANTS)[variant]
        rows.append(
            [
                BENCHMARKS[name].abbrev,
                label,
                round(parts["e2e"], 2),
                round(parts["execute"], 2),
                round(parts["transfer"], 2),
                round(parts["queue_wait"], 2),
                round(parts["sync"] + parts["engine"], 3),
                f"{parts['local_fraction'] * 100:.0f}%",
            ]
        )
    notes = []
    for name in benchmarks:
        worker = series[(name, "worker")]
        eager = series[(name, "dataflow")]
        noship = series[(name, "dataflow-noship")]
        if worker["e2e"] > 0:
            notes.append(
                f"{name}: DataflowSP e2e {eager['e2e'] / worker['e2e']:.2f}x "
                f"of WorkerSP; transfer component "
                f"{worker['transfer']:.2f}s -> {eager['transfer']:.2f}s "
                f"(eager off: {noship['transfer']:.2f}s) — the delta is "
                "communication/computation overlap, not faster compute"
            )
    return ExperimentResult(
        experiment="ext-dataflow",
        title=(
            f"DataflowSP eager-shipping ablation @ {bandwidth / MB:.0f} MB/s "
            "(measured span breakdown, means over completed invocations)"
        ),
        headers=[
            "benchmark",
            "engine",
            "e2e (s)",
            "execute (s)",
            "transfer (s)",
            "queue (s)",
            "sync+engine (s)",
            "local",
        ],
        rows=rows,
        notes=notes,
        data={"series": series},
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
