"""``faasflow-run``: execute a workflow definition end-to-end.

The front door for trying the system on your own workflow::

    faasflow-run my-workflow.yaml --invocations 20
    faasflow-run my-workflow.yaml --engine master --open-loop 6
    faasflow-run Cyc --trace --prewarm

The positional argument is a WDL YAML file or the name/abbreviation of
a built-in benchmark.  By default the workflow runs on FaaSFlow
(WorkerSP + FaaStore) through the full scheduler feedback loop; pass
``--engine master`` for the HyperFlow-serverless baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .clients import run_closed_loop, run_open_loop
from .metrics import percentile
from .core import (
    ENGINES,
    EngineConfig,
    FaultInjector,
    GraphScheduler,
    hash_partition,
)
from .core.state import reset_invocation_ids
from .parallel import ParallelRunner, add_jobs_argument, derive_seed
from .sim import Cluster, ClusterConfig, Environment, MB
from .wdl import WDLError, load_workflow
from .workloads import ALL_BENCHMARKS, build

__all__ = ["main", "run_workflow", "run_trials", "RunSummary"]


class RunSummary(dict):
    """Result of one ``run_workflow`` call (a dict with attribute sugar)."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def _load_dag(source: str):
    path = Path(source)
    if path.exists():
        return load_workflow(path)
    try:
        return build(source)
    except KeyError:
        raise SystemExit(
            f"error: {source!r} is neither a readable WDL file nor a "
            f"benchmark name (choose from {ALL_BENCHMARKS})"
        )


def run_workflow(
    dag,
    engine: str = "worker",
    invocations: int = 10,
    workers: int = 7,
    bandwidth_mb: float = 50.0,
    open_loop_rate: float | None = None,
    prewarm: bool = False,
    ship_data: bool = True,
    trace: bool = False,
    feedback: bool = True,
    fault_rate: float = 0.0,
    max_retries: int = 2,
    eager_ship: bool = True,
    batch_control: bool = False,
    seed: int = 13,
    trace_out: str | Path | None = None,
    sample_interval: float = 0.25,
    telemetry_out: str | Path | None = None,
    collect_telemetry: bool = False,
    tenant: str = "default",
) -> RunSummary:
    """Run ``dag`` and return a summary of what happened.

    ``trace`` turns on span tracing and returns the tracer as
    ``summary.spans``.  ``trace_out`` turns on span tracing + resource
    sampling and writes the trace bundle (JSONL spans, Perfetto JSON,
    samples CSV, metrics CSVs) into that directory.

    ``telemetry_out`` turns on the streaming metrics registry and
    writes its snapshot as ``<workflow>-telemetry.json`` into that
    directory (or to the path itself if it ends in ``.json``);
    ``collect_telemetry`` collects the same snapshot without writing,
    returning it as ``summary.telemetry`` — the form trials use, merged
    deterministically in trial order afterwards.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {', '.join(map(repr, ENGINES))}"
        )
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(workers=workers, storage_bandwidth=bandwidth_mb * MB),
    )
    retain = trace or trace_out is not None
    registry = None
    if collect_telemetry or telemetry_out is not None:
        from .obs.telemetry import MetricsRegistry

        registry = MetricsRegistry(clock=lambda: env.now)
    tracer = None
    if retain or registry is not None:
        from .obs import SpanTracer

        # Must precede system construction: engines snapshot
        # cluster.spans when they are built.
        tracer = SpanTracer(env, retain=retain, telemetry=registry)
        cluster.install_spans(tracer)
    sampler = None
    if trace_out is not None:
        from .obs import ResourceSampler

        sampler = ResourceSampler(cluster, interval=sample_interval)
        sampler.start()
    faults = (
        FaultInjector(default_rate=fault_rate, seed=seed)
        if fault_rate > 0
        else None
    )
    config = EngineConfig(
        ship_data=ship_data, max_retries=max_retries, tenant=tenant,
        eager_ship=eager_ship, batch_control=batch_control,
    )
    system = ENGINES[engine](cluster, config, faults=faults)
    if engine == "master":
        system.register(dag, hash_partition(dag, cluster.worker_names()))
    else:
        # WorkerSP and DataflowSP share the placement-driven deployment
        # path (scheduler, quotas, feedback); only the triggering
        # paradigm behind the deployed sub-graphs differs.
        scheduler = GraphScheduler(cluster)
        placement, quotas, _ = scheduler.schedule(dag)
        system.deploy(dag, placement, quotas=quotas, prewarm=1 if prewarm else 0)
        if feedback:
            run_closed_loop(system, dag.name, 2)
            scheduler.absorb_feedback(dag, system.metrics)
            placement, quotas, _ = scheduler.schedule(dag)
            system.deploy(
                dag,
                placement,
                quotas=quotas,
                prewarm=1 if prewarm else 0,
                container_limits=scheduler.container_limits(dag),
            )
            system.metrics.clear()
            if registry is not None:
                # The feedback bootstrap is calibration, not load: drop
                # its telemetry along with its collector records.
                registry.clear()
    if prewarm:
        # Let the prewarmed containers finish booting before load starts.
        env.run(until=env.now + cluster.config.container.cold_start_time + 0.01)
    if open_loop_rate is not None:
        records = run_open_loop(
            system, dag.name, invocations, open_loop_rate, seed=seed
        )
    else:
        records = run_closed_loop(system, dag.name, invocations)
    metrics = system.metrics
    trace_paths = None
    if trace_out is not None:
        from .obs.export import export_trace

        trace_paths = export_trace(
            trace_out, tracer, sampler=sampler, metrics=metrics,
            prefix=dag.name, telemetry=registry,
        )
    telemetry_snapshot = registry.snapshot() if registry is not None else None
    telemetry_path = None
    if telemetry_out is not None:
        from .obs.telemetry import write_telemetry_json

        out = Path(telemetry_out)
        if out.suffix == ".json":
            out.parent.mkdir(parents=True, exist_ok=True)
            telemetry_path = out
        else:
            out.mkdir(parents=True, exist_ok=True)
            telemetry_path = out / f"{dag.name}-telemetry.json"
        write_telemetry_json(telemetry_path, telemetry_snapshot)
    latencies = sorted(r.latency for r in records)
    return RunSummary(
        workflow=dag.name,
        engine=engine,
        invocations=len(records),
        completed=len([r for r in records if r.status == "ok"]),
        timeouts=len([r for r in records if r.status == "timeout"]),
        failures=len([r for r in records if r.status == "failed"]),
        mean_latency=sum(latencies) / len(latencies),
        p50_latency=percentile(latencies, 50),
        p99_latency=metrics.tail_latency(dag.name, q=99),
        mean_scheduling_overhead=(
            metrics.mean_scheduling_overhead(dag.name)
            if metrics.completed(dag.name)
            else float("nan")
        ),
        data_moved_mb=metrics.data_moved(dag.name) / len(records) / MB,
        local_fraction=metrics.local_fraction(dag.name),
        cold_starts=sum(r.cold_starts for r in records),
        records=records,
        metrics=metrics,
        spans=tracer if retain else None,
        trace_paths=trace_paths,
        telemetry=telemetry_snapshot,
        telemetry_path=telemetry_path,
        system=system,
    )


# Fields of a RunSummary that survive the trip back from a worker
# process (the live system/metrics/spans objects hold simulation
# generators and are neither picklable nor meaningful across trials).
_SCALAR_FIELDS = (
    "workflow",
    "engine",
    "invocations",
    "completed",
    "timeouts",
    "failures",
    "mean_latency",
    "p50_latency",
    "p99_latency",
    "mean_scheduling_overhead",
    "data_moved_mb",
    "local_fraction",
    "cold_starts",
)


# Every trial owns a disjoint invocation-id range this wide.
_TRIAL_ID_STRIDE = 10_000_000


def _trial_task(payload: tuple) -> dict:
    """Run one independent trial in a (possibly pooled) worker."""
    source, index, seed, kwargs = payload
    # A fixed id range per trial: its records, and everything keyed by
    # invocation id, do not depend on which worker ran it or what that
    # worker ran before.
    reset_invocation_ids(index * _TRIAL_ID_STRIDE + 1)
    summary = run_workflow(_load_dag(source), seed=seed, **kwargs)
    result = {field: summary[field] for field in _SCALAR_FIELDS}
    result["records"] = summary["records"]
    if summary.get("telemetry") is not None:
        # A snapshot is a plain dict: it survives the pool round-trip.
        result["telemetry"] = summary["telemetry"]
    return result


def run_trials(
    source: str,
    trials: int = 3,
    jobs: int = 1,
    seed: int = 13,
    **run_kwargs,
) -> list[RunSummary]:
    """Run ``trials`` independent repetitions of a workflow run.

    Each trial gets a deterministic seed derived from ``seed`` and the
    trial index, and its own invocation-id range, so the returned
    summaries — scalars, ``records`` and ``telemetry`` — are identical
    whether the trials execute serially or fan out over ``jobs`` worker
    processes.  ``source`` is a WDL path or benchmark name (re-loaded
    per worker — live DAG/system objects never cross the process
    boundary).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tasks = [
        (source, index, derive_seed(seed, "trial", index), dict(run_kwargs))
        for index in range(trials)
    ]
    results = ParallelRunner(jobs).map(_trial_task, tasks)
    return [RunSummary(result) for result in results]


def _format_trials(summaries: list[RunSummary]) -> str:
    def stats(values):
        mean = sum(values) / len(values)
        return mean, min(values), max(values)

    lines = [
        f"{'trial':>5}  {'mean (ms)':>10}  {'p99 (ms)':>10}  "
        f"{'ok':>4}  {'timeout':>7}  {'failed':>6}  {'cold':>4}"
    ]
    for index, s in enumerate(summaries):
        lines.append(
            f"{index:>5}  {s.mean_latency * 1000:>10,.1f}  "
            f"{s.p99_latency * 1000:>10,.1f}  {s.completed:>4}  "
            f"{s.timeouts:>7}  {s.failures:>6}  {s.cold_starts:>4}"
        )
    mean_mean, mean_lo, mean_hi = stats([s.mean_latency for s in summaries])
    p99_mean, p99_lo, p99_hi = stats([s.p99_latency for s in summaries])
    lines.append(
        f"across {len(summaries)} trials: "
        f"mean latency {mean_mean * 1000:,.1f} ms "
        f"[{mean_lo * 1000:,.1f}-{mean_hi * 1000:,.1f}], "
        f"p99 {p99_mean * 1000:,.1f} ms "
        f"[{p99_lo * 1000:,.1f}-{p99_hi * 1000:,.1f}]"
    )
    return "\n".join(lines)


_ENGINE_NAMES = {
    "worker": "FaaSFlow (WorkerSP+FaaStore)",
    "master": "HyperFlow-serverless (MasterSP)",
    "dataflow": "DataflowSP (function-level triggering + eager shipping)",
}


def _format_summary(summary: RunSummary) -> str:
    lines = [
        f"workflow            {summary.workflow}",
        f"engine              {_ENGINE_NAMES.get(summary.engine, summary.engine)}",
        f"invocations         {summary.invocations} "
        f"({summary.completed} ok, {summary.timeouts} timed out, "
        f"{summary.failures} failed)",
        f"mean latency        {summary.mean_latency * 1000:,.1f} ms",
        f"p99 latency         {summary.p99_latency * 1000:,.1f} ms",
        f"sched overhead      {summary.mean_scheduling_overhead * 1000:,.1f} ms",
        f"data moved          {summary.data_moved_mb:,.2f} MB/invocation "
        f"({summary.local_fraction * 100:.0f}% node-local)",
        f"cold starts         {summary.cold_starts}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="faasflow-run",
        description="Run a WDL workflow (or built-in benchmark) end-to-end.",
    )
    parser.add_argument("workflow", help="WDL YAML file or benchmark name")
    parser.add_argument(
        "--engine", choices=list(ENGINES), default="worker",
        help="worker = FaaSFlow (default); master = HyperFlow-serverless; "
        "dataflow = DataflowSP (function-level dataflow triggering with "
        "eager data shipping)",
    )
    parser.add_argument("--invocations", type=int, default=10)
    parser.add_argument("--workers", type=int, default=7)
    parser.add_argument(
        "--bandwidth", type=float, default=50.0,
        help="storage-node bandwidth in MB/s (default 50)",
    )
    parser.add_argument(
        "--open-loop", type=float, metavar="RATE", default=None,
        help="open-loop arrivals at RATE invocations/minute",
    )
    parser.add_argument(
        "--no-data", action="store_true",
        help="pre-packed inputs: skip the data plane",
    )
    parser.add_argument(
        "--no-feedback", action="store_true",
        help="stay on the hash bootstrap placement",
    )
    parser.add_argument("--prewarm", action="store_true")
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="crash each function execution with probability P",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per function task (default 2)",
    )
    parser.add_argument(
        "--no-eager-ship", action="store_true",
        help="with --engine dataflow: trigger-only dataflow (disable "
        "eager output shipping; the ablation baseline)",
    )
    parser.add_argument(
        "--batch-control", action="store_true",
        help="coalesce same-destination control messages emitted in one "
        "engine step into a single transfer and handler wakeup (changes "
        "per-hop timing, never outcomes; default off)",
    )
    parser.add_argument(
        "--trials", type=int, default=1, metavar="K",
        help="repeat the whole run K times with per-trial derived seeds "
        "and report the spread (default 1)",
    )
    add_jobs_argument(parser)
    parser.add_argument(
        "--seed", type=int, default=13,
        help="base seed for arrivals/faults (trials derive from it)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the first invocation's span tree",
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="export metrics CSVs to DIR"
    )
    parser.add_argument(
        "--trace-out", metavar="DIR", default=None,
        help="record causal spans + resource samples and write the "
        "trace bundle (Perfetto JSON, JSONL spans, samples CSV) to DIR",
    )
    parser.add_argument(
        "--sample-interval", type=float, default=0.25, metavar="SEC",
        help="resource-sampler cadence in simulated seconds (default 0.25)",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="collect streaming metrics (counters/histograms on "
        "simulated time) and write the snapshot to PATH (a directory, "
        "or a .json file); with --trials the per-trial snapshots are "
        "merged deterministically in trial order",
    )
    parser.add_argument(
        "--tenant", default="default",
        help="tenant label on telemetry and SLO reports (default 'default')",
    )
    args = parser.parse_args(argv)
    try:
        dag = _load_dag(args.workflow)
    except WDLError as error:
        print(f"error: invalid workflow definition: {error}", file=sys.stderr)
        return 2
    run_kwargs = dict(
        engine=args.engine,
        invocations=args.invocations,
        workers=args.workers,
        bandwidth_mb=args.bandwidth,
        open_loop_rate=args.open_loop,
        prewarm=args.prewarm,
        ship_data=not args.no_data,
        feedback=not args.no_feedback,
        fault_rate=args.fault_rate,
        max_retries=args.max_retries,
        eager_ship=not args.no_eager_ship,
        batch_control=args.batch_control,
        tenant=args.tenant,
    )
    if args.trials > 1:
        if args.trace_out:
            print(
                "note: --trace-out is ignored with --trials > 1 "
                "(trials run in worker processes)",
                file=sys.stderr,
            )
        if args.telemetry_out:
            run_kwargs["collect_telemetry"] = True
        summaries = run_trials(
            args.workflow,
            trials=args.trials,
            jobs=args.jobs,
            seed=args.seed,
            **run_kwargs,
        )
        print(_format_trials(summaries))
        if args.telemetry_out:
            from .obs.telemetry import merge_snapshots, write_telemetry_json

            merged = merge_snapshots(
                s["telemetry"] for s in summaries
                if s.get("telemetry") is not None
            )
            out = Path(args.telemetry_out)
            if out.suffix == ".json":
                out.parent.mkdir(parents=True, exist_ok=True)
            else:
                out.mkdir(parents=True, exist_ok=True)
                out = out / f"{args.workflow}-telemetry.json"
            write_telemetry_json(out, merged)
            print(f"telemetry snapshot: {out}")
        return 0
    summary = run_workflow(
        dag,
        trace=args.trace,
        seed=args.seed,
        trace_out=args.trace_out,
        sample_interval=args.sample_interval,
        telemetry_out=args.telemetry_out,
        **run_kwargs,
    )
    print(_format_summary(summary))
    if args.trace and summary.records:
        print("\nfirst invocation span tree:")
        print(summary.spans.format_tree(summary.records[0].invocation_id))
    if args.csv:
        from .metrics.export import export_metrics

        paths = export_metrics(summary.metrics, args.csv, prefix=dag.name)
        print(f"\nmetrics exported: {paths['invocations']}, {paths['transfers']}")
    if summary.trace_paths:
        print(
            f"\ntrace bundle: {summary.trace_paths['perfetto']} "
            f"(open in https://ui.perfetto.dev; inspect with faasflow-trace)"
        )
    if summary.telemetry_path:
        print(
            f"telemetry snapshot: {summary.telemetry_path} "
            f"(inspect with faasflow-trace report / slo)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
