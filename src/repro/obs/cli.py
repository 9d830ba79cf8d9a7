"""``faasflow-trace``: inspect and export trace + telemetry bundles.

Operates on a trace directory written by ``faasflow-run --trace-out``
or ``faasflow-experiment --trace-out`` (or directly on one
``*-spans.jsonl`` file)::

    faasflow-trace out/                      # summary of every bundle
    faasflow-trace out/ --tree               # span tree, first invocation
    faasflow-trace out/ --tree 42            # span tree of invocation 42
    faasflow-trace out/ --top 10             # 10 slowest function spans
    faasflow-trace out/ --nodes              # per-node utilization table
    faasflow-trace out/ --export-perfetto trace.json
    faasflow-trace out/ --validate           # CI: parse + invariant checks

Telemetry snapshots (``--telemetry-out`` output) have their own
subcommands::

    faasflow-trace report out/               # workflow/data/net/container rollup
    faasflow-trace slo out/ --latency-target 2.0 --objective 95

``--validate`` covers telemetry snapshots too (bucket-count and
window-sum invariants), so a ``--telemetry-out`` bundle with no span
files (a merged ``--trials`` snapshot, say) still validates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .export import (
    chrome_trace,
    read_spans_jsonl,
    validate_chrome_trace,
)
from .sampler import ResourceSampler, read_samples_csv
from .spans import (
    BREAKDOWN_COMPONENTS,
    Span,
    SpanKind,
    decompose,
    format_span_tree,
)
from .telemetry import (
    LogHistogram,
    find_metrics,
    merge_snapshots,
    read_telemetry_json,
    validate_snapshot,
)

__all__ = ["main"]


def _format_table(headers, rows) -> str:
    from ..experiments.common import format_table

    return format_table(headers, rows)


class TraceBundle:
    """One run's loaded spans (+ optional samples)."""

    def __init__(self, spans_path: Path):
        self.spans_path = spans_path
        self.spans, self.meta = read_spans_jsonl(spans_path)
        self.name = spans_path.name.replace("-spans.jsonl", "")
        samples_path = spans_path.with_name(f"{self.name}-samples.csv")
        self.samples = (
            read_samples_csv(samples_path) if samples_path.exists() else []
        )

    @property
    def dropped(self) -> int:
        return self.meta.get("dropped", 0)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.kind == SpanKind.INVOCATION]

    def spans_of(self, invocation_id: int) -> list[Span]:
        return [s for s in self.spans if s.invocation_id == invocation_id]

    def breakdown(self, root: Span) -> dict[str, float]:
        end = root.end if root.end is not None else root.start
        return decompose(
            self.spans_of(root.invocation_id), (root.start, end)
        )


def _discover(path: Path, require: bool = True) -> list[TraceBundle]:
    if path.is_file():
        return [TraceBundle(path)]
    bundles = [
        TraceBundle(p) for p in sorted(path.glob("*-spans.jsonl"))
    ]
    if not bundles and require:
        raise SystemExit(
            f"error: no *-spans.jsonl files under {path} "
            "(expected a --trace-out directory or a spans JSONL file)"
        )
    return bundles


def _discover_telemetry(path: Path, require: bool = True) -> list[Path]:
    """Telemetry snapshot files under ``path`` (or ``path`` itself)."""
    if path.is_file():
        return [path]
    found = sorted(path.glob("*-telemetry.json"))
    if not found and require:
        raise SystemExit(
            f"error: no *-telemetry.json files under {path} "
            "(expected --telemetry-out output or a telemetry JSON file)"
        )
    return found


def _function_spans(bundle: TraceBundle) -> list[Span]:
    return [s for s in bundle.spans if s.kind == SpanKind.FUNCTION]


def _summary(bundle: TraceBundle, top: int) -> str:
    roots = bundle.roots()
    lines = [f"== {bundle.name} =="]
    lines.append(
        f"spans               {len(bundle.spans)}"
        + (f" ({bundle.dropped} dropped, oldest first)" if bundle.dropped else "")
    )
    statuses: dict[str, int] = {}
    for root in roots:
        status = root.attrs.get("result", root.status)
        statuses[status] = statuses.get(status, 0) + 1
    status_text = ", ".join(f"{v} {k}" for k, v in sorted(statuses.items()))
    lines.append(f"invocations         {len(roots)} ({status_text})")
    if roots:
        totals = dict.fromkeys(BREAKDOWN_COMPONENTS, 0.0)
        e2e = 0.0
        for root in roots:
            for key, value in bundle.breakdown(root).items():
                totals[key] += value
            e2e += root.duration
        lines.append("mean latency decomposition per invocation:")
        for key in BREAKDOWN_COMPONENTS:
            mean = totals[key] / len(roots) * 1000
            share = totals[key] / e2e * 100 if e2e else 0.0
            lines.append(f"  {key:<11} {mean:>10,.2f} ms  ({share:4.1f}%)")
    slowest = sorted(
        _function_spans(bundle), key=lambda s: s.duration, reverse=True
    )[:top]
    if slowest:
        lines.append(f"top {len(slowest)} slowest function spans:")
        for span in slowest:
            lines.append(
                f"  {span.duration * 1000:>10,.2f} ms  {span.function}"
                f" @{span.node}  (invocation {span.invocation_id})"
            )
    return "\n".join(lines)


def _nodes_table(bundle: TraceBundle) -> str:
    if not bundle.samples:
        return f"== {bundle.name} ==\n(no samples recorded)"
    sampler = ResourceSampler.__new__(ResourceSampler)
    sampler.samples = bundle.samples
    rows = sampler.node_table()
    return f"== {bundle.name} ==\n" + _format_table(
        ResourceSampler.NODE_TABLE_HEADERS, rows
    )


def _load_snapshots(path: Path, merge: bool) -> list[tuple[str, dict]]:
    """(name, snapshot) pairs from a path; one merged pair if ``merge``."""
    files = _discover_telemetry(path)
    named = [
        (p.name.replace("-telemetry.json", ""), read_telemetry_json(p))
        for p in files
    ]
    if merge and len(named) > 1:
        return [("merged", merge_snapshots(snap for _n, snap in named))]
    return named


def _pair_histogram(snapshot: dict, name: str, **labels) -> LogHistogram:
    hist = LogHistogram()
    for entry in find_metrics(snapshot, name, **labels):
        hist.merge(LogHistogram.from_dict(entry))
    return hist


def _counter_total(snapshot: dict, name: str, **labels) -> float:
    return sum(e["total"] for e in find_metrics(snapshot, name, **labels))


def _format_report(name: str, snapshot: dict) -> str:
    lines = [f"== {name} =="]
    # Per-(tenant, workflow, engine) rollup off the engine emits.
    groups: list[tuple[str, str, str]] = []
    for entry in find_metrics(snapshot, "workflow.latency"):
        labels = entry["labels"]
        key = (
            labels.get("tenant", "default"),
            labels.get("workflow", ""),
            labels.get("engine", ""),
        )
        if key not in groups:
            groups.append(key)
    rows = []
    for tenant, workflow, engine in sorted(groups):
        sel = dict(tenant=tenant, workflow=workflow, engine=engine)
        hist = _pair_histogram(snapshot, "workflow.latency", **sel)
        total = 0
        errors = 0
        for entry in find_metrics(snapshot, "workflow.invocations", **sel):
            count = int(entry["total"])
            total += count
            if entry["labels"].get("status", "ok") != "ok":
                errors += count
        rows.append(
            [
                tenant,
                workflow,
                engine,
                total,
                errors,
                hist.mean * 1000,
                hist.quantile(50) * 1000 if hist.count else 0.0,
                hist.quantile(99) * 1000 if hist.count else 0.0,
                int(_counter_total(snapshot, "workflow.cold_starts", **sel)),
                int(_counter_total(snapshot, "workflow.retries", **sel)),
            ]
        )
    if rows:
        lines.append(
            _format_table(
                [
                    "tenant", "workflow", "engine", "invocations", "errors",
                    "mean (ms)", "p50 (ms)", "p99 (ms)", "cold", "retries",
                ],
                rows,
            )
        )
    else:
        lines.append("(no workflow invocations recorded)")
    data_bytes = _counter_total(snapshot, "data.bytes")
    if data_bytes:
        local = _counter_total(snapshot, "data.bytes", local="local")
        spills = _counter_total(snapshot, "data.spills")
        lines.append(
            f"data plane          {data_bytes / 1e6:,.2f} MB moved "
            f"({local / data_bytes * 100:.0f}% node-local, "
            f"{int(spills)} spills)"
        )
    net_bytes = _counter_total(snapshot, "net.bytes")
    if net_bytes:
        kinds = sorted(
            {
                e["labels"].get("kind", "")
                for e in find_metrics(snapshot, "net.bytes")
            }
        )
        by_kind = ", ".join(
            f"{kind} {_counter_total(snapshot, 'net.bytes', kind=kind) / 1e6:,.2f} MB"
            for kind in kinds
        )
        transfers = int(_counter_total(snapshot, "net.transfers"))
        lines.append(
            f"network             {net_bytes / 1e6:,.2f} MB over "
            f"{transfers} transfers ({by_kind})"
        )
    cold = int(_counter_total(snapshot, "container.cold_starts"))
    warm = int(_counter_total(snapshot, "container.warm_reuses"))
    if cold or warm:
        evict = int(_counter_total(snapshot, "container.evictions"))
        crash = int(_counter_total(snapshot, "container.crashes"))
        lines.append(
            f"containers          {cold} cold starts, {warm} warm reuses, "
            f"{evict} evictions, {crash} crashes"
        )
    return "\n".join(lines)


def _windows_timeline(snapshot: dict) -> str:
    """Invocations per simulated-time window (engine status counters)."""
    windows: dict[int, float] = {}
    for entry in find_metrics(snapshot, "workflow.invocations"):
        for window, value in entry.get("windows", {}).items():
            windows[int(window)] = windows.get(int(window), 0.0) + value
    if not windows:
        return "(no windowed invocation data)"
    width = float(snapshot.get("window", 1.0))
    peak = max(windows.values())
    lines = ["simulated-time invocation rate:"]
    for index in sorted(windows):
        count = windows[index]
        bar = "#" * max(1, int(round(count / peak * 40)))
        lines.append(
            f"  [{index * width:>8.1f}s) {int(count):>6}  {bar}"
        )
    return "\n".join(lines)


def _report_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="faasflow-trace report",
        description="Roll up telemetry snapshots: per-tenant/workflow "
        "latency sketches, data-plane and network totals, container "
        "lifecycle counts.",
    )
    parser.add_argument(
        "path", help="--telemetry-out output (directory or .json file)"
    )
    parser.add_argument(
        "--merge", action="store_true",
        help="merge every discovered snapshot into one report",
    )
    parser.add_argument(
        "--windows", action="store_true",
        help="also print the per-window invocation-rate timeline",
    )
    args = parser.parse_args(argv)
    for name, snapshot in _load_snapshots(Path(args.path), args.merge):
        print(_format_report(name, snapshot))
        if args.windows:
            print(_windows_timeline(snapshot))
        print()
    return 0


def _slo_main(argv: list[str]) -> int:
    from .slo import SLOTarget, SLOTracker, load_targets

    parser = argparse.ArgumentParser(
        prog="faasflow-trace slo",
        description="Evaluate per-tenant/per-workflow SLO targets "
        "(latency attainment, error rate, burn rate) against telemetry "
        "snapshots.",
    )
    parser.add_argument(
        "path", help="--telemetry-out output (directory or .json file)"
    )
    parser.add_argument(
        "--latency-target", type=float, default=None, metavar="SEC",
        help="wildcard latency target in seconds (applies to every "
        "(tenant, workflow) pair without a more specific target)",
    )
    parser.add_argument(
        "--objective", type=float, default=95.0, metavar="PCT",
        help="percent of invocations that must attain the latency "
        "target (default 95)",
    )
    parser.add_argument(
        "--error-budget", type=float, default=0.01, metavar="FRAC",
        help="allowed fraction of failed invocations (default 0.01)",
    )
    parser.add_argument(
        "--targets", metavar="FILE", default=None,
        help="JSON file of per-(tenant, workflow) SLO targets",
    )
    parser.add_argument(
        "--merge", action="store_true",
        help="merge every discovered snapshot before evaluating",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any target is burning over budget",
    )
    args = parser.parse_args(argv)
    targets = []
    if args.targets:
        targets.extend(load_targets(args.targets))
    if args.latency_target is not None:
        targets.append(
            SLOTarget(
                latency_target=args.latency_target,
                objective=args.objective,
                error_budget=args.error_budget,
            )
        )
    if not targets:
        raise SystemExit(
            "error: no SLO targets (pass --latency-target and/or --targets)"
        )
    tracker = SLOTracker(targets)
    violated = 0
    for name, snapshot in _load_snapshots(Path(args.path), args.merge):
        reports = tracker.evaluate(snapshot)
        print(f"== {name} ==")
        if not reports:
            print("(no (tenant, workflow) pairs with latency data)")
            print()
            continue
        rows = []
        for report in reports:
            if not report.met:
                violated += 1
            rows.append(
                [
                    report.tenant,
                    report.workflow,
                    f"{report.target.latency_target * 1000:,.0f}ms"
                    f"@p{report.target.objective:g}",
                    report.invocations,
                    f"{report.attainment * 100:.1f}%",
                    f"{report.error_rate * 100:.2f}%",
                    f"{report.p99 * 1000:,.1f}",
                    f"{report.burn_rate:.2f}",
                    "OK" if report.met else "BURNING",
                ]
            )
        print(
            _format_table(
                [
                    "tenant", "workflow", "target", "invocations",
                    "attainment", "errors", "p99 (ms)", "burn", "status",
                ],
                rows,
            )
        )
        print()
    return 1 if args.strict and violated else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "slo":
        return _slo_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="faasflow-trace",
        description="Summarize, inspect, validate, and export trace "
        "bundles (subcommands: report, slo for telemetry snapshots).",
    )
    parser.add_argument(
        "path", help="trace directory (--trace-out output) or a spans.jsonl"
    )
    parser.add_argument(
        "--tree", nargs="?", const=-1, type=int, metavar="INV",
        help="print a span tree (of invocation INV, default the first)",
    )
    parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="N slowest function spans in the summary (default 5)",
    )
    parser.add_argument(
        "--nodes", action="store_true",
        help="per-node utilization table from the resource samples",
    )
    parser.add_argument(
        "--export-perfetto", metavar="OUT",
        help="write a merged Chrome trace-event JSON for Perfetto",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="check every bundle parses and its spans are well-nested",
    )
    args = parser.parse_args(argv)

    if args.validate:
        path = Path(args.path)
        if path.is_file() and path.name.endswith("-telemetry.json"):
            bundles = []
            telemetry_files = [path]
        else:
            bundles = _discover(path, require=False)
            telemetry_files = (
                _discover_telemetry(path, require=False)
                if path.is_dir()
                else []
            )
        if not bundles and not telemetry_files:
            raise SystemExit(
                f"error: nothing to validate under {args.path} "
                "(no *-spans.jsonl or *-telemetry.json files)"
            )
        failures = 0
        for bundle in bundles:
            document = chrome_trace(bundle.spans, samples=bundle.samples)
            problems = validate_chrome_trace(document)
            trace_path = bundle.spans_path.with_name(
                f"{bundle.name}-trace.json"
            )
            if trace_path.exists():
                problems += validate_chrome_trace(
                    json.loads(trace_path.read_text())
                )
            if problems:
                failures += 1
                print(f"INVALID {bundle.name}:")
                for problem in problems[:10]:
                    print(f"  - {problem}")
            else:
                print(
                    f"ok {bundle.name}: {len(bundle.spans)} spans, "
                    f"{len(bundle.roots())} invocations, well-nested"
                )
        for telemetry_path in telemetry_files:
            name = telemetry_path.name.replace("-telemetry.json", "")
            try:
                snapshot = read_telemetry_json(telemetry_path)
                problems = validate_snapshot(snapshot)
            except (json.JSONDecodeError, OSError) as error:
                problems = [str(error)]
                snapshot = {"metrics": []}
            if problems:
                failures += 1
                print(f"INVALID {name} (telemetry):")
                for problem in problems[:10]:
                    print(f"  - {problem}")
            else:
                print(
                    f"ok {name}: {len(snapshot['metrics'])} metric "
                    f"series, invariants hold"
                )
        return 1 if failures else 0

    bundles = _discover(Path(args.path))

    if args.export_perfetto:
        spans: list[Span] = []
        samples = []
        dropped = 0
        for bundle in bundles:
            spans.extend(bundle.spans)
            samples.extend(bundle.samples)
            dropped += bundle.dropped
        document = chrome_trace(spans, samples=samples, dropped=dropped)
        Path(args.export_perfetto).write_text(json.dumps(document))
        print(
            f"wrote {args.export_perfetto}: {len(spans)} spans from "
            f"{len(bundles)} bundle(s) — open at https://ui.perfetto.dev"
        )
        return 0

    if args.tree is not None:
        bundle = bundles[0]
        roots = bundle.roots()
        if not roots:
            print("no invocations in trace")
            return 1
        invocation_id = (
            roots[0].invocation_id if args.tree == -1 else args.tree
        )
        spans = bundle.spans_of(invocation_id)
        if not spans:
            known = ", ".join(str(r.invocation_id) for r in roots[:20])
            print(
                f"no spans for invocation {invocation_id} "
                f"(known invocations: {known})"
            )
            return 1
        print(f"invocation {invocation_id} ({bundle.name}):")
        print(format_span_tree(spans))
        return 0

    if args.nodes:
        for bundle in bundles:
            print(_nodes_table(bundle))
            print()
        return 0

    for bundle in bundles:
        print(_summary(bundle, args.top))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped into head/less and the reader left; not an error.
        sys.exit(0)
