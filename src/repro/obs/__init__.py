"""Observability: causal spans, resource telemetry, trace exporters.

The measurement layer the paper's analysis needs (§2.3, §5): every
invocation becomes a span tree with per-stage child spans, the
simulation substrate contributes node-track spans (network transfers,
container lifecycle, FaaStore spills), and time-series samplers
snapshot per-node resources on a simulated-time cadence.  Traces export
as Chrome trace-event JSON (Perfetto / ``chrome://tracing``) and JSONL,
inspected with the ``faasflow-trace`` CLI.

Spans are the one emission API, opt-in and zero-cost when disabled:
producers hold the :data:`NULL_SPANS` singleton whose methods are
no-ops.  A :class:`SpanTracer` hands each finished span to its sinks:
the bounded span ring (exporters, breakdowns) and/or a streaming
:class:`MetricsRegistry` (:mod:`repro.obs.telemetry`), the
constant-memory counterpart that folds spans into counters and
log-bucketed mergeable histograms keyed by labeled dimensions, windowed
on simulated time, with a deterministic merge so multi-trial runs
aggregate identically for any number of worker processes.  SLO targets
are evaluated over snapshots with :class:`SLOTracker`.
"""

from .export import (
    chrome_trace,
    export_trace,
    read_spans_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from .sampler import (
    ResourceSampler,
    Sample,
    read_samples_csv,
    write_samples_csv,
)
from .slo import (
    SLOReport,
    SLOTarget,
    SLOTracker,
    load_targets,
)
from .spans import (
    BREAKDOWN_COMPONENTS,
    NULL_SPANS,
    NullSpanTracer,
    Span,
    SpanKind,
    SpanTracer,
    category_of,
    decompose,
    format_span_tree,
    span_tree,
)
from .telemetry import (
    Counter,
    LogHistogram,
    MetricsRegistry,
    merge_snapshots,
    read_telemetry_json,
    validate_snapshot,
    write_telemetry_json,
)

__all__ = [
    "BREAKDOWN_COMPONENTS",
    "Counter",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_SPANS",
    "NullSpanTracer",
    "SLOReport",
    "SLOTarget",
    "SLOTracker",
    "ResourceSampler",
    "Sample",
    "Span",
    "SpanKind",
    "SpanTracer",
    "category_of",
    "chrome_trace",
    "decompose",
    "export_trace",
    "format_span_tree",
    "load_targets",
    "merge_snapshots",
    "read_samples_csv",
    "read_spans_jsonl",
    "read_telemetry_json",
    "span_tree",
    "validate_chrome_trace",
    "validate_snapshot",
    "write_chrome_trace",
    "write_samples_csv",
    "write_spans_jsonl",
    "write_telemetry_json",
]
