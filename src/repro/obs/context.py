"""Ambient trace collection for the experiment harness.

The paper-reproduction experiments build their own clusters and systems
internally (one fresh cluster per cell), so a caller-supplied tracer
cannot reach them through arguments without threading a parameter
through every experiment.  Instead, ``faasflow-experiment --trace-out``
activates a :class:`TraceCollector`; ``make_cluster`` (the shared
cluster factory every experiment uses) asks the active collector to
instrument each cluster it builds — a span tracer is installed on the
cluster's producers and a resource sampler starts ticking — and the CLI
flushes one trace bundle per instrumented run at the end.

Worker processes spawned by ``--jobs`` never inherit the collector, so
parallel sweeps simply emit no spans from their children; run tracing
with ``--jobs 1`` (the default) to capture everything.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .export import export_trace
from .sampler import ResourceSampler
from .spans import SpanTracer
from .telemetry import MetricsRegistry

__all__ = ["TraceCollector", "activate", "deactivate", "active_collector"]

_active: Optional["TraceCollector"] = None


class TraceCollector:
    """Accumulates per-run tracers/samplers/registries for later export."""

    def __init__(
        self,
        directory: Union[str, Path],
        sample_interval: float = 0.25,
        span_limit: int = 1_000_000,
        spans: bool = True,
        telemetry: bool = False,
        telemetry_directory: Union[str, Path, None] = None,
    ):
        self.directory = Path(directory)
        self.sample_interval = sample_interval
        self.span_limit = span_limit
        self.spans = spans
        self.telemetry = telemetry
        self.telemetry_directory = (
            Path(telemetry_directory)
            if telemetry_directory is not None
            else self.directory
        )
        self.label = "run"
        self._runs: list[tuple] = []

    def set_label(self, label: str) -> None:
        """Name the bundles of subsequently instrumented clusters."""
        self.label = label

    def instrument(self, cluster) -> Optional[SpanTracer]:
        """Attach one fresh tracer, with the sinks asked for, to a newly
        built cluster."""
        env = cluster.env
        registry = (
            MetricsRegistry(clock=lambda: env.now) if self.telemetry else None
        )
        tracer = None
        sampler = None
        if self.spans or registry is not None:
            tracer = SpanTracer(
                env, limit=self.span_limit, retain=self.spans,
                telemetry=registry,
            )
            cluster.install_spans(tracer)
        if self.spans:
            sampler = ResourceSampler(cluster, interval=self.sample_interval)
            sampler.start()
        self._runs.append(
            (self.label, tracer if self.spans else None, sampler, registry)
        )
        return tracer

    def flush(self) -> list[Path]:
        """Write one bundle per instrumented run; returns all paths."""
        from .telemetry import write_telemetry_json

        paths: list[Path] = []
        counters: dict[str, int] = {}
        for label, tracer, sampler, registry in self._runs:
            counters[label] = counters.get(label, 0) + 1
            prefix = f"{label}-{counters[label]:03d}"
            if tracer is not None:
                bundle = export_trace(
                    self.directory, tracer, sampler=sampler, prefix=prefix
                )
                paths.extend(bundle.values())
            if registry is not None:
                self.telemetry_directory.mkdir(parents=True, exist_ok=True)
                paths.append(
                    write_telemetry_json(
                        self.telemetry_directory
                        / f"{prefix}-telemetry.json",
                        registry,
                    )
                )
        self._runs.clear()
        return paths

    @property
    def run_count(self) -> int:
        return len(self._runs)


def activate(collector: TraceCollector) -> None:
    global _active
    _active = collector


def deactivate() -> None:
    global _active
    _active = None


def active_collector() -> Optional[TraceCollector]:
    return _active
