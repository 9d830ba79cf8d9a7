"""Streaming telemetry: mergeable metric sketches on simulated time.

The dashboard layer the per-run span traces cannot be: the span ring
keeps one object per occurrence (bounded, post-hoc analysis), while a
:class:`MetricsRegistry` folds every finished span into constant-memory
instruments the moment it ends — counters and log-bucketed histograms
with exact count/sum and bounded-relative-error quantiles — keyed by
labeled dimensions (tenant, workflow, function, node, engine, phase)
and windowed into a time series on *simulated* time.

Three properties carry the design:

- **One emission API.**  Producers report facts only as spans; a
  registry is a sink of a :class:`~repro.obs.spans.SpanTracer`
  (``SpanTracer(env, retain=False, telemetry=registry)`` for telemetry
  alone), and :meth:`MetricsRegistry.fold` maps each span kind to the
  ``function.*``, ``container.*``, ``data.*``, ``net.*`` and
  ``workflow.*`` instruments.  With no tracer installed a producer pays
  one ``spans.enabled`` check per site.
- **Mergeable.**  Every instrument has an exact, deterministic merge:
  counters and histogram buckets add.  A multi-trial run
  (``faasflow-run --trials``) collects one registry per trial and
  merges their :meth:`~MetricsRegistry.snapshot`\\ s with
  :func:`merge_snapshots`; because the merge runs in trial order over
  per-trial values that do not depend on which worker process ran the
  trial, the merged telemetry is identical for any ``--jobs`` (asserted
  in the test suite and in ``benchmarks/test_bench_obs.py``).
- **Bounded error.**  Histogram buckets grow geometrically (default
  ``growth=1.1``), so any quantile read off a bucket's upper bound is
  within a factor ``growth`` of the true order statistic while
  ``count``/``sum``/``min``/``max`` stay exact.

Snapshots are plain JSON-able dicts (see :meth:`MetricsRegistry
.snapshot`) written as ``*-telemetry.json`` files and inspected with
``faasflow-trace report`` / ``faasflow-trace slo``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from .spans import SpanKind

__all__ = [
    "LogHistogram",
    "Counter",
    "MetricsRegistry",
    "merge_snapshots",
    "write_telemetry_json",
    "read_telemetry_json",
    "validate_snapshot",
    "metric_key",
    "find_metrics",
    "record_invocation_metrics",
]

PathLike = Union[str, Path]

DEFAULT_GROWTH = 1.1
DEFAULT_WINDOW = 1.0


def metric_key(name: str, labels: dict) -> tuple:
    """Canonical instrument identity: name + sorted label items."""
    return (name, tuple(sorted(labels.items())))


class LogHistogram:
    """Log-bucketed streaming histogram with exact count/sum/min/max.

    Positive values land in bucket ``ceil(log(v) / log(growth))`` (the
    bucket covering ``(growth**(i-1), growth**i]``); zeros are counted
    separately; negative values are rejected.  Quantiles come off a
    bucket's upper bound, clamped to the exact observed ``[min, max]``,
    so their relative error is bounded by ``growth - 1``.
    """

    __slots__ = (
        "growth", "count", "sum", "min", "max", "zeros", "buckets",
        "windows", "_log_growth", "_sorted",
    )

    def __init__(self, growth: float = DEFAULT_GROWTH):
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zeros = 0
        self.buckets: dict[int, int] = {}
        # Sorted bucket indices, rebuilt lazily by quantile(): most
        # observations hit existing buckets, so quantile sweeps over
        # large snapshots stop paying O(B log B) per call.
        self._sorted: Optional[list[int]] = None
        # window index -> [count, sum]: the simulated-time series.
        self.windows: dict[int, list] = {}

    def bucket_index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_growth - 1e-12))

    def bucket_upper(self, index: int) -> float:
        return self.growth ** index

    def observe(self, value: float, window: Optional[int] = None) -> None:
        if value < 0:
            raise ValueError(f"histogram value must be >= 0, got {value}")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zeros += 1
        else:
            index = self.bucket_index(value)
            existing = self.buckets.get(index)
            if existing is None:
                self.buckets[index] = 1
                self._sorted = None  # a new bucket key invalidates the order
            else:
                self.buckets[index] = existing + 1
        if window is not None:
            slot = self.windows.get(window)
            if slot is None:
                self.windows[window] = [1, value]
            else:
                slot[0] += 1
                slot[1] += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic bounded-error quantile (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"quantile q={q} outside [0, 100]")
        if self.count == 0:
            raise ValueError("quantile of empty histogram")
        if q == 0:
            return self.min
        if q == 100:
            return self.max
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.zeros
        if rank <= seen:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.buckets)
        for index in self._sorted:
            seen += self.buckets[index]
            if rank <= seen:
                # Clamp to the exact envelope so e.g. a single-bucket
                # histogram still reports values it actually saw.
                return min(max(self.bucket_upper(index), self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def fraction_below(self, threshold: float) -> float:
        """Fraction of observations whose bucket bound is <= threshold.

        Deterministic and conservative: the bucket containing
        ``threshold`` counts only if its upper bound fits, so the answer
        never overstates attainment by more than one bucket's width.
        """
        if self.count == 0:
            return 1.0
        if threshold < 0:
            return 0.0
        attained = self.zeros
        for index, count in self.buckets.items():
            if self.bucket_upper(index) <= threshold:
                attained += count
        return attained / self.count

    def merge(self, other: "LogHistogram") -> None:
        if other.growth != self.growth:
            raise ValueError(
                f"cannot merge histograms with growth {self.growth} != "
                f"{other.growth}"
            )
        self.count += other.count
        self.sum += other.sum
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        self.zeros += other.zeros
        if other.buckets:
            self._sorted = None
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        for window, (count, total) in other.windows.items():
            slot = self.windows.get(window)
            if slot is None:
                self.windows[window] = [count, total]
            else:
                slot[0] += count
                slot[1] += total

    def to_dict(self) -> dict:
        out = {
            "growth": self.growth,
            "count": self.count,
            "sum": self.sum,
            "zeros": self.zeros,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
            "windows": {
                str(window): list(self.windows[window])
                for window in sorted(self.windows)
            },
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        hist = cls(growth=data.get("growth", DEFAULT_GROWTH))
        hist.count = data["count"]
        hist.sum = data["sum"]
        hist.zeros = data.get("zeros", 0)
        hist.min = data.get("min", math.inf)
        hist.max = data.get("max", -math.inf)
        hist.buckets = {
            int(index): count for index, count in data["buckets"].items()
        }
        hist.windows = {
            int(window): list(pair)
            for window, pair in data.get("windows", {}).items()
        }
        return hist


class Counter:
    """A monotone float total with a per-window delta series."""

    __slots__ = ("total", "windows")

    def __init__(self):
        self.total = 0.0
        self.windows: dict[int, float] = {}

    def inc(self, value: float = 1.0, window: Optional[int] = None) -> None:
        if value < 0:
            raise ValueError(f"counter increments must be >= 0, got {value}")
        self.total += value
        if window is not None:
            self.windows[window] = self.windows.get(window, 0.0) + value

    def merge(self, other: "Counter") -> None:
        self.total += other.total
        for window, value in other.windows.items():
            self.windows[window] = self.windows.get(window, 0.0) + value

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "windows": {
                str(window): self.windows[window]
                for window in sorted(self.windows)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Counter":
        counter = cls()
        counter.total = data["total"]
        counter.windows = {
            int(window): value
            for window, value in data.get("windows", {}).items()
        }
        return counter


_KINDS = {"counter": Counter, "histogram": LogHistogram}


class MetricsRegistry:
    """Get-or-create instrument store keyed by (name, labels).

    ``clock`` is a zero-argument callable returning the current
    *simulated* time (usually ``lambda: env.now``); observations fall
    into window ``int(now // window)`` of that clock.  Both emit
    shortcuts (:meth:`inc`, :meth:`observe`) accept labels as keyword
    arguments; instrumented runs fill the registry through
    :meth:`fold`.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        window: float = DEFAULT_WINDOW,
        growth: float = DEFAULT_GROWTH,
    ):
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.window = float(window)
        self.growth = float(growth)
        # (name, labels-tuple) -> (kind, labels-dict, instrument)
        self._instruments: dict[tuple, tuple] = {}
        # (kind, name, label names, *label values) -> instrument: see
        # _instrument.
        self._series: dict[tuple, object] = {}

    def _window_index(self) -> int:
        return int(self.clock() // self.window)

    def _get(self, kind: str, name: str, labels: dict):
        key = metric_key(name, labels)
        entry = self._instruments.get(key)
        if entry is None:
            if kind == "histogram":
                instrument = LogHistogram(growth=self.growth)
            else:
                instrument = _KINDS[kind]()
            self._instruments[key] = (kind, dict(labels), instrument)
            return instrument
        if entry[0] != kind:
            raise ValueError(
                f"metric {name!r} {labels} already registered as {entry[0]}, "
                f"requested as {kind}"
            )
        return entry[2]

    def _instrument(
        self, kind: str, name: str, label_names: tuple, values: tuple
    ):
        """The ``kind`` instrument ``name`` with ``label_names`` set to
        ``values``: every emission looks its instrument up here.  Keyed
        by the names and values in the caller's order, so a repeat
        emission builds and sorts no label dict; a new key files the
        instrument under its canonical :func:`metric_key`."""
        key = (kind, name, label_names, *values)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = self._get(
                kind, name, dict(zip(label_names, values))
            )
        return instrument

    # -- instrument access ----------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self._instrument(
            "counter", name, tuple(labels), tuple(labels.values())
        )

    def histogram(self, name: str, **labels) -> LogHistogram:
        return self._instrument(
            "histogram", name, tuple(labels), tuple(labels.values())
        )

    # -- emit shortcuts ---------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        self._instrument(
            "counter", name, tuple(labels), tuple(labels.values())
        ).inc(value, self._window_index())

    def observe(self, name: str, value: float, **labels) -> None:
        self._instrument(
            "histogram", name, tuple(labels), tuple(labels.values())
        ).observe(value, self._window_index())

    def fold(self, span) -> None:
        """Fold one finished span into the instruments it reports.

        The telemetry sink of a :class:`~repro.obs.spans.SpanTracer`,
        called as each span ends, so the window is the end's simulated
        time.  Span kinds without instruments are ignored.
        """
        fold = _FOLDS.get(span.kind)
        if fold is not None:
            fold(self, span, self._window_index())

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """Deterministic JSON-able dump of every instrument."""
        metrics = []
        for key in sorted(self._instruments):
            kind, labels, instrument = self._instruments[key]
            metrics.append(
                {
                    "kind": kind,
                    "name": key[0],
                    "labels": {k: labels[k] for k in sorted(labels)},
                    **instrument.to_dict(),
                }
            )
        return {
            "type": "telemetry",
            "window": self.window,
            "growth": self.growth,
            "metrics": metrics,
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a snapshot's instruments into this registry."""
        for entry in snapshot.get("metrics", []):
            kind = entry["kind"]
            instrument = self._get(kind, entry["name"], entry["labels"])
            instrument.merge(_KINDS[kind].from_dict(entry))

    def clear(self) -> None:
        self._instruments.clear()
        self._series.clear()


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge telemetry snapshots in the given (deterministic) order.

    Counters and histogram buckets add.  Merging per-trial snapshots in
    trial order performs the identical float addition sequence no matter
    how many processes produced them, which is what makes merged
    multi-trial telemetry the same for any number of worker processes.
    """
    snapshots = list(snapshots)
    window = DEFAULT_WINDOW
    growth = DEFAULT_GROWTH
    for snapshot in snapshots:
        window = snapshot.get("window", window)
        growth = snapshot.get("growth", growth)
        break
    registry = MetricsRegistry(window=window, growth=growth)
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


def record_invocation_metrics(
    telemetry, record, tenant: str, engine: str
) -> None:
    """Fold one finished invocation into the registry.

    What an engine's ``invocation`` root span reports when it ends
    (its ``value`` is ``(record, tenant, engine)``): latency and
    scheduling overhead into histograms, plus status / cold-start /
    retry counters, all labeled (tenant, workflow, engine).
    """
    labels = dict(tenant=tenant, workflow=record.workflow, engine=engine)
    telemetry.observe("workflow.latency", record.latency, **labels)
    telemetry.observe(
        "workflow.scheduling_overhead", record.scheduling_overhead, **labels
    )
    telemetry.inc("workflow.invocations", 1.0, status=record.status, **labels)
    if record.cold_starts:
        telemetry.inc("workflow.cold_starts", float(record.cold_starts), **labels)
    if record.retries:
        telemetry.inc("workflow.retries", float(record.retries), **labels)


def _measured(span) -> float:
    """The producer's measurement if it handed one over, else the
    duration (``end - start`` can differ from a value measured another
    way in the last bit, which would move a histogram's ``sum``)."""
    return span.end - span.start if span.value is None else span.value


def _fold_invocation(registry: MetricsRegistry, span, window: int) -> None:
    # A root ended without an outcome (a bare tracer) reports nothing.
    if span.value is not None:
        record_invocation_metrics(registry, *span.value)


def _fold_retry(registry: MetricsRegistry, span, window: int) -> None:
    registry._instrument(
        "counter", "function.retries",
        ("workflow", "function", "node", "cause"),
        (span.workflow, span.function, span.node, span.attrs["cause"]),
    ).inc(1.0, window)


def _fold_queue_wait(registry: MetricsRegistry, span, window: int) -> None:
    registry._instrument(
        "histogram", "function.queue_wait_seconds",
        ("workflow", "function", "node", "resource"),
        (span.workflow, span.function, span.node, span.attrs["resource"]),
    ).observe(_measured(span), window)


def _fold_execute(registry: MetricsRegistry, span, window: int) -> None:
    registry._instrument(
        "histogram", "function.execute_seconds",
        ("workflow", "function", "node", "status"),
        (span.workflow, span.function, span.node, span.status),
    ).observe(_measured(span), window)


_CONTAINER_COUNTERS = {
    "warm-reuse": "container.warm_reuses",
    "cold-start": "container.cold_starts",
    "crash": "container.crashes",
    "evict": "container.evictions",
}


def _fold_container(registry: MetricsRegistry, span, window: int) -> None:
    lifecycle = span.attrs["lifecycle"]
    values = (span.node, span.function)
    registry._instrument(
        "counter", _CONTAINER_COUNTERS[lifecycle], ("node", "function"),
        values,
    ).inc(1.0, window)
    if lifecycle == "cold-start":
        registry._instrument(
            "histogram", "container.cold_start_seconds",
            ("node", "function"), values,
        ).observe(_measured(span), window)


def _fold_net(registry: MetricsRegistry, span, window: int) -> None:
    # Labeled by the sending node, which owns the transfer.
    attrs = span.attrs
    values = (span.node, attrs["transfer"])
    registry._instrument(
        "counter", "net.bytes", ("node", "kind"), values
    ).inc(attrs["size"], window)
    registry._instrument(
        "counter", "net.transfers", ("node", "kind"), values
    ).inc(1.0, window)


def _fold_data(registry: MetricsRegistry, span, window: int) -> None:
    attrs = span.attrs
    if span.kind == SpanKind.GET:
        phase = "get"
    else:
        phase = "push" if attrs.get("eager") else "put"
    names = ("workflow", "node", "phase", "local")
    values = (
        span.workflow, span.node, phase,
        "local" if attrs["local"] else "remote",
    )
    registry._instrument("counter", "data.bytes", names, values).inc(
        attrs["size"], window
    )
    registry._instrument("counter", "data.ops", names, values).inc(1.0, window)
    registry._instrument("histogram", "data.seconds", names, values).observe(
        _measured(span), window
    )


def _fold_spill(registry: MetricsRegistry, span, window: int) -> None:
    registry._instrument(
        "counter", "data.spills", ("workflow", "node", "phase"),
        (span.workflow, span.node, span.attrs["phase"]),
    ).inc(1.0, window)


_FOLDS = {
    SpanKind.INVOCATION: _fold_invocation,
    SpanKind.RETRY: _fold_retry,
    SpanKind.QUEUE_WAIT: _fold_queue_wait,
    SpanKind.EXECUTE: _fold_execute,
    SpanKind.CONTAINER: _fold_container,
    SpanKind.NET: _fold_net,
    SpanKind.PUT: _fold_data,
    SpanKind.GET: _fold_data,
    SpanKind.SPILL: _fold_spill,
}


def find_metrics(
    snapshot: dict, name: str, **label_filter
) -> list[dict]:
    """Metric entries matching ``name`` and every given label value."""
    out = []
    for entry in snapshot.get("metrics", []):
        if entry["name"] != name:
            continue
        labels = entry["labels"]
        if all(labels.get(k) == v for k, v in label_filter.items()):
            out.append(entry)
    return out


def validate_snapshot(snapshot: dict) -> list[str]:
    """Structural invariant checks on a snapshot; returns problems."""
    problems: list[str] = []
    if snapshot.get("type") != "telemetry":
        problems.append("missing type=telemetry marker")
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, list):
        return problems + ["metrics missing or not a list"]
    seen: set[tuple] = set()
    for index, entry in enumerate(metrics):
        where = f"metric {index} ({entry.get('name', '?')})"
        kind = entry.get("kind")
        if kind not in _KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        key = metric_key(entry.get("name", ""), entry.get("labels", {}))
        if key in seen:
            problems.append(f"{where}: duplicate (name, labels) entry")
        seen.add(key)
        if kind == "histogram":
            bucket_total = sum(entry["buckets"].values()) + entry.get(
                "zeros", 0
            )
            if bucket_total != entry["count"]:
                problems.append(
                    f"{where}: bucket counts sum to {bucket_total}, "
                    f"count says {entry['count']}"
                )
            window_count = sum(
                pair[0] for pair in entry.get("windows", {}).values()
            )
            if entry.get("windows") and window_count != entry["count"]:
                problems.append(
                    f"{where}: window counts sum to {window_count}, "
                    f"count says {entry['count']}"
                )
            window_sum = sum(
                pair[1] for pair in entry.get("windows", {}).values()
            )
            if entry.get("windows") and not math.isclose(
                window_sum, entry["sum"], rel_tol=1e-9, abs_tol=1e-9
            ):
                problems.append(
                    f"{where}: window sums total {window_sum}, "
                    f"sum says {entry['sum']}"
                )
            if entry["count"] and entry.get("min", 0) > entry.get("max", 0):
                problems.append(f"{where}: min > max")
        elif kind == "counter":
            window_total = sum(entry.get("windows", {}).values())
            if entry.get("windows") and not math.isclose(
                window_total, entry["total"], rel_tol=1e-9, abs_tol=1e-9
            ):
                problems.append(
                    f"{where}: window deltas total {window_total}, "
                    f"total says {entry['total']}"
                )
    return problems


def write_telemetry_json(path: PathLike, snapshot) -> Path:
    """Write a snapshot (or a live registry) as a telemetry JSON file."""
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    path = Path(path)
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    return path


def read_telemetry_json(path: PathLike) -> dict:
    """Load a telemetry snapshot written by :func:`write_telemetry_json`."""
    return json.loads(Path(path).read_text())
