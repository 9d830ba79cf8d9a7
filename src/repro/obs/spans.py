"""Causal spans: the tree-structured execution trace.

Every invocation becomes a span tree — one ``invocation`` root, one
``function`` span per function task (virtual step markers and
unselected switch arms included, with status ``virtual``/``skipped``),
and child spans for each stage the task passed through (``queue-wait``,
``cold-start``, ``execute``, ``put``/``get``) — plus control-plane
``state-sync`` spans and node-track spans from the simulation substrate
itself (network transfers with their contention-induced slowdown,
container lifecycle events, FaaStore spills).

Spans are the one way a producer reports a fact.  The tracer is opt-in
and *zero-cost when disabled*: every producer holds :data:`NULL_SPANS`,
a :class:`NullSpanTracer` whose methods are no-ops, and guards each
site behind one ``spans.enabled`` check.

A :class:`SpanTracer` hands every finished span to its sinks, either or
both of:

- the **ring** (``retain=True``): completed spans in a bounded
  drop-oldest buffer (``dropped`` counted), so long runs keep their
  tail; it feeds the exporters, breakdowns and span queries;
- **telemetry** (``telemetry=registry``): a
  :class:`~repro.obs.telemetry.MetricsRegistry` that folds each span
  into constant-memory counters and histograms
  (:meth:`~repro.obs.telemetry.MetricsRegistry.fold`).

A site whose span no registry folds (function, state-sync, cold-start
and fault spans) guards on ``spans.retain`` instead, so a tracer with
the telemetry sink alone never builds it.

:func:`decompose` turns one invocation's spans into a measured latency
breakdown whose components sum *exactly* to the end-to-end latency: the
invocation window is partitioned into segments, each segment is labeled
with the highest-priority span category active during it, and whatever
no span covers is the residual ``engine`` time (scheduling overhead +
idle) — the quantity the paper's §2.3 estimates by static subtraction.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "Span",
    "SpanKind",
    "SpanTracer",
    "NullSpanTracer",
    "NULL_SPANS",
    "BREAKDOWN_COMPONENTS",
    "category_of",
    "decompose",
    "span_tree",
    "format_span_tree",
]


class SpanKind:
    """Span kinds emitted by the instrumented producers."""

    INVOCATION = "invocation"
    FUNCTION = "function"
    QUEUE_WAIT = "queue-wait"
    COLD_START = "cold-start"
    EXECUTE = "execute"
    STATE_SYNC = "state-sync"
    PUT = "put"
    GET = "get"
    # Node-track spans from the substrate (not part of the breakdown —
    # the data plane's puts/gets already account for the wire time).
    NET = "net"
    CONTAINER = "container"
    SPILL = "spill"
    # Fault-tolerance annotations: infrastructure faults fired by a
    # FaultDriver and retry/cancellation decisions in the task runtime.
    FAULT = "fault"
    RETRY = "retry"


@dataclass
class Span:
    """One timed, attributed, causally-linked occurrence."""

    span_id: int
    parent_id: Optional[int]
    kind: str
    start: float
    end: Optional[float] = None  # None while the span is open
    workflow: str = ""
    invocation_id: int = 0
    function: str = ""
    node: str = ""
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    # What the producer measured, for the telemetry sink and never
    # exported: a float where ``end - start`` would differ from the
    # measured value in the last bit, or a finished invocation's
    # ``(record, tenant, engine)``.  None: the duration is the measure.
    value: object = field(default=None, compare=False, repr=False)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def open(self) -> bool:
        return self.end is None

    def __repr__(self) -> str:  # pragma: no cover
        tail = f" fn={self.function}" if self.function else ""
        return (
            f"<Span #{self.span_id} {self.kind} "
            f"[{self.start:.4f}, {self.end}]{tail}>"
        )


# Breakdown categories, highest priority first: an instant covered by
# several span categories is attributed to the first one listed.
_PRIORITY = (
    SpanKind.EXECUTE,
    SpanKind.COLD_START,
    "transfer",
    SpanKind.QUEUE_WAIT,
    "sync",
)

BREAKDOWN_COMPONENTS = (
    "execute",
    "cold_start",
    "transfer",
    "queue_wait",
    "sync",
    "engine",
)

_CATEGORY = {
    SpanKind.EXECUTE: "execute",
    SpanKind.COLD_START: "cold_start",
    SpanKind.PUT: "transfer",
    SpanKind.GET: "transfer",
    SpanKind.QUEUE_WAIT: "queue_wait",
    SpanKind.STATE_SYNC: "sync",
}

_RANK = {
    SpanKind.EXECUTE: 0,
    SpanKind.COLD_START: 1,
    SpanKind.PUT: 2,
    SpanKind.GET: 2,
    SpanKind.QUEUE_WAIT: 3,
    SpanKind.STATE_SYNC: 4,
}

_RANK_TO_COMPONENT = ("execute", "cold_start", "transfer", "queue_wait", "sync")


def category_of(kind: str) -> Optional[str]:
    """Breakdown component a span kind contributes to (None: excluded)."""
    return _CATEGORY.get(kind)


def decompose(
    spans: Iterable[Span], window: tuple[float, float]
) -> dict[str, float]:
    """Measured latency decomposition of one invocation.

    Sweeps the ``window`` (usually ``[started_at, finished_at]``),
    attributing each elementary segment to the highest-priority span
    category active during it; uncovered time is ``engine``.  The
    returned components sum to ``window[1] - window[0]`` exactly (up to
    float summation error), whatever the spans' overlap structure.
    """
    lo, hi = window
    components = dict.fromkeys(BREAKDOWN_COMPONENTS, 0.0)
    if hi <= lo:
        return components
    # Boundary events: (time, +1/-1, rank), clamped to the window.
    events: list[tuple[float, int, int]] = []
    for span in spans:
        rank = _RANK.get(span.kind)
        if rank is None:
            continue
        end = span.end if span.end is not None else hi
        start = max(span.start, lo)
        end = min(end, hi)
        if end <= start:
            continue
        events.append((start, +1, rank))
        events.append((end, -1, rank))
    if not events:
        components["engine"] = hi - lo
        return components
    events.sort(key=lambda e: (e[0], e[1]))
    active = [0] * len(_RANK_TO_COMPONENT)
    cursor = lo
    index = 0
    while index < len(events):
        time = events[index][0]
        if time > cursor:
            label = "engine"
            for rank, count in enumerate(active):
                if count > 0:
                    label = _RANK_TO_COMPONENT[rank]
                    break
            components[label] += time - cursor
            cursor = time
        while index < len(events) and events[index][0] == time:
            _, delta, rank = events[index]
            active[rank] += delta
            index += 1
    if hi > cursor:
        label = "engine"
        for rank, count in enumerate(active):
            if count > 0:
                label = _RANK_TO_COMPONENT[rank]
                break
        components[label] += hi - cursor
    return components


def span_tree(spans: Iterable[Span]) -> list[tuple[int, Span]]:
    """Depth-first (depth, span) pairs of a span list.

    Orphans (spans whose parent is absent — e.g. evicted from the ring)
    appear at depth 0 alongside the proper roots.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    ids = {s.span_id for s in ordered}
    by_parent: dict[Optional[int], list[Span]] = {}
    for span in ordered:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    out: list[tuple[int, Span]] = []

    def walk(span: Span, depth: int) -> None:
        out.append((depth, span))
        for child in by_parent.get(span.span_id, []):
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    return out


def format_span_tree(spans: Iterable[Span]) -> str:
    """Human-readable rendering of :func:`span_tree`."""
    lines = []
    for depth, span in span_tree(spans):
        subject = f" {span.function}" if span.function else ""
        location = f" @{span.node}" if span.node else ""
        status = f" [{span.status}]" if span.status != "ok" else ""
        lines.append(
            f"{span.start:10.4f} {span.duration * 1000:9.3f}ms  "
            f"{'  ' * depth}{span.kind}{subject}{location}{status}"
        )
    return "\n".join(lines)


class SpanTracer:
    """Collects causal spans against a simulation environment's clock.

    Each finished span goes to the tracer's sinks: the bounded ring
    when ``retain`` (exporters, breakdowns and span queries read it)
    and ``telemetry.fold`` when a metrics registry is given.  A
    telemetry-only tracer keeps no span past its end: no ring, no open
    spans and no root of a finished invocation.
    """

    enabled = True

    def __init__(
        self, env, limit: int = 1_000_000, *, retain: bool = True,
        telemetry=None,
    ):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.env = env
        self.limit = limit
        self.retain = retain
        self.telemetry = telemetry
        # Completed spans, bounded ring: at capacity the *oldest* span
        # is evicted so the tail of a long run survives.
        self.spans: deque[Span] = deque(maxlen=limit)
        self.dropped = 0
        self._ids = itertools.count(1)
        self._open: dict[int, Span] = {}
        self._roots: dict[int, Span] = {}
        self._contexts: dict[tuple[int, str], Span] = {}

    # -- recording -------------------------------------------------------
    def start(
        self,
        kind: str,
        *,
        workflow: str = "",
        invocation_id: int = 0,
        function: str = "",
        node: str = "",
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            kind=kind,
            start=self.env.now,
            workflow=workflow,
            invocation_id=invocation_id,
            function=function,
            node=node,
            attrs=attrs,
        )
        if self.retain:
            self._open[span.span_id] = span
        return span

    def end(
        self, span: Span, status: str = "ok", value=None, **attrs
    ) -> Span:
        if span.end is not None:
            return span
        span.end = self.env.now
        span.status = status
        span.value = value
        if attrs:
            span.attrs.update(attrs)
        self._open.pop(span.span_id, None)
        self._finish(span)
        return span

    def record(
        self,
        kind: str,
        start: float,
        end: Optional[float] = None,
        *,
        workflow: str = "",
        invocation_id: int = 0,
        function: str = "",
        node: str = "",
        parent: Optional[Span] = None,
        status: str = "ok",
        value=None,
        **attrs,
    ) -> Span:
        """Record a retrospective (already finished) span."""
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            kind=kind,
            start=start,
            end=self.env.now if end is None else end,
            workflow=workflow,
            invocation_id=invocation_id,
            function=function,
            node=node,
            status=status,
            attrs=attrs,
            value=value,
        )
        self._finish(span)
        return span

    def event(self, kind: str, **kwargs) -> Span:
        """A zero-duration marker span at the current simulated time."""
        now = self.env.now
        return self.record(kind, now, now, **kwargs)

    def _finish(self, span: Span) -> None:
        """Hand a finished span to the sinks."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.fold(span)
        if self.retain:
            self._append(span)
        elif span.kind == SpanKind.INVOCATION:
            self._roots.pop(span.invocation_id, None)

    def _append(self, span: Span) -> None:
        if len(self.spans) >= self.limit:
            evicted = self.spans[0]
            if evicted.kind == SpanKind.INVOCATION:
                self._roots.pop(evicted.invocation_id, None)
            self.dropped += 1
        self.spans.append(span)

    # -- invocation / function context -----------------------------------
    def start_invocation(
        self, invocation_id: int, *, workflow: str = "", **attrs
    ) -> Span:
        span = self.start(
            SpanKind.INVOCATION,
            workflow=workflow,
            invocation_id=invocation_id,
            **attrs,
        )
        self._roots[invocation_id] = span
        return span

    def root_of(self, invocation_id: int) -> Optional[Span]:
        return self._roots.get(invocation_id)

    def set_context(
        self, invocation_id: int, function: str, span: Span
    ) -> None:
        """Register ``span`` as the parent for the task's data-plane ops."""
        self._contexts[(invocation_id, function)] = span

    def clear_context(self, invocation_id: int, function: str) -> None:
        self._contexts.pop((invocation_id, function), None)

    def context_of(
        self, invocation_id: int, function: str
    ) -> Optional[Span]:
        return self._contexts.get((invocation_id, function))

    # -- lifecycle -------------------------------------------------------
    def finalize(self) -> int:
        """Close any still-open spans (timeout stragglers) at ``now``.

        Returns how many spans were force-closed; they keep
        ``status="open"`` so exports can tell them apart, and go to the
        ring only: telemetry folds finished facts, not stragglers.
        """
        closed = 0
        for span in list(self._open.values()):
            span.end = self.env.now
            span.status = "open"
            self._append(span)
            closed += 1
        self._open.clear()
        return closed

    def clear(self) -> None:
        self.spans.clear()
        self._open.clear()
        self._roots.clear()
        self._contexts.clear()
        self.dropped = 0

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans) + len(self._open)

    def all_spans(self) -> list[Span]:
        """Completed + still-open spans, in recording order."""
        return list(self.spans) + list(self._open.values())

    def spans_of(self, invocation_id: int) -> list[Span]:
        return [
            s for s in self.all_spans() if s.invocation_id == invocation_id
        ]

    def of_kind(self, kind: str) -> list[Span]:
        return [s for s in self.all_spans() if s.kind == kind]

    def invocation_ids(self) -> list[int]:
        seen: dict[int, None] = {}
        for span in self.spans:
            if span.kind == SpanKind.INVOCATION:
                seen[span.invocation_id] = None
        return list(seen)

    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self.all_spans() if s.parent_id == span_id]

    def tree(self, invocation_id: int) -> list[tuple[int, Span]]:
        """Depth-first (depth, span) pairs of one invocation's tree."""
        return span_tree(self.spans_of(invocation_id))

    def format_tree(self, invocation_id: int) -> str:
        """Human-readable span tree of one invocation."""
        return format_span_tree(self.spans_of(invocation_id))

    def breakdown_of(self, invocation_id: int) -> Optional[dict[str, float]]:
        """Measured decomposition over the invocation root's interval."""
        root = self.root_of(invocation_id)
        if root is None or root.end is None:
            return None
        return decompose(
            self.spans_of(invocation_id), (root.start, root.end)
        )


class NullSpanTracer:
    """The disabled tracer: every operation is a no-op.

    Producers hold this singleton by default so instrumentation costs
    one truthiness check (``spans.enabled``) — or, at worst, one no-op
    method call — when tracing is off.
    """

    enabled = False
    retain = False
    telemetry = None
    dropped = 0
    limit = 0

    _NULL_SPAN = Span(span_id=0, parent_id=None, kind="null", start=0.0, end=0.0)

    def start(self, *args, **kwargs) -> Span:
        return self._NULL_SPAN

    def end(self, span, *args, **kwargs) -> Span:
        return span

    def record(self, *args, **kwargs) -> Span:
        return self._NULL_SPAN

    def event(self, *args, **kwargs) -> Span:
        return self._NULL_SPAN

    def start_invocation(self, *args, **kwargs) -> Span:
        return self._NULL_SPAN

    def root_of(self, invocation_id: int) -> Optional[Span]:
        return None

    def set_context(self, *args, **kwargs) -> None:
        return None

    def clear_context(self, *args, **kwargs) -> None:
        return None

    def context_of(self, *args, **kwargs) -> Optional[Span]:
        return None

    def finalize(self) -> int:
        return 0

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def all_spans(self) -> list[Span]:
        return []

    def spans_of(self, invocation_id: int) -> list[Span]:
        return []

    def of_kind(self, kind: str) -> list[Span]:
        return []

    def invocation_ids(self) -> list[int]:
        return []


NULL_SPANS = NullSpanTracer()
