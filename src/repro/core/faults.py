"""Fault tolerance: fault models, retry policy, and cancellation.

Real FaaS deployments fail in more ways than a single crashed function
attempt, and a workflow engine is defined by how it behaves when they
do.  This module is the fault-tolerance layer shared by both schedule
patterns:

- :class:`FaultInjector` — per-attempt function crashes with
  configurable probabilities (deterministic under its seed).
- :class:`NodeCrash` / :class:`NetworkDegradation` / :class:`FaultPlan`
  — scripted infrastructure faults: a worker node dies (every container
  on it is destroyed, in-flight tasks fail) and later recovers, or a
  node's NIC runs at a fraction of its bandwidth for a window.  Plans
  are plain data, so a run is exactly replayable; :meth:`FaultPlan.random`
  derives one deterministically from a seed.
- :class:`FaultDriver` — the simulation process that executes a plan
  against a cluster and notifies the attached workflow systems.
- :class:`RetryPolicy` — exponential backoff with deterministic jitter
  and the retry budget, built from :class:`~repro.core.config.EngineConfig`.
- :class:`ProcessRegistry` — tracks every live kernel process an
  invocation spawned (tagged with the node it runs on) so the engines
  can cancel them via ``Process.interrupt`` when the invocation fails,
  times out, or its node dies.
- :class:`CancelCause` / :class:`TaskCancelled` — why a task was
  interrupted, and whether the retry ladder may try again.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..obs.spans import SpanKind
from ..sim.kernel import Interrupt, Process

__all__ = [
    "CancelCause",
    "CancelKind",
    "FaultDriver",
    "FaultInjector",
    "FaultPlan",
    "FunctionFailure",
    "NetworkDegradation",
    "NodeCrash",
    "ProcessRegistry",
    "RetryPolicy",
    "TaskCancelled",
    "cause_of_interrupt",
]


class FunctionFailure(Exception):
    """A function task exhausted its retries."""

    def __init__(self, function: str, attempts: int):
        super().__init__(
            f"function {function!r} failed after {attempts} attempt(s)"
        )
        self.function = function
        self.attempts = attempts


class CancelKind:
    """Why a running task process was interrupted."""

    INVOCATION_ABORT = "invocation-abort"  # invocation failed or timed out
    SIBLING_FAILED = "sibling-failed"  # a foreach sibling exhausted retries
    STRAGGLER = "straggler-timeout"  # per-attempt timeout: kill and retry
    NODE_CRASH = "node-crash"  # node died; the attempt may retry elsewhere
    NODE_STOP = "node-stop"  # node died; engine-level recovery re-triggers


@dataclass(frozen=True)
class CancelCause:
    """Attached to ``Process.interrupt`` so the task knows why it died."""

    kind: str
    detail: str = ""

    @property
    def retryable(self) -> bool:
        """Whether the task's own retry ladder should absorb this.

        Straggler kills and MasterSP node crashes count against the
        retry budget and run again; everything else is terminal for the
        task (the invocation is over, or WorkerSP's engine-level
        recovery owns the re-trigger).
        """
        return self.kind in (CancelKind.STRAGGLER, CancelKind.NODE_CRASH)


class TaskCancelled(Exception):
    """A task process was interrupted; carries the :class:`CancelCause`."""

    def __init__(self, cause: CancelCause):
        super().__init__(cause.kind if cause.detail == "" else
                         f"{cause.kind}: {cause.detail}")
        self.cause = cause


def cause_of_interrupt(interrupt: Interrupt) -> CancelCause:
    """Normalize an :class:`Interrupt`'s cause to a :class:`CancelCause`."""
    cause = interrupt.cause
    if isinstance(cause, CancelCause):
        return cause
    return CancelCause(CancelKind.INVOCATION_ABORT, detail=str(cause or ""))


class FaultInjector:
    """Decides which function executions crash.

    ``default_rate`` applies to every function; ``rates`` overrides it
    per function.  Sampling is deterministic under ``seed``.
    """

    def __init__(
        self,
        default_rate: float = 0.0,
        rates: Optional[dict[str, float]] = None,
        seed: int = 99,
    ):
        if not 0.0 <= default_rate <= 1.0:
            raise ValueError("default_rate must be in [0, 1]")
        self.default_rate = default_rate
        self.rates = dict(rates or {})
        for function, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"rate for {function!r} must be in [0, 1], got {rate}"
                )
        self._rng = random.Random(seed)
        self.injected = 0

    def rate_for(self, function: str) -> float:
        return self.rates.get(function, self.default_rate)

    def should_crash(self, function: str) -> bool:
        """Sample whether this execution attempt crashes."""
        rate = self.rate_for(function)
        if rate <= 0.0:
            return False
        crashed = self._rng.random() < rate
        if crashed:
            self.injected += 1
        return crashed


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget plus exponential backoff with deterministic jitter.

    The delay before retry ``attempt`` (1-based: the wait after the
    first failed attempt is ``delay(1)``) is::

        min(backoff_max, backoff_base * backoff_factor ** (attempt - 1))

    scaled by ``1 ± jitter`` where the jitter fraction is derived by
    hashing ``(seed, key, attempt)`` — not drawn from a shared RNG — so
    the schedule for one task never depends on how sibling tasks
    interleave, and a run replays bit-identically under its seed.
    """

    max_retries: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.0
    seed: int = 17

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_max < 0:
            raise ValueError("backoff_max must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        return cls(
            max_retries=config.max_retries,
            backoff_base=config.retry_backoff_base,
            backoff_factor=config.retry_backoff_factor,
            backoff_max=config.retry_backoff_max,
            jitter=config.retry_jitter,
            seed=config.retry_seed,
        )

    @property
    def attempts(self) -> int:
        return self.max_retries + 1

    def _fraction(self, attempt: int, key: Sequence) -> float:
        payload = repr((self.seed, tuple(key), attempt)).encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def delay(self, attempt: int, key: Sequence = ()) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.backoff_base <= 0:
            return 0.0
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * self._fraction(attempt, key) - 1.0)
        return delay


@dataclass(frozen=True)
class NodeCrash:
    """One scripted worker-node failure.

    At ``at`` every container on ``node`` dies (in-flight tasks fail,
    queued acquires stall) and the node stays down for ``recovery``
    seconds before coming back empty (everything cold-starts again).
    """

    node: str
    at: float
    recovery: float = 5.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("crash time must be >= 0")
        if self.recovery <= 0:
            raise ValueError("recovery must be > 0")


@dataclass(frozen=True)
class NetworkDegradation:
    """A transient bandwidth brown-out window.

    From ``start`` for ``duration`` seconds the NICs of ``nodes``
    (every node in the plan's cluster when empty) run at ``factor``
    of their configured bandwidth; active flows re-share immediately.
    """

    start: float
    duration: float
    factor: float
    nodes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")


@dataclass
class FaultPlan:
    """A replayable script of infrastructure faults."""

    node_crashes: list[NodeCrash] = field(default_factory=list)
    degradations: list[NetworkDegradation] = field(default_factory=list)

    @classmethod
    def random(
        cls,
        nodes: Iterable[str],
        horizon: float,
        crashes: int = 1,
        recovery: float = 5.0,
        degradations: int = 0,
        degradation_duration: float = 5.0,
        degradation_factor: float = 0.25,
        seed: int = 7,
    ) -> "FaultPlan":
        """Derive a plan deterministically from ``seed``.

        Crash and degradation start times are uniform over the middle
        80% of ``horizon`` so faults land while work is in flight.
        """
        names = sorted(nodes)
        if not names:
            raise ValueError("need at least one node to plan faults for")
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        rng = random.Random(seed)
        plan = cls()
        for _ in range(crashes):
            plan.node_crashes.append(
                NodeCrash(
                    node=rng.choice(names),
                    at=rng.uniform(0.1 * horizon, 0.9 * horizon),
                    recovery=recovery,
                )
            )
        for _ in range(degradations):
            plan.degradations.append(
                NetworkDegradation(
                    start=rng.uniform(0.1 * horizon, 0.9 * horizon),
                    duration=degradation_duration,
                    factor=degradation_factor,
                )
            )
        plan.node_crashes.sort(key=lambda c: c.at)
        plan.degradations.sort(key=lambda d: d.start)
        return plan


class ProcessRegistry:
    """Live kernel processes of in-flight invocations, by node.

    Engines register every process they spawn for an invocation
    (trigger handlers, execute/instance processes, notify/sync
    messengers).  When the invocation ends abnormally — or a node dies —
    the registry interrupts what is still alive.  Registration adds no
    callbacks to the processes (which would mask unhandled crashes);
    dead entries are dropped lazily and the whole invocation's map is
    released when the invocation record is finalized.
    """

    def __init__(self) -> None:
        # invocation id -> {process: node name ("" = not node-bound)}
        self._by_invocation: dict[int, dict[Process, str]] = {}
        self.cancelled = 0  # interrupts delivered, lifetime

    def register(self, process: Process, invocation_id: int, node: str = "") -> Process:
        if process.is_alive:
            procs = self._by_invocation.get(invocation_id)
            if procs is None:
                procs = self._by_invocation[invocation_id] = {}
            procs[process] = node
        return process

    def live(self, invocation_id: int) -> list[Process]:
        return [
            p for p in self._by_invocation.get(invocation_id, ()) if p.is_alive
        ]

    @property
    def live_count(self) -> int:
        return sum(
            1
            for procs in self._by_invocation.values()
            for p in procs
            if p.is_alive
        )

    @property
    def tracked_invocations(self) -> int:
        return len(self._by_invocation)

    def cancel_invocation(self, invocation_id: int, cause: CancelCause) -> int:
        """Interrupt every live process of one invocation; returns count."""
        interrupted = 0
        for process in self.live(invocation_id):
            process.interrupt(cause)
            interrupted += 1
        self.cancelled += interrupted
        return interrupted

    def cancel_node(self, node: str, cause: CancelCause) -> int:
        """Interrupt every live process bound to ``node``; returns count."""
        interrupted = 0
        for procs in self._by_invocation.values():
            for process, bound_node in list(procs.items()):
                if bound_node == node and process.is_alive:
                    process.interrupt(cause)
                    interrupted += 1
        self.cancelled += interrupted
        return interrupted

    def release_invocation(self, invocation_id: int) -> None:
        """Drop the bookkeeping once the invocation record is final."""
        self._by_invocation.pop(invocation_id, None)


class FaultDriver:
    """Executes a :class:`FaultPlan` against a cluster.

    Attach the workflow system(s) under test, then :meth:`start` before
    running the simulation.  Node crashes destroy every container on the
    node, take its pool offline, and notify each attached system
    (``on_node_crash`` / ``on_node_recovery``); degradation windows
    scale NIC bandwidths and restore them after.  Overlapping windows
    compose: a NIC runs at its configured bandwidth times the product
    of the factors of every window open on it, and returns to exactly
    its configured bandwidth when the last one closes.
    """

    def __init__(self, cluster, plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.env = cluster.env
        self.systems: list = []
        self.node_crashes_fired = 0
        self.degradations_fired = 0
        self._started = False
        # node name -> (configured bandwidth, factors of the open windows)
        self._degraded: dict[str, tuple[float, list[float]]] = {}

    def attach(self, system) -> "FaultDriver":
        self.systems.append(system)
        return self

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for crash in self.plan.node_crashes:
            self.env.process(
                self._crash_process(crash), name=f"fault:crash:{crash.node}"
            )
        for window in self.plan.degradations:
            self.env.process(
                self._degrade_process(window),
                name=f"fault:degrade@{window.start:g}",
            )

    def _crash_process(self, crash: NodeCrash):
        yield self.env.timeout(max(0.0, crash.at - self.env.now))
        node = self.cluster.node(crash.node)
        if not node.up:
            return  # overlapping crash windows: already down
        spans = self.cluster.spans
        if spans.retain:
            spans.event(
                SpanKind.FAULT, node=crash.node, fault="node-crash",
                recovery=crash.recovery,
            )
        node.fail()
        for system in self.systems:
            system.on_node_crash(crash.node)
        self.node_crashes_fired += 1
        yield self.env.timeout(crash.recovery)
        node.recover()
        if spans.retain:
            spans.event(SpanKind.FAULT, node=crash.node, fault="node-recovery")
        for system in self.systems:
            system.on_node_recovery(crash.node)

    def _degrade_process(self, window: NetworkDegradation):
        yield self.env.timeout(max(0.0, window.start - self.env.now))
        if window.nodes:
            nodes = [self.cluster.node(name) for name in window.nodes]
        else:
            nodes = [*self.cluster.workers, self.cluster.storage_node]
        spans = self.cluster.spans
        for node in nodes:
            if spans.retain:
                spans.event(
                    SpanKind.FAULT, node=node.name, fault="net-degrade",
                    factor=window.factor, duration=window.duration,
                )
            _, factors = self._degraded.setdefault(
                node.name, (node.nic.bandwidth, [])
            )
            factors.append(window.factor)
            self._apply_factors(node)
        self.degradations_fired += 1
        yield self.env.timeout(window.duration)
        for node in nodes:
            self._degraded[node.name][1].remove(window.factor)
            self._apply_factors(node)
            if spans.retain:
                spans.event(SpanKind.FAULT, node=node.name, fault="net-restore")

    def _apply_factors(self, node) -> None:
        """Set ``node``'s NIC to its base bandwidth scaled by every open
        window, or back to exactly the base when none is open."""
        base, factors = self._degraded[node.name]
        bandwidth = base
        for factor in factors:
            bandwidth *= factor
        if not factors:
            del self._degraded[node.name]
        self.cluster.network.set_nic_bandwidth(node.nic, bandwidth)
