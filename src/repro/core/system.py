"""The client-side invocation lifecycle shared by every workflow engine.

FaaSFlow's MasterSP and WorkerSP (§3.1) differ only in *where* function
triggering happens.  What the client sees of one invocation is the same
for both — and for DataflowSP: an :class:`InvocationRecord`, a
completion event guarded by an execution-timeout watchdog, and a
teardown that cancels leftover work, frees the data plane and books the
record.  :class:`WorkflowSystem` owns that lifecycle; each engine's
``invoke`` only spawns its own entry functions between :meth:`_open`
and :meth:`_watch`/:meth:`_close`.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..dag import WorkflowDAG, critical_path
from ..metrics import InvocationRecord, InvocationStatus, MetricsCollector
from ..obs.telemetry import record_invocation_metrics
from ..sim import Cluster
from .config import EngineConfig
from .faastore import DataPolicy, FaaStorePolicy
from .faults import CancelCause, CancelKind, FaultInjector, ProcessRegistry
from .runtime import FunctionRuntime
from .state import InvocationID, new_invocation_id

__all__ = ["WorkflowSystem", "static_critical_exec"]

# Sentinel value carried by ``_InvocationContext.done`` when the
# execution-timeout watchdog (not a sink report or failure) fired it.
_TIMED_OUT = object()


def static_critical_exec(dag: WorkflowDAG) -> float:
    """Execution time of the critical path's function nodes (§2.3).

    Edge weights are zeroed: the metric deducts only *execution* time,
    so whatever transmission/scheduling remains in the end-to-end
    latency is counted as overhead.
    """
    stripped = dag.copy()
    for edge in stripped.edges:
        edge.weight = 0.0
    return critical_path(stripped).length


class _InvocationContext:
    """Client-side bookkeeping for one in-flight invocation.

    ``done`` is a single kernel event: it fires on the last sink report
    *or* on the first failure (``failed`` records what failed).  The
    invoke process checks ``failed`` before completion, so when both
    land in the same timestep the failure wins.
    """

    __slots__ = ("record", "sinks_remaining", "done", "failed")

    def __init__(self, record, sinks_remaining, done):
        self.record = record
        self.sinks_remaining = sinks_remaining
        self.done = done
        self.failed = None

    def _deadline(self, _event) -> None:
        # Watchdog-timer callback: an invocation still pending at the
        # deadline times out.  Firing ``done`` with the sentinel lets
        # the invoke process wait on one event instead of a two-event
        # any_of condition.
        if not self.done.triggered:
            self.done.succeed(_TIMED_OUT)


class WorkflowSystem:
    """Base of the workflow systems: one invocation's client-side life."""

    mode = ""
    # Telemetry/SLO label for record_invocation_metrics.
    engine_label = ""
    # Data policy built when the caller passes none.
    default_policy = FaaStorePolicy

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.config = config or EngineConfig()
        self.spans = cluster.spans
        self.telemetry = cluster.telemetry
        self.metrics = metrics if metrics is not None else MetricsCollector()
        if self.spans.enabled:
            self.metrics.spans = self.spans
        self.policy = policy or self.default_policy(cluster, self.metrics)
        self.registry = ProcessRegistry()
        self.runtime = FunctionRuntime(
            cluster, self.config, self.policy, faults=faults,
            registry=self.registry,
        )
        self._contexts: dict[InvocationID, _InvocationContext] = {}
        self._tenants: dict[str, str] = {}
        self.node_crashes = 0
        # Serving-lifecycle gauges: current and peak concurrent
        # invocations, so soak tests can pin memory ∝ concurrency.
        self.in_flight = 0
        self.peak_in_flight = 0

    def spawn_registered(
        self,
        generator: Generator,
        invocation_id: InvocationID,
        node: str = "",
        name: str = "",
    ):
        """Spawn a process and track it for cancellation.

        ``node`` binds the process to a worker so node crashes kill it;
        processes left unbound (in-flight messages) die only with their
        invocation.
        """
        process = self.env.process(generator, name=name)
        self.registry.register(process, invocation_id, node=node)
        return process

    # -- invocation lifecycle ---------------------------------------------
    def context(self, invocation_id: InvocationID) -> Optional[_InvocationContext]:
        return self._contexts.get(invocation_id)

    def _open(
        self, workflow: str, critical_exec: float, sinks: int
    ) -> _InvocationContext:
        """Start one invocation: its record, context and root span."""
        invocation_id = new_invocation_id()
        env = self.env
        record = InvocationRecord(
            workflow=workflow,
            invocation_id=invocation_id,
            mode=self.mode,
            started_at=env.now,
            critical_path_exec=critical_exec,
        )
        context = _InvocationContext(record, sinks, env.event())
        self._contexts[invocation_id] = context
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        if self.spans.enabled:
            self.spans.start_invocation(
                invocation_id, workflow=workflow, mode=self.mode
            )
        return context

    def _watch(self, context: _InvocationContext) -> Generator:
        """Wait for the outcome under the execution-timeout watchdog.

        Arm the watchdog only after the entry functions are spawned.
        """
        env = self.env
        record = context.record
        timeout = env.timeout(self.config.execution_timeout)
        timeout.callbacks.append(context._deadline)
        yield context.done
        # Check failure *before* completion: when a failure report and
        # the last sink report land in the same timestep, the failure
        # must win (sink_completed also refuses to count sinks after a
        # failure, so the completion path can't even trigger then).
        if context.failed is not None:
            record.status = InvocationStatus.FAILED
            record.finished_at = env.now
        elif context.done.value is _TIMED_OUT:
            record.status = InvocationStatus.TIMEOUT
            record.finished_at = record.started_at + self.config.execution_timeout
        else:
            record.finished_at = env.now
        if not timeout.processed:
            # Cancel the watchdog so the kernel heap doesn't accumulate
            # one 60-second timer per completed invocation.
            timeout.cancel()

    def _close(
        self, context: _InvocationContext, dag: WorkflowDAG
    ) -> InvocationRecord:
        """Tear one finished invocation down and book its record."""
        record = context.record
        workflow = record.workflow
        invocation_id = record.invocation_id
        if record.status != InvocationStatus.OK:
            self.registry.cancel_invocation(
                invocation_id,
                CancelCause(CancelKind.INVOCATION_ABORT, detail=record.status),
            )
        self.registry.release_invocation(invocation_id)
        self.policy.cleanup_invocation(dag, invocation_id)
        self.metrics.record_invocation(record)
        if self.telemetry.enabled:
            record_invocation_metrics(
                self.telemetry, record, self.tenant_of(workflow),
                self.engine_label,
            )
        if self.spans.enabled:
            root = self.spans.root_of(invocation_id)
            if root is not None:
                self.spans.end(root, status=record.status)
        self._contexts.pop(invocation_id, None)
        self.in_flight -= 1
        return record

    def invocation_failed(
        self, workflow: str, invocation_id: InvocationID, reason
    ) -> None:
        context = self._contexts.get(invocation_id)
        if context is None:
            return  # already timed out / torn down
        if context.failed is None:
            context.failed = reason
            if not context.done.triggered:
                context.done.succeed(reason)

    def sink_completed(self, workflow: str, invocation_id: InvocationID) -> None:
        context = self._contexts.get(invocation_id)
        if context is None:
            return  # invocation already timed out and was torn down
        if context.failed is not None:
            return  # already failed; a late sink can't resurrect it
        context.sinks_remaining -= 1
        if context.sinks_remaining == 0 and not context.done.triggered:
            context.done.succeed()

    # -- labels -----------------------------------------------------------
    def tenant_of(self, workflow: str) -> str:
        """Telemetry tenant label for one workflow's invocations.

        ``EngineConfig.tenant`` is the system-wide default; multi-tenant
        serving harnesses may register per-workflow owners through
        :meth:`set_tenants` for per-tenant rollups.
        """
        return self._tenants.get(workflow, self.config.tenant)

    def set_tenants(self, tenants: dict[str, str]) -> None:
        self._tenants = dict(tenants)
