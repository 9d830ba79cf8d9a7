# FROZEN pre-PR copy for the engine-throughput A/B benchmark.
#
# Do not edit: this is the seed-side baseline that
# benchmarks/test_bench_engine.py races the live engines against.
# Imports of shared substrate (sim kernel, network, faults, policy,
# metrics) point at the live repro.* modules; the frozen modules
# (engines, state, runtime, clients) import each other relatively.

"""HyperFlow-serverless: the MasterSP baseline (paper §2.2-2.3).

A single central workflow engine holds every function's state.  For
each function it (1) decides the trigger in its serialized event loop,
(2) ships a task assignment to the worker over the network, (3) waits
for the worker to execute, and (4) processes the returned execution
state — again in the serialized loop — before checking successors.

The two network hops per function and the master's serialization are
exactly the scheduling overhead WorkerSP removes; keeping them explicit
here is what lets Fig. 4 / Fig. 11 be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.dag import WorkflowDAG, critical_path
from repro.metrics import (
    InvocationRecord,
    InvocationStatus,
    MetricsCollector,
)
from repro.obs.spans import SpanKind
from repro.sim import Cluster, Node, Resource
from repro.core.config import EngineConfig
from repro.core.faastore import DataPolicy, RemoteStorePolicy
from repro.core.faults import (
    CancelCause,
    CancelKind,
    FaultInjector,
    FunctionFailure,
    ProcessRegistry,
    TaskCancelled,
)
from .runtime import FunctionRuntime
from repro.core.switching import is_skipped
from .state import (
    InvocationID,
    InvocationState,
    Placement,
    new_invocation_id,
)
from .tracing import Kind, Tracer

__all__ = ["HyperFlowServerlessSystem"]


@dataclass
class _RegisteredWorkflow:
    dag: WorkflowDAG
    placement: Placement
    critical_exec: float


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


class HyperFlowServerlessSystem:
    """The MasterSP workflow system: central engine + worker executors."""

    mode = "master-sp"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        master: Optional[Node] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config or EngineConfig()
        self.tracer = tracer
        self.spans = cluster.spans
        self.metrics = metrics if metrics is not None else MetricsCollector()
        if self.spans.enabled:
            self.metrics.spans = self.spans
        self.policy = policy or RemoteStorePolicy(cluster, self.metrics)
        self.registry = ProcessRegistry()
        self.runtime = FunctionRuntime(
            cluster, self.config, self.policy, faults=faults,
            registry=self.registry,
        )
        # The paper deploys the central engine next to the invocation
        # generator and storage; we host it on the storage node.
        self.master = master or cluster.storage_node
        self._engine_lock = Resource(self.env, capacity=1)
        self._workflows: dict[str, _RegisteredWorkflow] = {}
        self.messages_sent = 0
        self.events_handled = 0
        self.busy_time = 0.0
        self.node_crashes = 0

    # -- registration -----------------------------------------------------
    def register(self, dag: WorkflowDAG, placement: Placement) -> None:
        dag.validate()
        placement.validate_against(dag)
        self._workflows[dag.name] = _RegisteredWorkflow(
            dag=dag,
            placement=placement,
            critical_exec=static_critical_exec(dag),
        )

    def registered(self, workflow: str) -> _RegisteredWorkflow:
        try:
            return self._workflows[workflow]
        except KeyError:
            raise KeyError(f"workflow {workflow!r} is not registered") from None

    # -- invocation ---------------------------------------------------------
    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one end-to-end invocation.

        Returns the :class:`InvocationRecord` (also stored in metrics).
        """
        registered = self.registered(workflow)
        dag, placement = registered.dag, registered.placement
        invocation_id = new_invocation_id()
        record = InvocationRecord(
            workflow=workflow,
            invocation_id=invocation_id,
            mode=self.mode,
            started_at=self.env.now,
            critical_path_exec=registered.critical_exec,
        )
        state = InvocationState(invocation_id)
        all_done = self.env.event()
        failed = self.env.event()
        remaining = {"count": len(dag.node_names)}

        def spawn(function: str) -> None:
            # Task coordinators live on the master, not on any worker:
            # they survive worker crashes (the runtime retries under
            # them) and die only with the invocation.
            proc = self.env.process(
                self._run_task(
                    dag, placement, invocation_id, function, state,
                    remaining, all_done, failed, record,
                ),
                name=f"master:{workflow}:{function}",
            )
            self.registry.register(proc, invocation_id)

        self.trace(Kind.INVOCATION_START, workflow, invocation_id)
        if self.spans.enabled:
            self.spans.start_invocation(
                invocation_id, workflow=workflow, mode=self.mode
            )
        for source in dag.sources():
            state.state_of(source).triggered = True
            spawn(source)

        timeout = self.env.timeout(self.config.execution_timeout)
        yield self.env.any_of([all_done, failed, timeout])
        # Failure first: if the last task's completion and a failure
        # land in the same timestep, the invocation failed.
        if failed.triggered:
            record.status = InvocationStatus.FAILED
            record.finished_at = self.env.now
        elif all_done.triggered:
            record.finished_at = self.env.now
        else:
            record.status = InvocationStatus.TIMEOUT
            record.finished_at = record.started_at + self.config.execution_timeout
        if not timeout.processed:
            # Don't leave a live 60-second timer per finished invocation
            # in the kernel heap.
            timeout.cancel()
        if record.status != InvocationStatus.OK:
            cancelled = self.registry.cancel_invocation(
                invocation_id,
                CancelCause(CancelKind.INVOCATION_ABORT, detail=record.status),
            )
            if cancelled:
                self.trace(
                    Kind.CANCELLED, workflow, invocation_id,
                    detail=f"{cancelled} process(es)",
                )
        self.registry.release_invocation(invocation_id)
        self.policy.cleanup_invocation(dag, invocation_id)
        self.metrics.record_invocation(record)
        self.trace(
            Kind.INVOCATION_END, workflow, invocation_id, detail=record.status
        )
        if self.spans.enabled:
            root = self.spans.root_of(invocation_id)
            if root is not None:
                self.spans.end(root, status=record.status)
        return record

    def trace(self, kind: str, workflow: str, invocation_id: InvocationID,
              function: str = "", node: str = "", detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.record(
                self.env.now, kind, workflow, invocation_id,
                function=function, node=node, detail=detail,
            )

    # -- internals -------------------------------------------------------
    def _engine_step(self) -> Generator:
        """One serialized event-handling step of the central engine."""
        # Context-managed so an interrupt while *waiting* for the lock
        # cancels the queued request instead of leaking it.
        with self._engine_lock.request() as request:
            yield request
            yield self.env.timeout(self.config.master_process_time)
            self.events_handled += 1
            self.busy_time += self.config.master_process_time

    def _run_task(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        invocation_id: InvocationID,
        function: str,
        state: InvocationState,
        remaining: dict,
        all_done,
        failed,
        record: InvocationRecord,
    ) -> Generator:
        node_meta = dag.node(function)
        skipped = (
            self.config.evaluate_switches
            and not node_meta.is_virtual
            and is_skipped(dag, function, invocation_id)
        )
        # Stage 1: the master engine decides and dispatches the trigger.
        yield from self._engine_step()
        if not node_meta.is_virtual and not skipped:
            worker = self.cluster.node(placement.node_of(function))
            self.trace(
                Kind.TASK_ASSIGNED, dag.name, invocation_id,
                function=function, node=worker.name,
            )
            self.messages_sent += 1
            assign_start = self.env.now
            yield self.cluster.network.message(
                self.master.nic,
                worker.nic,
                self.config.assign_message_size,
                tag=f"assign:{function}",
            )
            if self.spans.enabled:
                self.spans.record(
                    SpanKind.STATE_SYNC,
                    assign_start,
                    self.env.now,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=function,
                    node=self.master.name,
                    parent=self.spans.root_of(invocation_id),
                    role="assign",
                    dst=worker.name,
                )
            # Stage 2: the worker executes the function task.  The
            # execute process is registered invocation-bound (NOT
            # node-bound): MasterSP recovery happens *inside* the
            # runtime's retry ladder, so a node crash must interrupt
            # only the instances, which then retry against the worker's
            # (offline, queueing) container pool.
            execute_proc = self.env.process(
                self.runtime.execute(
                    dag, placement, invocation_id, function,
                    version=placement.version,
                ),
                name=f"execute:{worker.name}:{function}",
            )
            self.registry.register(execute_proc, invocation_id)
            try:
                result = yield execute_proc
            except FunctionFailure as error:
                if not failed.triggered:
                    failed.succeed(error)
                return
            except TaskCancelled:
                return
            if result is None:
                return  # cancelled mid-flight; the canceller owns cleanup
            record.cold_starts += result.cold_starts
            record.retries += result.retries
            # Stage 3: the execution state returns to the master.
            self.messages_sent += 1
            result_start = self.env.now
            yield self.cluster.network.message(
                worker.nic,
                self.master.nic,
                self.config.result_message_size,
                tag=f"result:{function}",
            )
            if self.spans.enabled:
                self.spans.record(
                    SpanKind.STATE_SYNC,
                    result_start,
                    self.env.now,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=function,
                    node=worker.name,
                    parent=self.spans.root_of(invocation_id),
                    role="result",
                    dst=self.master.name,
                )
        # Completion handling in the serialized engine loop.
        yield from self._engine_step()
        state.state_of(function).executed = True
        self.trace(
            Kind.FUNCTION_EXECUTED, dag.name, invocation_id,
            function=function,
            node="" if node_meta.is_virtual else placement.node_of(function),
        )
        remaining["count"] -= 1
        if remaining["count"] == 0 and not all_done.triggered:
            all_done.succeed()
            return
        for successor in dag.successors(function):
            successor_state = state.state_of(successor)
            successor_state.mark_predecessor_done()
            if successor_state.ready(len(dag.predecessors(successor))):
                successor_state.triggered = True
                proc = self.env.process(
                    self._run_task(
                        dag, placement, invocation_id, successor, state,
                        remaining, all_done, failed, record,
                    ),
                    name=f"master:{dag.name}:{successor}",
                )
                self.registry.register(proc, invocation_id)

    # -- fault hooks (called by FaultDriver) ----------------------------------
    def on_node_crash(self, node_name: str) -> None:
        """MasterSP recovery: runtime-level retry.

        The master survives worker crashes, so the in-flight instances
        are killed with the *retryable* NODE_CRASH cause; their retry
        ladders back off and re-acquire containers from the worker's
        pool, which queues requests until the node recovers.
        """
        self.node_crashes += 1
        self.registry.cancel_node(
            node_name, CancelCause(CancelKind.NODE_CRASH, detail=node_name)
        )
        self.trace(Kind.NODE_CRASH, "", 0, node=node_name)

    def on_node_recovery(self, node_name: str) -> None:
        """Nothing to replay: the container pool drains its own backlog."""
        self.trace(Kind.NODE_RECOVERY, "", 0, node=node_name)
