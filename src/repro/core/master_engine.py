"""HyperFlow-serverless: the MasterSP baseline (paper §2.2-2.3).

A single central workflow engine holds every function's state.  For
each function it (1) decides the trigger in its serialized event loop,
(2) ships a task assignment to the worker over the network, (3) waits
for the worker to execute, and (4) processes the returned execution
state — again in the serialized loop — before checking successors.

The two network hops per function and the master's serialization are
exactly the scheduling overhead WorkerSP removes; keeping them explicit
here is what lets Fig. 4 / Fig. 11 be regenerated.

Like the distributed engines (ISSUE 10), registration compiles the
workflow once into per-function dispatch entries (:class:`_MasterFn`):
dense indices, pre-resolved worker nodes, and precomputed process
names/tags.  Per-invocation trigger state is two flat arrays local to
the invoke process — created in O(functions), freed by the invoke's own
exit — so the master's memory is O(in-flight), and the hot path does no
DAG walks, placement lookups, or string formatting.  The client-side
lifecycle (record, watchdog, teardown) is the shared
:class:`~.system.WorkflowSystem` one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..dag import WorkflowDAG
from ..metrics import MetricsCollector
from ..obs.spans import SpanKind
from ..sim import Cluster, Node, Resource
from .config import EngineConfig
from .faastore import DataPolicy, RemoteStorePolicy
from .faults import (
    CancelCause,
    CancelKind,
    FaultInjector,
    FunctionFailure,
    TaskCancelled,
)
from .switching import is_skipped
from .state import Placement
from .system import WorkflowSystem, static_critical_exec

__all__ = ["HyperFlowServerlessSystem"]


class _MasterFn:
    """Compiled dispatch entry for one function of a registered workflow."""

    __slots__ = (
        "name",
        "index",
        "is_virtual",
        "worker",  # pre-resolved worker Node (None for virtual nodes)
        "preds_count",
        "spawn_name",
        "assign_tag",
        "result_tag",
        "successors",  # tuple of _MasterFn, DAG order
    )


@dataclass
class _RegisteredWorkflow:
    dag: WorkflowDAG
    placement: Placement
    critical_exec: float
    # Compiled at register() time:
    fns: dict = field(default_factory=dict)  # name -> _MasterFn
    sources: tuple = ()
    total: int = 0
    sink_count: int = 0


class HyperFlowServerlessSystem(WorkflowSystem):
    """The MasterSP workflow system: central engine + worker executors."""

    mode = "master-sp"
    engine_label = "master-sp"
    default_policy = RemoteStorePolicy

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        master: Optional[Node] = None,
        faults: Optional[FaultInjector] = None,
    ):
        super().__init__(cluster, config, policy, metrics, faults=faults)
        # The paper deploys the central engine next to the invocation
        # generator and storage; we host it on the storage node.
        self.master = master or cluster.storage_node
        self._engine_lock = Resource(self.env, capacity=1)
        self._workflows: dict[str, _RegisteredWorkflow] = {}
        self.messages_sent = 0
        self.events_handled = 0
        self.busy_time = 0.0

    # -- registration -----------------------------------------------------
    def register(self, dag: WorkflowDAG, placement: Placement) -> None:
        dag.validate()
        placement.validate_against(dag)
        registered = _RegisteredWorkflow(
            dag=dag,
            placement=placement,
            critical_exec=static_critical_exec(dag),
        )
        names = dag.node_names
        fns: dict[str, _MasterFn] = {}
        for index, name in enumerate(names):
            node_meta = dag.node(name)
            fn = _MasterFn()
            fn.name = name
            fn.index = index
            fn.is_virtual = node_meta.is_virtual
            fn.worker = (
                None
                if node_meta.is_virtual
                else self.cluster.node(placement.node_of(name))
            )
            fn.preds_count = len(dag.predecessors(name))
            fn.spawn_name = f"master:{dag.name}:{name}"
            fn.assign_tag = f"assign:{name}"
            fn.result_tag = f"result:{name}"
            fns[name] = fn
        for name, fn in fns.items():
            fn.successors = tuple(fns[s] for s in dag.successors(name))
        registered.fns = fns
        registered.sources = tuple(fns[s] for s in dag.sources())
        registered.total = len(names)
        registered.sink_count = len(dag.sinks())
        self._workflows[dag.name] = registered

    def registered(self, workflow: str) -> _RegisteredWorkflow:
        try:
            return self._workflows[workflow]
        except KeyError:
            raise KeyError(f"workflow {workflow!r} is not registered") from None

    # -- invocation ---------------------------------------------------------
    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one end-to-end invocation.

        Returns the :class:`InvocationRecord` (also stored in metrics).
        Per-invocation trigger state is two arrays owned by this
        process, so the master's live state is O(in-flight invocations).
        """
        registered = self.registered(workflow)
        context = self._open(
            workflow, registered.critical_exec, registered.sink_count
        )
        invocation_id = context.record.invocation_id
        preds_done = [0] * registered.total
        triggered = bytearray(registered.total)
        shared = (registered, preds_done, triggered, context)
        for fn in registered.sources:
            triggered[fn.index] = 1
            # Task coordinators live on the master, not on any worker:
            # they survive worker crashes (the runtime retries under
            # them) and die only with the invocation.
            self.spawn_registered(
                self._run_task(fn, shared), invocation_id, name=fn.spawn_name
            )
        yield from self._watch(context)
        return self._close(context, registered.dag)

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

    def _run_task(self, fn: _MasterFn, shared: tuple) -> Generator:
        registered, preds_done, triggered, context = shared
        record = context.record
        invocation_id = record.invocation_id
        dag = registered.dag
        skipped = (
            self.config.evaluate_switches
            and not fn.is_virtual
            and is_skipped(dag, fn.name, invocation_id)
        )
        runs = not fn.is_virtual and not skipped
        task_start = self.env.now
        # Stage 1: the master engine decides and dispatches the trigger.
        yield from self._engine_step()
        if runs:
            worker = fn.worker
            self.messages_sent += 1
            assign_start = self.env.now
            yield self.cluster.network.message(
                self.master.nic,
                worker.nic,
                self.config.assign_message_size,
                tag=fn.assign_tag,
            )
            if self.spans.retain:
                self.spans.record(
                    SpanKind.STATE_SYNC,
                    assign_start,
                    self.env.now,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=fn.name,
                    node=self.master.name,
                    parent=self.spans.root_of(invocation_id),
                    role="assign",
                    dst=worker.name,
                )
            # Stage 2: the worker executes the function task, inline in
            # this coordinator process.  The runtime node-binds the
            # coordinator for the duration of the attempt ladder —
            # MasterSP recovery happens *inside* that ladder, so a node
            # crash interrupts the attempt, which backs off and retries
            # against the worker's (offline, queueing) container pool.
            # Once execution is over the coordinator re-binds to the
            # master: it must survive worker crashes from here on.
            me = self.env.active_process
            try:
                result = yield from self.runtime.execute(
                    dag, registered.placement, invocation_id, fn.name,
                    version=registered.placement.version,
                )
            except FunctionFailure as error:
                self.invocation_failed(dag.name, invocation_id, error)
                return
            except TaskCancelled:
                return
            finally:
                if me is not None and me.is_alive:
                    self.registry.register(me, invocation_id, node="")
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
                tag=fn.result_tag,
            )
            if self.spans.retain:
                self.spans.record(
                    SpanKind.STATE_SYNC,
                    result_start,
                    self.env.now,
                    workflow=dag.name,
                    invocation_id=invocation_id,
                    function=fn.name,
                    node=worker.name,
                    parent=self.spans.root_of(invocation_id),
                    role="result",
                    dst=self.master.name,
                )
        # Completion handling in the serialized engine loop.
        yield from self._engine_step()
        if not runs and self.spans.retain:
            # Virtual markers and skipped arms never reach the runtime:
            # their one FUNCTION span covers the two engine steps.
            self.spans.record(
                SpanKind.FUNCTION,
                task_start,
                workflow=dag.name,
                invocation_id=invocation_id,
                function=fn.name,
                node=self.master.name,
                parent=self.spans.root_of(invocation_id),
                status="skipped" if skipped else "virtual",
            )
        if not fn.successors:
            # The last sink to complete is the last task of all.
            self.sink_completed(dag.name, invocation_id)
            return
        for successor in fn.successors:
            index = successor.index
            count = preds_done[index] + 1
            preds_done[index] = count
            if not triggered[index] and count >= successor.preds_count:
                triggered[index] = 1
                self.spawn_registered(
                    self._run_task(successor, shared),
                    invocation_id,
                    name=successor.spawn_name,
                )

    # -- fault hooks (called by FaultDriver) ----------------------------------
    def on_node_crash(self, node_name: str) -> None:
        """MasterSP recovery: runtime-level retry.

        The master survives worker crashes, so the in-flight attempts
        are killed with the *retryable* NODE_CRASH cause; their retry
        ladders back off and re-acquire containers from the worker's
        pool, which queues requests until the node recovers.
        """
        self.node_crashes += 1
        self.registry.cancel_node(
            node_name, CancelCause(CancelKind.NODE_CRASH, detail=node_name)
        )

    def on_node_recovery(self, node_name: str) -> None:
        """Nothing to replay: the container pool drains its own backlog."""
