# FROZEN pre-PR copy for the engine-throughput A/B benchmark.
#
# Do not edit: this is the seed-side baseline that
# benchmarks/test_bench_engine.py races the live engines against.
# Imports of shared substrate (sim kernel, network, faults, policy,
# metrics) point at the live repro.* modules; the frozen modules
# (engines, state, runtime, clients) import each other relatively.

"""FaaSFlow's WorkerSP: per-worker engines with local triggering (§3.1, §4.2).

Each worker node runs a :class:`WorkerEngine` holding the *Workflow*
structures (sub-graphs) the graph scheduler assigned to it.  When a
local function finishes, the engine inspects its successors: local ones
are triggered over an in-process RPC; remote ones receive a state
message over a worker-to-worker TCP connection.  No task assignment
ever crosses the network — the master only partitions graphs and
(acting as the client) receives the final execution state from the
sink functions' workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.dag import WorkflowDAG
from repro.metrics import (
    InvocationRecord,
    InvocationStatus,
    MetricsCollector,
)
from repro.obs.spans import SpanKind
from repro.sim import Cluster, Node, Resource
from repro.core.config import EngineConfig
from repro.core.faastore import DataPolicy, FaaStorePolicy
from repro.core.faults import (
    CancelCause,
    CancelKind,
    FaultInjector,
    FunctionFailure,
    ProcessRegistry,
    TaskCancelled,
)
from .master_engine import static_critical_exec
from .runtime import FunctionRuntime
from repro.core.switching import is_skipped
from .state import (
    InvocationID,
    Placement,
    WorkflowStructure,
    new_invocation_id,
)
from .tracing import Kind, Tracer

__all__ = ["WorkerEngine", "FaaSFlowSystem"]


@dataclass
class _InvocationContext:
    """Client-side bookkeeping for one in-flight invocation."""

    record: InvocationRecord
    version: int
    sinks_remaining: int
    all_done: object  # kernel Event
    failed: object = None  # kernel Event


@dataclass
class _DeployedWorkflow:
    dag: WorkflowDAG
    placement: Placement
    critical_exec: float
    live_invocations: int = 0


class WorkerEngine:
    """The decentralized engine on one worker node."""

    def __init__(self, system: "FaaSFlowSystem", node: Node):
        self.system = system
        self.node = node
        self.env = node.env
        self._lock = Resource(self.env, capacity=1)
        # (workflow, version) -> structure for the local sub-graph.
        self._structures: dict[tuple[str, int], WorkflowStructure] = {}
        self.states_synced = 0  # cross-worker state messages received
        self.events_handled = 0  # engine-loop steps executed
        self.busy_time = 0.0  # seconds the engine loop was occupied
        # Crash state: while down, incoming control messages are queued
        # (the senders' TCP stacks would retry the connection) and
        # replayed on recovery.
        self.down = False
        self.crash_count = 0
        self._deferred: list[tuple[str, str, int, InvocationID, str]] = []

    # -- deployment ---------------------------------------------------------
    def deploy(self, structure: WorkflowStructure) -> None:
        self._structures[(structure.workflow, structure.version)] = structure

    def retire(self, workflow: str, version: int) -> None:
        """Red-black support: drop an out-of-date sub-graph version."""
        structure = self._structures.pop((workflow, version), None)
        if structure is None:
            return
        for function in structure.local_functions:
            if not structure.info(function).is_virtual:
                self.node.containers.recycle_version(function, version + 1)

    def structure(self, workflow: str, version: int) -> WorkflowStructure:
        try:
            return self._structures[(workflow, version)]
        except KeyError:
            raise KeyError(
                f"no sub-graph of {workflow!r} v{version} on {self.node.name}"
            ) from None

    def has_structure(self, workflow: str, version: int) -> bool:
        return (workflow, version) in self._structures

    @property
    def deployed_count(self) -> int:
        return len(self._structures)

    # -- engine event loop ----------------------------------------------------
    def _engine_step(self) -> Generator:
        # The context manager releases the lock even when the process
        # is interrupted while *waiting* for it (an ungranted request
        # is cancelled out of the queue rather than released).
        with self._lock.request() as request:
            yield request
            yield self.env.timeout(self.system.config.worker_process_time)
            self.events_handled += 1
            self.busy_time += self.system.config.worker_process_time

    # -- state synchronization (paper Fig. 6) ---------------------------------
    def receive_state_update(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        function: str,
    ) -> Generator:
        """A predecessor of a local ``function`` finished somewhere."""
        if self.down:
            self._deferred.append(
                ("update", workflow, version, invocation_id, function)
            )
            return
        yield from self._engine_step()
        structure = self.structure(workflow, version)
        info = structure.info(function)
        state = structure.invocation(invocation_id).state_of(function)
        state.mark_predecessor_done()
        if state.ready(info.predecessors_count):
            state.triggered = True
            self.system.spawn_registered(
                self.run_function(workflow, version, invocation_id, function),
                invocation_id,
                node=self.node.name,
                name=f"worker:{self.node.name}:{function}",
            )

    def trigger_source(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        function: str,
    ) -> Generator:
        """Invocation request for an entry function arrived at this node."""
        if self.down:
            self._deferred.append(
                ("trigger", workflow, version, invocation_id, function)
            )
            return
        yield from self._engine_step()
        structure = self.structure(workflow, version)
        state = structure.invocation(invocation_id).state_of(function)
        if not state.triggered:
            state.triggered = True
            self.system.spawn_registered(
                self.run_function(workflow, version, invocation_id, function),
                invocation_id,
                node=self.node.name,
                name=f"worker:{self.node.name}:{function}",
            )

    # -- local execution -----------------------------------------------------
    def run_function(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        function: str,
    ) -> Generator:
        structure = self.structure(workflow, version)
        info = structure.info(function)
        self.system.trace(
            Kind.FUNCTION_TRIGGERED, workflow, invocation_id,
            function=function, node=self.node.name,
        )
        skipped = (
            self.system.config.evaluate_switches
            and not info.is_virtual
            and is_skipped(structure.dag, function, invocation_id)
        )
        if info.is_virtual or skipped:
            # Virtual step markers (and non-selected switch arms) cost
            # one local bookkeeping action, no container and no data.
            yield self.env.timeout(self.system.config.local_trigger_time)
            if skipped:
                self.system.trace(
                    Kind.FUNCTION_EXECUTED, workflow, invocation_id,
                    function=function, node=self.node.name, detail="skipped",
                )
        else:
            execute_proc = self.system.spawn_registered(
                self.system.runtime.execute(
                    structure.dag,
                    structure.placement,
                    invocation_id,
                    function,
                    version=version,
                ),
                invocation_id,
                node=self.node.name,
                name=f"execute:{self.node.name}:{function}",
            )
            try:
                result = yield execute_proc
            except TaskCancelled:
                return  # whoever cancelled us owns the invocation's fate
            except FunctionFailure:
                # The task exhausted its retries: report the failure to
                # the client like a sink would report success.
                report_start = self.env.now
                yield self.system.network.message(
                    self.node.nic,
                    self.system.client_node.nic,
                    self.system.config.result_message_size,
                    tag=f"failure:{function}",
                )
                spans = self.system.spans
                if spans.enabled:
                    spans.record(
                        SpanKind.STATE_SYNC,
                        report_start,
                        self.env.now,
                        workflow=workflow,
                        invocation_id=invocation_id,
                        function=function,
                        node=self.node.name,
                        parent=spans.root_of(invocation_id),
                        role="failure-report",
                        dst=self.system.client_node.name,
                    )
                self.system.invocation_failed(
                    structure.workflow, invocation_id, function
                )
                return
            if result is None:
                # The execute process was cancelled (invocation abort or
                # node crash) and exited quietly; so do we.
                return
            context = self.system.context(invocation_id)
            if context is not None:
                context.record.cold_starts += result.cold_starts
                context.record.retries += result.retries
            if result.cold_starts:
                self.system.trace(
                    Kind.COLD_START, workflow, invocation_id,
                    function=function, node=self.node.name,
                    detail=str(result.cold_starts),
                )
        structure.invocation(invocation_id).state_of(function).executed = True
        self.system.trace(
            Kind.FUNCTION_EXECUTED, workflow, invocation_id,
            function=function, node=self.node.name,
        )
        self._propagate(structure, invocation_id, function)

    def _propagate(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        function: str,
    ) -> None:
        """Fan out state updates (and sink reports) as detached processes.

        Deliberately yield-free: once a function is marked ``executed``
        its notifications are committed atomically, so a node crash can
        never leave a half-propagated function.  The spawned messages
        are registered *invocation-bound* (not node-bound) — they model
        packets already handed to the TCP stack, which survive the
        sender's crash but die with the invocation.
        """
        info = structure.info(function)
        if not info.successors:
            self.system.spawn_registered(
                self._report_sink(structure, invocation_id, function),
                invocation_id,
                name=f"sink-report:{function}",
            )
            return
        for successor in info.successors:
            target = info.successor_locations[successor]
            if target == self.node.name:
                self.system.spawn_registered(
                    self._notify_local(structure, invocation_id, successor),
                    invocation_id,
                    name=f"rpc:{function}->{successor}",
                )
            else:
                self.system.spawn_registered(
                    self._notify_remote(structure, invocation_id, successor, target),
                    invocation_id,
                    name=f"sync:{function}->{successor}",
                )

    def _report_sink(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        function: str,
    ) -> Generator:
        """A sink finished: report the execution state to the client."""
        report_start = self.env.now
        yield self.system.network.message(
            self.node.nic,
            self.system.client_node.nic,
            self.system.config.result_message_size,
            tag=f"sink:{function}",
        )
        spans = self.system.spans
        if spans.enabled:
            spans.record(
                SpanKind.STATE_SYNC,
                report_start,
                self.env.now,
                workflow=structure.workflow,
                invocation_id=invocation_id,
                function=function,
                node=self.node.name,
                parent=spans.root_of(invocation_id),
                role="sink-report",
                dst=self.system.client_node.name,
            )
        self.system.sink_completed(structure.workflow, invocation_id)

    def _notify_local(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        successor: str,
    ) -> Generator:
        yield self.env.timeout(self.system.config.local_trigger_time)
        yield from self.receive_state_update(
            structure.workflow, structure.version, invocation_id, successor
        )

    def _notify_remote(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        successor: str,
        target: str,
    ) -> Generator:
        remote_engine = self.system.engine(target)
        sync_start = self.env.now
        yield self.system.network.message(
            self.node.nic,
            remote_engine.node.nic,
            self.system.config.state_message_size,
            tag=f"state:{successor}",
        )
        spans = self.system.spans
        if spans.enabled:
            spans.record(
                SpanKind.STATE_SYNC,
                sync_start,
                self.env.now,
                workflow=structure.workflow,
                invocation_id=invocation_id,
                function=successor,
                node=self.node.name,
                parent=spans.root_of(invocation_id),
                role="state",
                dst=remote_engine.node.name,
            )
        remote_engine.states_synced += 1
        self.system.trace(
            Kind.STATE_SYNC, structure.workflow, invocation_id,
            function=successor, node=remote_engine.node.name,
            detail=f"from {self.node.name}",
        )
        yield from remote_engine.receive_state_update(
            structure.workflow, structure.version, invocation_id, successor
        )

    # -- crash and recovery ---------------------------------------------------
    def fail(self) -> list[tuple[str, int, InvocationID, str]]:
        """The node crashed: mark the engine down, collect lost tasks.

        Every local function that was triggered but had not finished
        executing is reset to untriggered and returned so the system
        can re-trigger it on recovery.  (``run_function`` marks a
        function executed and spawns its notifications in one atomic
        step, so ``executed`` functions never need replay.)
        """
        self.down = True
        self.crash_count += 1
        pending: list[tuple[str, int, InvocationID, str]] = []
        for (workflow, version), structure in self._structures.items():
            for invocation_id, inv_state in structure.invocation_items():
                for function, state in inv_state.functions.items():
                    if state.triggered and not state.executed:
                        state.triggered = False
                        pending.append(
                            (workflow, version, invocation_id, function)
                        )
        return pending

    def recover(self) -> None:
        """The node came back: replay the control backlog.

        Deferred messages re-enter through the normal handlers (each
        paying an engine step, like a real backlog drain would).
        """
        self.down = False
        deferred, self._deferred = self._deferred, []
        for kind, workflow, version, invocation_id, function in deferred:
            if (
                self.system.context(invocation_id) is None
                or not self.has_structure(workflow, version)
            ):
                continue  # the invocation died while we were down
            handler = (
                self.receive_state_update
                if kind == "update"
                else self.trigger_source
            )
            self.system.spawn_registered(
                handler(workflow, version, invocation_id, function),
                invocation_id,
                node=self.node.name,
                name=f"replay:{self.node.name}:{function}",
            )

    def retrigger(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        function: str,
    ) -> bool:
        """Re-run a task the crash killed, unless it already restarted."""
        structure = self.structure(workflow, version)
        state = structure.invocation(invocation_id).state_of(function)
        if state.triggered or state.executed:
            return False  # a replayed control message beat us to it
        state.triggered = True
        self.system.spawn_registered(
            self.run_function(workflow, version, invocation_id, function),
            invocation_id,
            node=self.node.name,
            name=f"retrigger:{self.node.name}:{function}",
        )
        return True


class FaaSFlowSystem:
    """The WorkerSP workflow system: graph-partitioned distributed engines."""

    mode = "worker-sp"
    # Telemetry/SLO label for record_invocation_metrics; subclasses with
    # a different triggering paradigm (DataflowSP) override both.
    engine_label = "worker-sp"
    engine_class = WorkerEngine

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[EngineConfig] = None,
        policy: Optional[DataPolicy] = None,
        metrics: Optional[MetricsCollector] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.config = config or EngineConfig()
        self.tracer = tracer
        self.spans = cluster.spans
        self.metrics = metrics if metrics is not None else MetricsCollector()
        if self.spans.enabled:
            self.metrics.spans = self.spans
        self.policy = policy or FaaStorePolicy(cluster, self.metrics)
        self.registry = ProcessRegistry()
        self.runtime = FunctionRuntime(
            cluster, self.config, self.policy, faults=faults,
            registry=self.registry,
        )
        # The master node doubles as the invoking client (paper §5.1).
        self.client_node = cluster.storage_node
        self.engines: dict[str, WorkerEngine] = {
            worker.name: self.engine_class(self, worker)
            for worker in cluster.workers
        }
        self._deployed: dict[tuple[str, int], _DeployedWorkflow] = {}
        self._current_version: dict[str, int] = {}
        self._contexts: dict[InvocationID, _InvocationContext] = {}
        self.node_crashes = 0
        self.retriggered = 0
        # node name -> tasks lost to a crash, re-triggered on recovery.
        self._crash_pending: dict[
            str, list[tuple[str, int, InvocationID, str]]
        ] = {}

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

    # -- deployment ---------------------------------------------------------
    def engine(self, worker_name: str) -> WorkerEngine:
        try:
            return self.engines[worker_name]
        except KeyError:
            raise KeyError(f"no engine on {worker_name!r}") from None

    def deploy(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        quotas: Optional[dict[str, float]] = None,
        prewarm: int = 0,
        container_limits: Optional[dict[str, float]] = None,
    ) -> None:
        """Distribute sub-graphs to the worker engines (one version).

        ``quotas`` (worker name -> bytes, from the scheduler's
        reclamation pass) pins each node's FaaStore pool; omit it to
        leave the pools unchanged.  ``prewarm`` starts that many
        containers per function on its placed worker so first
        invocations skip the cold start.  Re-deploying an
        already-deployed workflow performs a red-black rollout: the new
        version becomes current immediately, old versions drain and are
        retired once their invocations finish.
        """
        dag.validate()
        placement.validate_against(dag)
        if quotas is not None:
            for worker in self.cluster.workers:
                worker.set_faastore_quota(
                    quotas.get(worker.name, 0.0), workflow=dag.name
                )
        if container_limits:
            # Fig. 10(b): the reclaimed memory physically comes out of
            # each function's own containers.
            for function, limit in container_limits.items():
                worker = self.cluster.node(placement.node_of(function))
                worker.containers.set_function_limit(function, limit)
        previous = self._current_version.get(dag.name)
        version = (previous or 0) + 1
        placement = placement.with_version(version)
        for worker_name, engine in self.engines.items():
            local = placement.functions_on(worker_name)
            if local:
                engine.deploy(
                    WorkflowStructure(dag, placement, local, version=version)
                )
        if prewarm > 0:
            for node in dag.real_nodes():
                worker = self.cluster.node(placement.node_of(node.name))
                instances = max(1, int(round(node.map_factor))) * prewarm
                worker.containers.prewarm(
                    node.name, count=instances, version=version
                )
        self._deployed[(dag.name, version)] = _DeployedWorkflow(
            dag=dag,
            placement=placement,
            critical_exec=static_critical_exec(dag),
        )
        self._current_version[dag.name] = version
        if previous is not None:
            self._try_retire(dag.name, previous)

    def current_version(self, workflow: str) -> int:
        try:
            return self._current_version[workflow]
        except KeyError:
            raise KeyError(f"workflow {workflow!r} is not deployed") from None

    def deployed(self, workflow: str, version: Optional[int] = None):
        if version is None:
            version = self.current_version(workflow)
        return self._deployed[(workflow, version)]

    def _try_retire(self, workflow: str, version: int) -> None:
        deployed = self._deployed.get((workflow, version))
        if deployed is None or deployed.live_invocations > 0:
            return
        if version == self._current_version.get(workflow):
            return
        del self._deployed[(workflow, version)]
        for engine in self.engines.values():
            engine.retire(workflow, version)

    # -- invocation ----------------------------------------------------------
    def context(self, invocation_id: InvocationID) -> Optional[_InvocationContext]:
        return self._contexts.get(invocation_id)

    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one end-to-end invocation (client side)."""
        version = self.current_version(workflow)
        deployed = self._deployed[(workflow, version)]
        dag, placement = deployed.dag, deployed.placement
        invocation_id = new_invocation_id()
        record = InvocationRecord(
            workflow=workflow,
            invocation_id=invocation_id,
            mode=self.mode,
            started_at=self.env.now,
            critical_path_exec=deployed.critical_exec,
        )
        context = _InvocationContext(
            record=record,
            version=version,
            sinks_remaining=len(dag.sinks()),
            all_done=self.env.event(),
            failed=self.env.event(),
        )
        self._contexts[invocation_id] = context
        deployed.live_invocations += 1
        self.trace(Kind.INVOCATION_START, workflow, invocation_id)
        if self.spans.enabled:
            self.spans.start_invocation(
                invocation_id, workflow=workflow, mode=self.mode
            )
        # The client ships the invocation request to each entry
        # function's worker; from there everything is worker-side.
        for source in dag.sources():
            self.spawn_registered(
                self._send_invocation(
                    workflow, version, invocation_id, source, placement
                ),
                invocation_id,
                name=f"invoke:{workflow}:{source}",
            )
        timeout = self.env.timeout(self.config.execution_timeout)
        yield self.env.any_of([context.all_done, context.failed, timeout])
        # Check failure *before* completion: when a failure report and
        # the last sink report land in the same timestep, the failure
        # must win (sink_completed also refuses to count sinks after a
        # failure, so all_done can't even trigger then).
        if context.failed.triggered:
            record.status = InvocationStatus.FAILED
            record.finished_at = self.env.now
        elif context.all_done.triggered:
            record.finished_at = self.env.now
        else:
            record.status = InvocationStatus.TIMEOUT
            record.finished_at = record.started_at + self.config.execution_timeout
        if not timeout.processed:
            # Cancel the watchdog so the kernel heap doesn't accumulate
            # one 60-second timer per completed invocation.
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
        self._contexts.pop(invocation_id, None)
        # Release the per-invocation *State* objects on every engine
        # that holds a sub-graph of this workflow (paper §4.2.1).
        for engine in self.engines.values():
            if engine.has_structure(workflow, version):
                engine.structure(workflow, version).release_invocation(
                    invocation_id
                )
        deployed.live_invocations -= 1
        if version != self._current_version.get(workflow):
            self._try_retire(workflow, version)
        return record

    def _send_invocation(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        source: str,
        placement: Placement,
    ) -> Generator:
        engine = self.engine(placement.node_of(source))
        send_start = self.env.now
        yield self.network.message(
            self.client_node.nic,
            engine.node.nic,
            self.config.assign_message_size,
            tag=f"invoke:{source}",
        )
        if self.spans.enabled:
            self.spans.record(
                SpanKind.STATE_SYNC,
                send_start,
                self.env.now,
                workflow=workflow,
                invocation_id=invocation_id,
                function=source,
                node=self.client_node.name,
                parent=self.spans.root_of(invocation_id),
                role="invoke",
                dst=engine.node.name,
            )
        yield from engine.trigger_source(workflow, version, invocation_id, source)

    def trace(self, kind: str, workflow: str, invocation_id: InvocationID,
              function: str = "", node: str = "", detail: str = "") -> None:
        if self.tracer is not None:
            self.tracer.record(
                self.env.now, kind, workflow, invocation_id,
                function=function, node=node, detail=detail,
            )

    def invocation_failed(
        self, workflow: str, invocation_id: InvocationID, function: str
    ) -> None:
        context = self._contexts.get(invocation_id)
        if context is None:
            return  # already timed out / torn down
        if context.failed is not None and not context.failed.triggered:
            context.failed.succeed(function)

    def sink_completed(self, workflow: str, invocation_id: InvocationID) -> None:
        context = self._contexts.get(invocation_id)
        if context is None:
            return  # invocation already timed out and was torn down
        if context.failed is not None and context.failed.triggered:
            return  # already failed; a late sink can't resurrect it
        context.sinks_remaining -= 1
        if context.sinks_remaining == 0 and not context.all_done.triggered:
            context.all_done.succeed()

    # -- fault hooks (called by FaultDriver) ----------------------------------
    def on_node_crash(self, node_name: str) -> None:
        """WorkerSP recovery: engine-level re-triggering.

        The crashed node's tasks are killed with the *terminal*
        NODE_STOP cause — its engine is gone, so there is no runtime
        left to retry inside.  Instead the engine records which local
        functions were lost and re-triggers them when the node (and its
        sub-graph state) comes back.
        """
        engine = self.engines.get(node_name)
        if engine is None:
            return
        cancelled = self.registry.cancel_node(
            node_name, CancelCause(CancelKind.NODE_STOP, detail=node_name)
        )
        pending = engine.fail()
        if pending:
            self._crash_pending.setdefault(node_name, []).extend(pending)
        self.node_crashes += 1
        self.trace(
            Kind.NODE_CRASH, "", 0, node=node_name,
            detail=f"killed {cancelled} process(es), lost {len(pending)} task(s)",
        )

    def on_node_recovery(self, node_name: str) -> None:
        engine = self.engines.get(node_name)
        if engine is None:
            return
        # First drain the control messages that queued during the
        # outage (they may re-trigger some lost tasks themselves)...
        engine.recover()
        # ...then re-trigger whatever the crash killed and nothing has
        # restarted yet, for invocations that are still alive.
        retriggered = 0
        for workflow, version, invocation_id, function in self._crash_pending.pop(
            node_name, []
        ):
            if (
                invocation_id not in self._contexts
                or not engine.has_structure(workflow, version)
            ):
                continue
            if engine.retrigger(workflow, version, invocation_id, function):
                retriggered += 1
        self.retriggered += retriggered
        self.trace(
            Kind.NODE_RECOVERY, "", 0, node=node_name,
            detail=f"retriggered {retriggered} task(s)",
        )
