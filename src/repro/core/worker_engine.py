"""FaaSFlow's WorkerSP: per-worker engines with local triggering (§3.1, §4.2).

Each worker node runs a :class:`WorkerEngine` holding the *Workflow*
structures (sub-graphs) the graph scheduler assigned to it.  When a
local function finishes, the engine inspects its successors: local ones
are triggered over an in-process RPC; remote ones receive a state
message over a worker-to-worker TCP connection.  No task assignment
ever crosses the network — the master only partitions graphs and
(acting as the client) receives the final execution state from the
sink functions' workers.

Serving-throughput design: deployment compiles each ``(workflow,
version)`` sub-graph into a per-engine dispatch table
(:class:`_FnDispatch`) — dense function indices, pre-resolved successor
engines, and precomputed process names — so the per-invocation hot path
does no string formatting, no placement lookups, and no per-function
state allocation (state lives in :class:`CompiledInvocation` arrays).
A live triggered-not-executed index keeps crash collection O(in-flight)
and invocation state is retired the moment the invocation completes, so
engine memory tracks concurrency, not history.  A finished function's
fan-out is a tuple of delivery groups, each sent by one ``_notify``
process: one successor per group by default, or — with
``EngineConfig.batch_control`` — one group per destination engine, so
the updates for one destination share a single transfer and a single
engine wakeup (documented divergence; default off keeps the frozen-seed
event sequence bit-identical, and a group of one is the plain path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..dag import WorkflowDAG
from ..obs.spans import SpanKind
from ..sim import Node, Resource
from .faults import (
    CancelCause,
    CancelKind,
    FunctionFailure,
    TaskCancelled,
)
from .switching import is_skipped
from .state import (
    EXECUTED,
    TRIGGERED,
    InvocationID,
    Placement,
    WorkflowStructure,
)
from .system import WorkflowSystem, static_critical_exec

__all__ = ["WorkerEngine", "FaaSFlowSystem"]


@dataclass
class _DeployedWorkflow:
    dag: WorkflowDAG
    placement: Placement
    critical_exec: float
    live_invocations: int = 0
    # Compiled at deploy time so invoke() does no DAG or placement walks:
    # (source name, its engine, precomputed send-process name) triples,
    # the sink count, and every engine-local structure of this version.
    sources: list = field(default_factory=list)
    sink_count: int = 0
    structures: list = field(default_factory=list)


class _FnDispatch:
    """Compiled per-engine dispatch entry for one local function.

    Everything the hot path needs, resolved once at deploy time:
    dense index, trigger metadata, successor fan-out with pre-resolved
    remote engine references, and the process-name strings that were
    previously f-formatted on every spawn.
    """

    __slots__ = (
        "name",
        "index",
        "info",
        "preds_count",
        "is_virtual",
        "run_name",
        "sink_name",
        "sink_tag",
        "fail_tag",
        # Delivery groups: (remote engine or None, destination
        # structure, destination entries, process name, message tag).
        # Resolved lazily by :meth:`_link_entry` on first propagation,
        # once every engine of the deployment has compiled its table.
        "fanout",
        # DataflowSP eager shipping, precompiled; None for WorkerSP (and
        # for producers with nothing to ship).
        "ship_plan",
    )


class WorkerEngine:
    """The decentralized engine on one worker node."""

    # Spawn-name prefixes and the wire label of a state update (span
    # role, message tag); DataflowSP overrides them.
    _run_prefix = "worker"
    _local_notify_prefix = "rpc"
    _remote_notify_prefix = "sync"
    _sync_role = "state"

    def __init__(self, system: "FaaSFlowSystem", node: Node):
        self.system = system
        self.node = node
        self.env = node.env
        self._lock = Resource(self.env, capacity=1)
        # (workflow, version) -> structure for the local sub-graph.
        self._structures: dict[tuple[str, int], WorkflowStructure] = {}
        # (workflow, version) -> (structure, name -> _FnDispatch).
        self._compiled: dict[
            tuple[str, int],
            tuple[WorkflowStructure, dict[str, _FnDispatch]],
        ] = {}
        self.states_synced = 0  # cross-worker state updates (tokens) received
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
        key = (structure.workflow, structure.version)
        self._structures[key] = structure
        self._compiled[key] = (structure, self._compile(structure))

    def _compile(
        self, structure: WorkflowStructure
    ) -> dict[str, _FnDispatch]:
        """Build the indexed dispatch table for one deployed sub-graph."""
        node_name = self.node.name
        entries: dict[str, _FnDispatch] = {}
        for index, name in enumerate(structure.local_names):
            entry = _FnDispatch()
            entry.name = name
            entry.index = index
            entry.info = structure.infos[index]
            entry.preds_count = structure.preds_counts[index]
            entry.is_virtual = structure.virtual_flags[index]
            entry.run_name = f"{self._run_prefix}:{node_name}:{name}"
            entry.sink_name = f"sink-report:{name}"
            entry.sink_tag = f"sink:{name}"
            entry.fail_tag = f"failure:{name}"
            entry.ship_plan = None
            # Successor fan-out is linked on first propagation: the
            # destination dispatch tables may not exist yet while this
            # engine's sub-graph is being deployed.
            entry.fanout = None
            entries[name] = entry
        return entries

    def _link_entry(
        self, structure: WorkflowStructure, entry: _FnDispatch
    ) -> None:
        """Resolve one function's fan-out into delivery groups.

        Runs once per (deployment, function), after which propagation
        needs no dict lookups at all.  By default each successor is its
        own group, in DAG order.  Under ``batch_control`` there is one
        group per destination engine, single-successor groups first: a
        group of one is the plain path, so batching it would only
        relabel it.
        """
        key = (structure.workflow, structure.version)
        engines = self.system.engines
        node_name = self.node.name
        batch = self.system.config.batch_control
        groups: dict[str, tuple] = {}
        for successor, target in structure.successor_targets[entry.index]:
            if target == node_name:
                remote = None
                dest_structure, dest_entries = self._compiled[key]
            else:
                remote = engines[target]
                dest_structure, dest_entries = remote._compiled[key]
            group = groups.setdefault(
                target if batch else successor, (remote, dest_structure, [])
            )
            group[2].append(dest_entries[successor])
        role = self._sync_role
        fanout = []
        # Stable sort: single-successor groups first, each half in order.
        for remote, dest_structure, dests in sorted(
            groups.values(), key=lambda group: len(group[2]) > 1
        ):
            prefix = (
                self._local_notify_prefix
                if remote is None
                else self._remote_notify_prefix
            )
            if len(dests) == 1:
                name = f"{prefix}:{entry.name}->{dests[0].name}"
                tag = f"{role}:{dests[0].name}"
            else:
                name = f"{prefix}:{entry.name}->[{len(dests)}]"
                tag = f"{role}-batch:{dests[0].name}+{len(dests) - 1}"
            fanout.append((remote, dest_structure, tuple(dests), name, tag))
        entry.fanout = tuple(fanout)

    def retire(self, workflow: str, version: int) -> None:
        """Red-black support: drop an out-of-date sub-graph version."""
        structure = self._structures.pop((workflow, version), None)
        self._compiled.pop((workflow, version), None)
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

    def _lookup(
        self, workflow: str, version: int
    ) -> tuple[WorkflowStructure, dict[str, _FnDispatch]]:
        try:
            return self._compiled[(workflow, version)]
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
    def _apply_state_update(
        self,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        invocation_id: InvocationID,
    ) -> None:
        """One predecessor-done bookkeeping action (post engine step)."""
        inv = structure.invocation(invocation_id)
        index = entry.index
        done = inv.preds_done[index] + 1
        inv.preds_done[index] = done
        if not inv.flags[index] & TRIGGERED and done >= entry.preds_count:
            inv.flags[index] |= TRIGGERED
            structure.note_triggered(invocation_id, index)
            self.system.spawn_registered(
                self.run_function(structure, entry, invocation_id),
                invocation_id,
                node=self.node.name,
                name=entry.run_name,
            )

    def _trigger_entry(
        self,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        invocation_id: InvocationID,
    ) -> None:
        """Fire an entry function (post engine step), once."""
        inv = structure.invocation(invocation_id)
        index = entry.index
        if not inv.flags[index] & TRIGGERED:
            inv.flags[index] |= TRIGGERED
            structure.note_triggered(invocation_id, index)
            self.system.spawn_registered(
                self.run_function(structure, entry, invocation_id),
                invocation_id,
                node=self.node.name,
                name=entry.run_name,
            )

    def receive_state_update(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        function: str,
    ) -> Generator:
        """A predecessor of a local ``function`` finished somewhere.

        Name-based handler: recovery replay and external callers enter
        here; steady-state propagation uses the pre-linked notify paths.
        """
        if self.down:
            self._deferred.append(
                ("update", workflow, version, invocation_id, function)
            )
            return
        yield from self._engine_step()
        structure, entries = self._lookup(workflow, version)
        self._apply_state_update(structure, entries[function], invocation_id)

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
        structure, entries = self._lookup(workflow, version)
        self._trigger_entry(structure, entries[function], invocation_id)

    # -- local execution -----------------------------------------------------
    def run_function(
        self,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        invocation_id: InvocationID,
    ) -> Generator:
        system = self.system
        function = entry.name
        skipped = (
            system.config.evaluate_switches
            and not entry.is_virtual
            and is_skipped(structure.dag, function, invocation_id)
        )
        produced = False
        if entry.is_virtual or skipped:
            # Virtual step markers (and non-selected switch arms) cost
            # one local bookkeeping action, no container and no data.
            step_start = self.env.now
            yield self.env.timeout(system.config.local_trigger_time)
            spans = system.spans
            if spans.retain:
                spans.record(
                    SpanKind.FUNCTION,
                    step_start,
                    workflow=structure.workflow,
                    invocation_id=invocation_id,
                    function=function,
                    node=self.node.name,
                    parent=spans.root_of(invocation_id),
                    status="skipped" if skipped else "virtual",
                )
        else:
            # The runtime runs inline in this (already node-bound)
            # trigger-handler process — no separate execute process on
            # the hot path.  Interrupts land in the runtime's frames and
            # surface with identical semantics.
            try:
                result = yield from system.runtime.execute(
                    structure.dag,
                    structure.placement,
                    invocation_id,
                    function,
                    version=structure.version,
                )
            except TaskCancelled:
                return  # whoever cancelled us owns the invocation's fate
            except FunctionFailure:
                # The task exhausted its retries: report the failure to
                # the client like a sink would report success.
                report_start = self.env.now
                yield system.network.message(
                    self.node.nic,
                    system.client_node.nic,
                    system.config.result_message_size,
                    tag=entry.fail_tag,
                )
                spans = system.spans
                if spans.retain:
                    spans.record(
                        SpanKind.STATE_SYNC,
                        report_start,
                        self.env.now,
                        workflow=structure.workflow,
                        invocation_id=invocation_id,
                        function=function,
                        node=self.node.name,
                        parent=spans.root_of(invocation_id),
                        role="failure-report",
                        dst=system.client_node.name,
                    )
                system.invocation_failed(
                    structure.workflow, invocation_id, function
                )
                return
            if result is None:
                # The execute process was cancelled (invocation abort or
                # node crash) and exited quietly; so do we.
                return
            context = system.context(invocation_id)
            if context is not None:
                context.record.cold_starts += result.cold_starts
                context.record.retries += result.retries
            produced = True
        inv = structure.invocation(invocation_id)
        inv.flags[entry.index] |= EXECUTED
        structure.note_untriggered(invocation_id, entry.index)
        self._propagate(structure, invocation_id, entry, produced)

    def _propagate(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        entry: _FnDispatch,
        produced: bool = False,
    ) -> None:
        """Fan out state updates (and sink reports) as detached processes.

        Deliberately yield-free: once a function is marked ``executed``
        its notifications are committed atomically, so a node crash can
        never leave a half-propagated function.  The spawned messages
        are registered *invocation-bound* (not node-bound) — they model
        packets already handed to the TCP stack, which survive the
        sender's crash but die with the invocation.
        """
        if entry.fanout is None:
            self._link_entry(structure, entry)
        spawn = self.system.spawn_registered
        if not entry.fanout:
            spawn(
                self._report_sink(structure, invocation_id, entry),
                invocation_id,
                name=entry.sink_name,
            )
            return
        for group in entry.fanout:
            spawn(
                self._notify(invocation_id, group),
                invocation_id,
                name=group[3],
            )

    def _report_sink(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        entry: _FnDispatch,
    ) -> Generator:
        """A sink finished: report the execution state to the client."""
        report_start = self.env.now
        yield self.system.network.message(
            self.node.nic,
            self.system.client_node.nic,
            self.system.config.result_message_size,
            tag=entry.sink_tag,
        )
        spans = self.system.spans
        if spans.retain:
            spans.record(
                SpanKind.STATE_SYNC,
                report_start,
                self.env.now,
                workflow=structure.workflow,
                invocation_id=invocation_id,
                function=entry.name,
                node=self.node.name,
                parent=spans.root_of(invocation_id),
                role="sink-report",
                dst=self.system.client_node.name,
            )
        self.system.sink_completed(structure.workflow, invocation_id)

    def _notify(self, invocation_id: InvocationID, group: tuple) -> Generator:
        """Deliver one fan-out group and apply it in one engine step.

        A local group is an in-process RPC hop; a remote one is a single
        message whose size scales with the group (the bytes still move).
        """
        remote_engine, dest_structure, dest_entries, _, tag = group
        system = self.system
        count = len(dest_entries)
        if remote_engine is None:
            target = self
            yield self.env.timeout(system.config.local_trigger_time)
        else:
            target = remote_engine
            # Every message's size object stays alive in its transfer
            # record: a group of one passes the shared config value
            # rather than a fresh product.
            size = system.config.state_message_size
            if count > 1:
                size *= count
            sync_start = self.env.now
            yield system.network.message(
                self.node.nic, remote_engine.node.nic, size, tag=tag
            )
            spans = system.spans
            if spans.retain:
                role = self._sync_role
                extra = {}
                if count > 1:
                    role = f"{role}-batch"
                    extra["batch"] = count
                spans.record(
                    SpanKind.STATE_SYNC,
                    sync_start,
                    self.env.now,
                    workflow=dest_structure.workflow,
                    invocation_id=invocation_id,
                    function=dest_entries[0].name,
                    node=self.node.name,
                    parent=spans.root_of(invocation_id),
                    role=role,
                    dst=remote_engine.node.name,
                    **extra,
                )
            remote_engine.states_synced += count
        if target.down:
            for dest_entry in dest_entries:
                target._deferred.append(
                    (
                        "update", dest_structure.workflow,
                        dest_structure.version, invocation_id,
                        dest_entry.name,
                    )
                )
            return
        yield from target._engine_step()
        for dest_entry in dest_entries:
            target._apply_state_update(
                dest_structure, dest_entry, invocation_id
            )

    # -- crash and recovery ---------------------------------------------------
    def fail(self) -> list[tuple[str, int, InvocationID, str]]:
        """The node crashed: mark the engine down, collect lost tasks.

        Every local function that was triggered but had not finished
        executing is reset to untriggered and returned so the system
        can re-trigger it on recovery.  (``run_function`` marks a
        function executed and spawns its notifications in one atomic
        step, so ``executed`` functions never need replay.)  The lost
        set is read straight off each structure's live
        triggered-not-executed index, so a crash costs O(in-flight
        tasks) regardless of how many invocations the engine has ever
        served.
        """
        self.down = True
        self.crash_count += 1
        pending: list[tuple[str, int, InvocationID, str]] = []
        for (workflow, version), structure in self._structures.items():
            for invocation_id, function in structure.drain_live_triggered():
                pending.append((workflow, version, invocation_id, function))
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
        structure, entries = self._lookup(workflow, version)
        entry = entries[function]
        inv = structure.invocation(invocation_id)
        if inv.flags[entry.index] & (TRIGGERED | EXECUTED):
            return False  # a replayed control message beat us to it
        inv.flags[entry.index] |= TRIGGERED
        structure.note_triggered(invocation_id, entry.index)
        self.system.spawn_registered(
            self.run_function(structure, entry, invocation_id),
            invocation_id,
            node=self.node.name,
            name=f"retrigger:{self.node.name}:{function}",
        )
        return True


class FaaSFlowSystem(WorkflowSystem):
    """The WorkerSP workflow system: graph-partitioned distributed engines."""

    mode = "worker-sp"
    # Telemetry/SLO label for record_invocation_metrics; subclasses with
    # a different triggering paradigm (DataflowSP) override both.
    engine_label = "worker-sp"
    engine_class = WorkerEngine

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The master node doubles as the invoking client (paper §5.1).
        self.client_node = self.cluster.storage_node
        self.engines: dict[str, WorkerEngine] = {
            worker.name: self.engine_class(self, worker)
            for worker in self.cluster.workers
        }
        self._deployed: dict[tuple[str, int], _DeployedWorkflow] = {}
        self._current_version: dict[str, int] = {}
        self.retriggered = 0
        # node name -> tasks lost to a crash, re-triggered on recovery.
        self._crash_pending: dict[
            str, list[tuple[str, int, InvocationID, str]]
        ] = {}

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
        deployed = _DeployedWorkflow(
            dag=dag,
            placement=placement,
            critical_exec=static_critical_exec(dag),
        )
        for worker_name, engine in self.engines.items():
            local = placement.functions_on(worker_name)
            if local:
                structure = WorkflowStructure(
                    dag, placement, local, version=version
                )
                engine.deploy(structure)
                deployed.structures.append(structure)
        if prewarm > 0:
            for node in dag.real_nodes():
                worker = self.cluster.node(placement.node_of(node.name))
                instances = max(1, int(round(node.map_factor))) * prewarm
                worker.containers.prewarm(
                    node.name, count=instances, version=version
                )
        # Pre-resolve each entry function's engine, structure, and
        # dispatch entry (every sub-graph is compiled by now), so
        # invoke() spawns sends with zero lookups or string formatting.
        deployed.sources = []
        for source in dag.sources():
            engine = self.engines[placement.node_of(source)]
            structure, entries = engine._lookup(dag.name, version)
            deployed.sources.append(
                (
                    engine,
                    structure,
                    entries[source],
                    f"invoke:{dag.name}:{source}",
                    f"invoke:{source}",
                )
            )
        deployed.sink_count = len(dag.sinks())
        self._deployed[(dag.name, version)] = deployed
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
    def invoke(self, workflow: str) -> Generator:
        """Simulation process: one end-to-end invocation (client side)."""
        version = self._current_version.get(workflow)
        if version is None:
            raise KeyError(f"workflow {workflow!r} is not deployed")
        deployed = self._deployed[(workflow, version)]
        context = self._open(
            workflow, deployed.critical_exec, deployed.sink_count
        )
        invocation_id = context.record.invocation_id
        deployed.live_invocations += 1
        # The client ships the invocation request to each entry
        # function's worker; from there everything is worker-side.
        for engine, structure, entry, send_name, tag in deployed.sources:
            self.spawn_registered(
                self._send_invocation(
                    invocation_id, engine, structure, entry, tag
                ),
                invocation_id,
                name=send_name,
            )
        yield from self._watch(context)
        record = self._close(context, deployed.dag)
        # Release the per-invocation *State* arrays on every engine
        # that holds a sub-graph of this workflow (paper §4.2.1), so
        # live engine memory is O(in-flight), not O(served).
        for structure in deployed.structures:
            structure.release_invocation(invocation_id)
        deployed.live_invocations -= 1
        if version != self._current_version.get(workflow):
            self._try_retire(workflow, version)
        return record

    def _send_invocation(
        self,
        invocation_id: InvocationID,
        engine: WorkerEngine,
        structure: WorkflowStructure,
        entry: _FnDispatch,
        tag: str,
    ) -> Generator:
        send_start = self.env.now
        yield self.network.message(
            self.client_node.nic,
            engine.node.nic,
            self.config.assign_message_size,
            tag=tag,
        )
        if self.spans.retain:
            self.spans.record(
                SpanKind.STATE_SYNC,
                send_start,
                self.env.now,
                workflow=structure.workflow,
                invocation_id=invocation_id,
                function=entry.name,
                node=self.client_node.name,
                parent=self.spans.root_of(invocation_id),
                role="invoke",
                dst=engine.node.name,
            )
        if engine.down:
            engine._deferred.append(
                (
                    "trigger", structure.workflow, structure.version,
                    invocation_id, entry.name,
                )
            )
            return
        yield from engine._engine_step()
        engine._trigger_entry(structure, entry, invocation_id)

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
        self.registry.cancel_node(
            node_name, CancelCause(CancelKind.NODE_STOP, detail=node_name)
        )
        pending = engine.fail()
        if pending:
            self._crash_pending.setdefault(node_name, []).extend(pending)
        self.node_crashes += 1

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
