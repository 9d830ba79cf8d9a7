# FROZEN pre-PR copy for the engine-throughput A/B benchmark.
#
# Do not edit: this is the seed-side baseline that
# benchmarks/test_bench_engine.py races the live engines against.
# Imports of shared substrate (sim kernel, network, faults, policy,
# metrics) point at the live repro.* modules; the frozen modules
# (engines, state, runtime, clients) import each other relatively.

"""DataflowSP: function-level dataflow triggering with eager shipping.

FaaSFlow's WorkerSP decentralizes triggering to sub-graph granularity:
each worker runs one serialized engine loop that bookkeeps its local
sub-graph.  The paper's two closest descendants (DFlow, DataFlower —
see PAPERS.md) go one level further and both beat it the same way:

- **Function-level triggering.**  There is no per-node engine loop to
  serialize behind.  Every finished predecessor sends a *token*
  straight at the consumer function; the token handler that completes
  the function's input set fires it immediately.  Tokens are handled
  in parallel (:meth:`DataflowEngine._token_step` has no lock), each
  paying only the small constant ``config.dataflow_trigger_time``.
- **Eager data shipping.**  The moment a producer writes an output
  chunk, the chunk is pushed worker-to-worker into each remote
  consumer node's FaaStore (``config.eager_ship``), so the transfer
  overlaps the rest of the upstream compute and the consumer's own
  cold start / queue wait.  By the time the consumer's last token
  lands, its inputs are usually already node-local.  Shipping is a
  pure pre-fetch: a lost or quota-refused push degrades to the normal
  read-through path, never to a wrong answer.

Everything below the trigger paradigm — containers, retries, straggler
watchdogs, cancellation, spans, telemetry — is the same substrate the
other two engines use, which is what makes the three-way comparison
(`faasflow-experiment fig12/fig13/dataflow`) apples-to-apples.
"""

from __future__ import annotations

from typing import Generator

from repro.obs.spans import SpanKind
from repro.sim import Node
from repro.core.faults import FunctionFailure, TaskCancelled
from .state import InvocationID, WorkflowStructure
from repro.core.switching import is_skipped
from .tracing import Kind
from .worker_engine import FaaSFlowSystem

__all__ = ["DataflowEngine", "DataflowSystem"]


class DataflowEngine:
    """Function-level dataflow triggering on one worker node.

    Holds the same deployed :class:`WorkflowStructure` sub-graphs as a
    WorkerSP engine (deployment is placement-driven either way), but
    consumes *tokens* instead of running a serialized engine loop: any
    number of tokens make progress in the same instant, each paying
    ``dataflow_trigger_time`` of handling cost.
    """

    def __init__(self, system: "DataflowSystem", node: Node):
        self.system = system
        self.node = node
        self.env = node.env
        # (workflow, version) -> structure for the local sub-graph.
        self._structures: dict[tuple[str, int], WorkflowStructure] = {}
        self.tokens_received = 0  # cross-worker dataflow tokens received
        self.events_handled = 0  # token-handler activations
        self.busy_time = 0.0  # summed token-handling cost
        self.pushes_started = 0  # eager chunk pushes spawned
        # Crash state: while down, incoming tokens queue (the senders'
        # TCP stacks retry the connection) and replay on recovery.
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

    # -- token handling -------------------------------------------------------
    def _token_step(self) -> Generator:
        # Deliberately lock-free: dataflow triggering has no sub-graph
        # engine loop, so concurrent tokens never queue behind each
        # other.  This (not a smaller constant) is the structural
        # difference from WorkerSP's serialized ``_engine_step``.
        yield self.env.timeout(self.system.config.dataflow_trigger_time)
        self.events_handled += 1
        self.busy_time += self.system.config.dataflow_trigger_time

    def receive_token(
        self,
        workflow: str,
        version: int,
        invocation_id: InvocationID,
        function: str,
    ) -> Generator:
        """A dataflow token for ``function`` arrived: one input is ready."""
        if self.down:
            self._deferred.append(
                ("token", workflow, version, invocation_id, function)
            )
            return
        yield from self._token_step()
        structure = self.structure(workflow, version)
        info = structure.info(function)
        state = structure.invocation(invocation_id).state_of(function)
        state.mark_predecessor_done()
        if state.ready(info.predecessors_count):
            # The last input became ready: fire immediately.
            state.triggered = True
            self.system.spawn_registered(
                self.run_function(workflow, version, invocation_id, function),
                invocation_id,
                node=self.node.name,
                name=f"dataflow:{self.node.name}:{function}",
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
        yield from self._token_step()
        structure = self.structure(workflow, version)
        state = structure.invocation(invocation_id).state_of(function)
        if not state.triggered:
            state.triggered = True
            self.system.spawn_registered(
                self.run_function(workflow, version, invocation_id, function),
                invocation_id,
                node=self.node.name,
                name=f"dataflow:{self.node.name}:{function}",
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
        produced = False
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
            produced = True
        structure.invocation(invocation_id).state_of(function).executed = True
        self.system.trace(
            Kind.FUNCTION_EXECUTED, workflow, invocation_id,
            function=function, node=self.node.name,
        )
        self._propagate(structure, invocation_id, function, produced)

    def _propagate(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        function: str,
        produced: bool,
    ) -> None:
        """Fan out tokens, eager data pushes, and sink reports.

        Deliberately yield-free: once a function is marked ``executed``
        its notifications are committed atomically, so a node crash can
        never leave a half-propagated function.  The spawned messages
        are registered *invocation-bound* (not node-bound) — they model
        packets already handed to the TCP stack, which survive the
        sender's crash but die with the invocation.
        """
        if produced:
            self._ship_outputs(structure, invocation_id, function)
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
                    name=f"token:{function}->{successor}",
                )
            else:
                self.system.spawn_registered(
                    self._notify_remote(structure, invocation_id, successor, target),
                    invocation_id,
                    name=f"token:{function}->{successor}",
                )

    def _ship_outputs(
        self,
        structure: WorkflowStructure,
        invocation_id: InvocationID,
        function: str,
    ) -> None:
        """Spawn eager pushes of every output chunk to remote consumers.

        Pushes launch in the same atomic step as the dataflow tokens,
        but carry the *data*: one worker-to-worker transfer per (chunk,
        remote consumer node).  The tokens (1 KB) land long before the
        chunks (MBs), so a consumer that fires early coalesces on the
        in-flight push through the FaaStore single-flight map rather
        than starting a redundant remote read.
        """
        config = self.system.config
        policy = self.system.policy
        if (
            not config.eager_ship
            or not config.ship_data
            or not policy.supports_eager_push
        ):
            return
        dag = structure.dag
        node_meta = dag.node(function)
        if node_meta.output_size <= 0:
            return
        if dag.node(function).metadata.get("storage_type") == "DB":
            return  # Algorithm 1 marked this producer remote-only
        placement = structure.placement
        per_node: dict[str, int] = {}
        for consumer in dag.data_consumers(function):
            target = placement.node_of(consumer)
            if target != self.node.name:
                per_node[target] = per_node.get(target, 0) + 1
        if not per_node:
            return
        chunks = max(1, int(round(node_meta.map_factor)))
        chunk_size = node_meta.output_size / chunks
        for target, consumers_on_node in sorted(per_node.items()):
            dst_node = self.system.cluster.node(target)
            for chunk in range(chunks):
                self.system.spawn_registered(
                    policy.eager_push(
                        self.node, dst_node, dag, placement, invocation_id,
                        function, chunk, chunk_size, consumers_on_node,
                    ),
                    invocation_id,
                    name=f"push:{function}/{chunk}->{target}",
                )
                self.pushes_started += 1

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
        yield from self.receive_token(
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
            tag=f"token:{successor}",
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
                role="token",
                dst=remote_engine.node.name,
            )
        remote_engine.tokens_received += 1
        self.system.trace(
            Kind.STATE_SYNC, structure.workflow, invocation_id,
            function=successor, node=remote_engine.node.name,
            detail=f"token from {self.node.name}",
        )
        yield from remote_engine.receive_token(
            structure.workflow, structure.version, invocation_id, successor
        )

    # -- crash and recovery ---------------------------------------------------
    def fail(self) -> list[tuple[str, int, InvocationID, str]]:
        """The node crashed: mark the engine down, collect lost tasks.

        Every local function that was triggered but had not finished
        executing is reset to untriggered and returned so the system
        can re-trigger it on recovery.  (``run_function`` marks a
        function executed and spawns its tokens/pushes in one atomic
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
        """The node came back: replay the queued tokens.

        Deferred tokens re-enter through the normal handlers (each
        paying a token step, like a real backlog drain would).
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
                self.receive_token if kind == "token" else self.trigger_source
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
            return False  # a replayed token beat us to it
        state.triggered = True
        self.system.spawn_registered(
            self.run_function(workflow, version, invocation_id, function),
            invocation_id,
            node=self.node.name,
            name=f"retrigger:{self.node.name}:{function}",
        )
        return True


class DataflowSystem(FaaSFlowSystem):
    """The DataflowSP workflow system: dataflow-triggered distributed engines.

    Client-side plumbing (deployment, versioned rollout, invocation
    lifecycle, timeout/cancellation, fault hooks) is shared with
    WorkerSP — both are placement-driven decentralized systems — but
    every engine on a worker is a :class:`DataflowEngine`, so
    triggering is function-level and outputs ship eagerly.
    """

    mode = "dataflow-sp"
    engine_label = "dataflow"
    engine_class = DataflowEngine
