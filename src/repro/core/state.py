"""Workflow state structures (paper §3.1, Fig. 6).

Each worker engine maintains a *Workflow* structure per workflow it
hosts a sub-graph of: *FunctionInfo* (static metadata — predecessors
count, successor locations) plus per-invocation *State* (how many
predecessors have completed, whether the function has executed).  The
MasterSP baseline reuses the same structures, simply holding the whole
graph in one place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..dag import DAGError, WorkflowDAG

__all__ = [
    "InvocationID",
    "FunctionInfo",
    "FunctionState",
    "InvocationState",
    "CompiledInvocation",
    "WorkflowStructure",
    "Placement",
    "PlacementError",
    "TRIGGERED",
    "EXECUTED",
    "new_invocation_id",
    "reset_invocation_ids",
]

# Bit flags of one function's per-invocation execution state inside a
# :class:`CompiledInvocation` flags bytearray.
TRIGGERED = 1
EXECUTED = 2

InvocationID = int

_invocation_counter = itertools.count(1)


def new_invocation_id() -> InvocationID:
    """Globally unique invocation identifier."""
    return next(_invocation_counter)


def reset_invocation_ids(base: int = 1) -> None:
    """Restart the invocation-id sequence at ``base``.

    ``runner.run_trials`` gives every trial a disjoint, deterministic id
    range (``index * stride + 1``) so invocation records come out
    identical no matter which worker process — or how many — ran the
    trial.  Never call this mid-run; ids must stay unique within a
    simulation.
    """
    global _invocation_counter
    _invocation_counter = itertools.count(base)


class PlacementError(ValueError):
    """Inconsistent function-to-worker placement."""


@dataclass(frozen=True)
class Placement:
    """Where each function of a workflow runs (partition result).

    Maps every node name (virtual nodes included — they are bookkept by
    the engine owning their step) to a worker node name.
    """

    workflow: str
    assignment: dict[str, str]
    version: int = 1

    def node_of(self, function: str) -> str:
        try:
            return self.assignment[function]
        except KeyError:
            raise PlacementError(
                f"function {function!r} has no placement in {self.workflow!r}"
            ) from None

    def functions_on(self, worker: str) -> list[str]:
        return [f for f, w in self.assignment.items() if w == worker]

    def workers(self) -> list[str]:
        return sorted(set(self.assignment.values()))

    def colocated(self, fn_a: str, fn_b: str) -> bool:
        return self.node_of(fn_a) == self.node_of(fn_b)

    def validate_against(self, dag: WorkflowDAG) -> None:
        missing = [n for n in dag.node_names if n not in self.assignment]
        if missing:
            raise PlacementError(
                f"placement for {self.workflow!r} misses nodes: {missing}"
            )

    def with_version(self, version: int) -> "Placement":
        return Placement(self.workflow, dict(self.assignment), version)


@dataclass
class FunctionInfo:
    """Static metadata the engine needs to trigger one function."""

    name: str
    predecessors_count: int
    successors: list[str]
    successor_locations: dict[str, str]  # successor -> worker node name
    is_virtual: bool
    service_time: float
    memory: float
    output_size: float
    map_factor: float

    @classmethod
    def from_dag(
        cls, dag: WorkflowDAG, placement: Placement, name: str
    ) -> "FunctionInfo":
        node = dag.node(name)
        successors = dag.successors(name)
        return cls(
            name=name,
            predecessors_count=len(dag.predecessors(name)),
            successors=successors,
            successor_locations={s: placement.node_of(s) for s in successors},
            is_virtual=node.is_virtual,
            service_time=node.service_time,
            memory=node.memory,
            output_size=node.output_size,
            map_factor=node.map_factor,
        )


@dataclass
class FunctionState:
    """Per-invocation execution state of one function."""

    predecessors_done: int = 0
    triggered: bool = False
    executed: bool = False

    def mark_predecessor_done(self) -> None:
        self.predecessors_done += 1

    def ready(self, predecessors_count: int) -> bool:
        return (
            not self.triggered
            and self.predecessors_done >= predecessors_count
        )


@dataclass
class InvocationState:
    """All function states of one invocation within one engine."""

    invocation_id: InvocationID
    functions: dict[str, FunctionState] = field(default_factory=dict)

    def state_of(self, function: str) -> FunctionState:
        state = self.functions.get(function)
        if state is None:
            state = FunctionState()
            self.functions[function] = state
        return state

    def all_executed(self, names: list[str]) -> bool:
        return all(
            self.functions.get(n) is not None and self.functions[n].executed
            for n in names
        )


class _FunctionStateView:
    """Attribute-compatible view of one function's slot in the arrays.

    Lets callers that speak the :class:`FunctionState` protocol
    (``triggered`` / ``executed`` / ``predecessors_done``) read and
    write a :class:`CompiledInvocation` without the engines' hot path
    having to allocate one object per (invocation, function).  Writes
    keep the structure's live triggered-not-executed index consistent.
    """

    __slots__ = ("_invocation", "_index")

    def __init__(self, invocation: "CompiledInvocation", index: int):
        self._invocation = invocation
        self._index = index

    @property
    def predecessors_done(self) -> int:
        return self._invocation.preds_done[self._index]

    @predecessors_done.setter
    def predecessors_done(self, value: int) -> None:
        self._invocation.preds_done[self._index] = value

    @property
    def triggered(self) -> bool:
        return bool(self._invocation.flags[self._index] & TRIGGERED)

    @triggered.setter
    def triggered(self, value: bool) -> None:
        inv = self._invocation
        if value:
            inv.flags[self._index] |= TRIGGERED
            if not inv.flags[self._index] & EXECUTED:
                inv.structure.note_triggered(inv.invocation_id, self._index)
        else:
            inv.flags[self._index] &= ~TRIGGERED
            inv.structure.note_untriggered(inv.invocation_id, self._index)

    @property
    def executed(self) -> bool:
        return bool(self._invocation.flags[self._index] & EXECUTED)

    @executed.setter
    def executed(self, value: bool) -> None:
        inv = self._invocation
        if value:
            inv.flags[self._index] |= EXECUTED
            inv.structure.note_untriggered(inv.invocation_id, self._index)
        else:
            inv.flags[self._index] &= ~EXECUTED
            if inv.flags[self._index] & TRIGGERED:
                inv.structure.note_triggered(inv.invocation_id, self._index)

    def mark_predecessor_done(self) -> None:
        self._invocation.preds_done[self._index] += 1

    def ready(self, predecessors_count: int) -> bool:
        inv = self._invocation
        return (
            not inv.flags[self._index] & TRIGGERED
            and inv.preds_done[self._index] >= predecessors_count
        )


class CompiledInvocation:
    """Array-backed per-invocation *State* of one engine's sub-graph.

    One integer and one flag byte per local function — indexed by the
    structure's dense function index — instead of a dict of
    :class:`FunctionState` objects.  ``state_of`` provides the
    name-keyed compatibility view.
    """

    __slots__ = ("invocation_id", "structure", "preds_done", "flags")

    def __init__(
        self, invocation_id: InvocationID, structure: "WorkflowStructure"
    ):
        self.invocation_id = invocation_id
        self.structure = structure
        count = len(structure.local_names)
        self.preds_done = [0] * count
        self.flags = bytearray(count)

    def state_of(self, function: str) -> _FunctionStateView:
        return _FunctionStateView(
            self, self.structure.local_index[function]
        )

    @property
    def functions(self) -> dict[str, _FunctionStateView]:
        """Name-keyed views over every local function's slot."""
        return {
            name: _FunctionStateView(self, index)
            for index, name in enumerate(self.structure.local_names)
        }


class WorkflowStructure:
    """The paper's per-worker *Workflow* structure, compiled to indices.

    Holds *FunctionInfo* for the functions this engine owns, a dense
    integer index over them (``local_index`` / per-index arrays below),
    and array-backed *State* per live invocation.  The engine releases
    an invocation's *State* at the end of the invocation (§4.2.1), and
    the whole structure is removed when its sub-graph version is
    retired.

    The compiled tables give the engines an O(1), allocation-free hot
    path:

    - ``local_index``: function name -> dense index (names only cross
      the network; indices never leave one engine);
    - ``preds_counts[i]`` / ``virtual_flags[i]``: trigger-readiness
      metadata as flat arrays;
    - ``successor_targets[i]``: pre-resolved ``(successor, worker)``
      dispatch pairs in DAG order;
    - ``_live``: the live triggered-not-executed index — crash
      collection and watchdog scans touch only in-flight work instead
      of every invocation ever seen.
    """

    def __init__(
        self,
        dag: WorkflowDAG,
        placement: Placement,
        local_functions: list[str],
        version: int = 1,
    ):
        placement.validate_against(dag)
        unknown = [f for f in local_functions if not dag.has_node(f)]
        if unknown:
            raise DAGError(f"unknown local functions: {unknown}")
        self.workflow = dag.name
        self.dag = dag
        self.placement = placement
        self.version = version
        self.function_info: dict[str, FunctionInfo] = {
            name: FunctionInfo.from_dag(dag, placement, name)
            for name in local_functions
        }
        # -- compiled dense tables (indexed dispatch) ----------------------
        self.local_names: tuple[str, ...] = tuple(self.function_info)
        self.local_index: dict[str, int] = {
            name: index for index, name in enumerate(self.local_names)
        }
        infos = [self.function_info[name] for name in self.local_names]
        self.infos: list[FunctionInfo] = infos
        self.preds_counts: list[int] = [
            info.predecessors_count for info in infos
        ]
        self.virtual_flags: list[bool] = [info.is_virtual for info in infos]
        self.successor_targets: list[tuple[tuple[str, str], ...]] = [
            tuple(
                (successor, info.successor_locations[successor])
                for successor in info.successors
            )
            for info in infos
        ]
        self._invocations: dict[InvocationID, CompiledInvocation] = {}
        # invocation id -> set of local indices triggered but not yet
        # executed.  Kept exactly in sync with the flag bytes so crash
        # collection is O(in-flight), not O(history).
        self._live: dict[InvocationID, set[int]] = {}
        self.peak_live_invocations = 0

    @property
    def local_functions(self) -> list[str]:
        return list(self.function_info)

    def owns(self, function: str) -> bool:
        return function in self.function_info

    def info(self, function: str) -> FunctionInfo:
        try:
            return self.function_info[function]
        except KeyError:
            raise DAGError(
                f"function {function!r} is not local to this engine"
            ) from None

    def invocation(self, invocation_id: InvocationID) -> CompiledInvocation:
        state = self._invocations.get(invocation_id)
        if state is None:
            state = CompiledInvocation(invocation_id, self)
            self._invocations[invocation_id] = state
            if len(self._invocations) > self.peak_live_invocations:
                self.peak_live_invocations = len(self._invocations)
        return state

    def release_invocation(self, invocation_id: InvocationID) -> None:
        """Free the *State* arrays at the end of an invocation (§4.2.1)."""
        self._invocations.pop(invocation_id, None)
        self._live.pop(invocation_id, None)

    def invocation_items(
        self,
    ) -> list[tuple[InvocationID, CompiledInvocation]]:
        """Snapshot of the live (invocation_id, state) pairs."""
        return list(self._invocations.items())

    @property
    def live_invocations(self) -> int:
        return len(self._invocations)

    # -- live triggered-not-executed index --------------------------------
    def note_triggered(self, invocation_id: InvocationID, index: int) -> None:
        live = self._live.get(invocation_id)
        if live is None:
            self._live[invocation_id] = {index}
        else:
            live.add(index)

    def note_untriggered(
        self, invocation_id: InvocationID, index: int
    ) -> None:
        live = self._live.get(invocation_id)
        if live is not None:
            live.discard(index)
            if not live:
                del self._live[invocation_id]

    def drain_live_triggered(self) -> list[tuple[InvocationID, str]]:
        """Crash collection: reset and return all triggered-not-executed.

        Clears the ``TRIGGERED`` flag of every live entry and empties
        the index, returning ``(invocation_id, function name)`` pairs —
        ordered by trigger arrival (dict insertion) per invocation and
        ascending index within one — so the engine can re-trigger them
        on recovery.  O(in-flight tasks), not O(invocations served).
        """
        pending: list[tuple[InvocationID, str]] = []
        for invocation_id, indices in self._live.items():
            inv = self._invocations.get(invocation_id)
            if inv is None:  # pragma: no cover - index/state desync guard
                continue
            for index in sorted(indices):
                inv.flags[index] &= ~TRIGGERED
                pending.append((invocation_id, self.local_names[index]))
        self._live.clear()
        return pending

    def live_triggered(self) -> list[tuple[InvocationID, int]]:
        """Snapshot of (invocation_id, index) pairs triggered-not-executed.

        Ordered by trigger arrival (dict insertion) per invocation and
        ascending index within one, so crash collection is
        deterministic.
        """
        return [
            (invocation_id, index)
            for invocation_id, indices in self._live.items()
            for index in sorted(indices)
        ]

    @property
    def live_triggered_count(self) -> int:
        return sum(len(indices) for indices in self._live.values())
