"""The workflow DAG: the structure both schedule patterns execute.

A :class:`WorkflowDAG` is the parsed form of a workflow definition
(paper §4.1.1): function nodes connected by data edges.  Each node
carries its execution model (service time, peak memory) plus the
runtime-feedback metrics the graph scheduler uses
(:attr:`FunctionNode.scale`, :attr:`FunctionNode.map_factor`); each edge
carries the bytes it moves and a latency *weight* updated from runtime
measurements (the paper's 99%-ile transmission latency).

Virtual start/end nodes bracket parallel / switch / foreach steps.  They
do no computation and hold no state — they exist so graph partitioning
treats a step atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

__all__ = ["FunctionNode", "DataEdge", "WorkflowDAG", "DAGError"]


class DAGError(ValueError):
    """Malformed workflow graph."""


@dataclass
class FunctionNode:
    """One function (or virtual marker) in the workflow control-plane."""

    name: str
    service_time: float = 0.1  # seconds of pure execution
    memory: float = 64 * 1024 * 1024  # peak working set, bytes
    output_size: float = 0.0  # bytes produced per invocation (aggregate)
    is_virtual: bool = False
    # Runtime-feedback metrics (paper §4.1.2).
    scale: float = 1.0  # avg scaled instances of this node
    map_factor: float = 1.0  # avg executors map (foreach steps)
    # Logic-step metadata.
    step_type: str = "task"
    group_id: Optional[str] = None  # set by the graph scheduler
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise DAGError("node name must be non-empty")
        if self.service_time < 0:
            raise DAGError(f"negative service_time for {self.name!r}")
        if self.memory < 0:
            raise DAGError(f"negative memory for {self.name!r}")
        if self.output_size < 0:
            raise DAGError(f"negative output_size for {self.name!r}")
        if self.scale < 0 or self.map_factor < 0:
            raise DAGError(f"negative feedback metric for {self.name!r}")

    @property
    def effective_instances(self) -> float:
        """Instances this node contributes in the data-plane."""
        if self.is_virtual:
            return 0.0
        return max(self.scale, 1.0) * max(self.map_factor, 1.0)


@dataclass
class DataEdge:
    """A data dependency: ``src``'s output feeds ``dst``."""

    src: str
    dst: str
    data_size: float = 0.0  # bytes shipped per invocation
    weight: float = 0.0  # measured/estimated transmission latency, seconds

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise DAGError(f"self-loop on {self.src!r}")
        if self.data_size < 0:
            raise DAGError(f"negative data_size on {self.src}->{self.dst}")
        if self.weight < 0:
            raise DAGError(f"negative weight on {self.src}->{self.dst}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


class WorkflowDAG:
    """Directed acyclic graph of function nodes and data edges."""

    def __init__(self, name: str):
        if not name:
            raise DAGError("workflow name must be non-empty")
        self.name = name
        self._nodes: dict[str, FunctionNode] = {}
        self._edges: dict[tuple[str, str], DataEdge] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}

    # -- construction -----------------------------------------------------
    def add_node(self, node: FunctionNode) -> FunctionNode:
        if node.name in self._nodes:
            raise DAGError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._succ[node.name] = []
        self._pred[node.name] = []
        return node

    def add_function(self, name: str, **kwargs) -> FunctionNode:
        """Convenience: create and add a :class:`FunctionNode`."""
        return self.add_node(FunctionNode(name=name, **kwargs))

    def add_edge(
        self, src: str, dst: str, data_size: float = 0.0, weight: float = 0.0
    ) -> DataEdge:
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise DAGError(f"edge endpoint {endpoint!r} is not a node")
        edge = DataEdge(src, dst, data_size, weight)
        if edge.key in self._edges:
            raise DAGError(f"duplicate edge {src}->{dst}")
        self._edges[edge.key] = edge
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        if self._creates_cycle(src, dst):
            # Roll back before complaining.
            del self._edges[edge.key]
            self._succ[src].remove(dst)
            self._pred[dst].remove(src)
            raise DAGError(f"edge {src}->{dst} creates a cycle")
        return edge

    def _creates_cycle(self, src: str, dst: str) -> bool:
        """Is ``src`` reachable from ``dst``?"""
        stack, seen = [dst], set()
        while stack:
            current = stack.pop()
            if current == src:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._succ[current])
        return False

    # -- access -------------------------------------------------------------
    def node(self, name: str) -> FunctionNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise DAGError(f"unknown node {name!r}") from None

    def edge(self, src: str, dst: str) -> DataEdge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise DAGError(f"unknown edge {src}->{dst}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    @property
    def nodes(self) -> list[FunctionNode]:
        return list(self._nodes.values())

    @property
    def node_names(self) -> list[str]:
        return list(self._nodes)

    @property
    def edges(self) -> list[DataEdge]:
        return list(self._edges.values())

    def successors(self, name: str) -> list[str]:
        return list(self._succ[name])

    def predecessors(self, name: str) -> list[str]:
        return list(self._pred[name])

    def out_edges(self, name: str) -> list[DataEdge]:
        return [self._edges[(name, dst)] for dst in self._succ[name]]

    def in_edges(self, name: str) -> list[DataEdge]:
        return [self._edges[(src, name)] for src in self._pred[name]]

    def sources(self) -> list[str]:
        """Nodes with no predecessors (workflow entry points)."""
        return [n for n in self._nodes if not self._pred[n]]

    def sinks(self) -> list[str]:
        return [n for n in self._nodes if not self._succ[n]]

    def real_nodes(self) -> list[FunctionNode]:
        """Non-virtual nodes, i.e. actual functions."""
        return [n for n in self._nodes.values() if not n.is_virtual]

    def data_dependencies(self, name: str) -> list[tuple[str, float]]:
        """Real producers whose outputs ``name`` consumes.

        Resolves through virtual start/end nodes: after a parallel step's
        virtual end, the next function fetches every branch's output.
        Returns ``(producer_name, bytes)`` pairs in deterministic order.
        """
        nodes = self._nodes
        return [
            (src, nodes[src].output_size)
            for src in self._real_neighbours(name, self._pred)
        ]

    def data_consumers(self, name: str) -> list[str]:
        """Real functions that consume ``name``'s output (through virtuals)."""
        return self._real_neighbours(name, self._succ)

    def _real_neighbours(
        self, name: str, adjacency: dict[str, list[str]]
    ) -> list[str]:
        """Real nodes reached from ``name`` along ``adjacency``.

        Virtual nodes are walked through depth-first in adjacency order
        (a virtual reached twice is walked twice); each real node is
        listed once, at its first visit.  The walk keeps an explicit
        stack of iterators, not a recursive closure: it runs per
        function trigger, and a self-referencing closure would leave a
        reference cycle behind on every call.
        """
        nodes = self._nodes
        result: list[str] = []
        seen: set[str] = set()
        stack = [iter(adjacency[name])]
        while stack:
            for neighbour in stack[-1]:
                if nodes[neighbour].is_virtual:
                    stack.append(iter(adjacency[neighbour]))
                    break
                if neighbour not in seen:
                    seen.add(neighbour)
                    result.append(neighbour)
            else:
                stack.pop()
        return result

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[FunctionNode]:
        return iter(self._nodes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    # -- aggregate properties -----------------------------------------------
    @property
    def total_data_size(self) -> float:
        """Sum of bytes moved over every edge for one invocation."""
        return sum(e.data_size for e in self._edges.values())

    @property
    def total_service_time(self) -> float:
        return sum(n.service_time for n in self._nodes.values())

    def validate(self) -> None:
        """Raise :class:`DAGError` on structural problems."""
        if not self._nodes:
            raise DAGError(f"workflow {self.name!r} has no nodes")
        if not self.sources():
            raise DAGError(f"workflow {self.name!r} has no entry node")
        # Acyclicity is enforced on edge insertion; re-verify defensively.
        order = self.topological_order()
        if len(order) != len(self._nodes):  # pragma: no cover - defensive
            raise DAGError(f"workflow {self.name!r} contains a cycle")

    # -- traversal ------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; deterministic (insertion order tie-break)."""
        in_degree = {name: len(self._pred[name]) for name in self._nodes}
        ready = [name for name in self._nodes if in_degree[name] == 0]
        order: list[str] = []
        head = 0
        while head < len(ready):
            current = ready[head]
            head += 1
            order.append(current)
            for successor in self._succ[current]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self._nodes):
            raise DAGError(f"workflow {self.name!r} contains a cycle")
        return order

    def subgraph(self, names: Iterable[str]) -> "WorkflowDAG":
        """Induced subgraph over ``names`` (edges inside the set only)."""
        keep = set(names)
        missing = keep - set(self._nodes)
        if missing:
            raise DAGError(f"unknown nodes in subgraph: {sorted(missing)}")
        sub = WorkflowDAG(self.name)
        for name in self._nodes:
            if name in keep:
                sub.add_node(self._nodes[name])
        for edge in self._edges.values():
            if edge.src in keep and edge.dst in keep:
                sub.add_edge(edge.src, edge.dst, edge.data_size, edge.weight)
        return sub

    def copy(self) -> "WorkflowDAG":
        clone = WorkflowDAG(self.name)
        for node in self._nodes.values():
            clone.add_node(
                FunctionNode(
                    name=node.name,
                    service_time=node.service_time,
                    memory=node.memory,
                    output_size=node.output_size,
                    is_virtual=node.is_virtual,
                    scale=node.scale,
                    map_factor=node.map_factor,
                    step_type=node.step_type,
                    group_id=node.group_id,
                    metadata=dict(node.metadata),
                )
            )
        for edge in self._edges.values():
            clone.add_edge(edge.src, edge.dst, edge.data_size, edge.weight)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<WorkflowDAG {self.name!r}: {len(self._nodes)} nodes, "
            f"{len(self._edges)} edges>"
        )
