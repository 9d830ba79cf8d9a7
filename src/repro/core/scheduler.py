"""The Graph Scheduler on the master node (paper §4.1).

The scheduler never triggers functions.  It parses workflows, partitions
them into sub-graphs with Algorithm 1 (:mod:`repro.core.grouping`),
computes each worker's FaaStore quota from the reclamation equations,
and re-partitions when runtime feedback (per-edge 99%-ile transmission
latencies, function scale, memory high-water marks) indicates the
current partition is stale.

The very first partition of a workflow has no feedback yet, so —
like the paper — it falls back to a hash-based placement.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

from ..dag import DataEdge, WorkflowDAG
from ..metrics import MetricsCollector, percentile
from ..sim import Cluster
from .grouping import GroupingConfig, GroupingResult, group_functions
from .reclamation import (
    MemoryUsageHistory,
    ReclamationConfig,
    per_node_quotas,
    workflow_quota,
)
from .state import Placement

__all__ = ["GraphScheduler", "SchedulerReport", "hash_partition"]


@dataclass
class SchedulerReport:
    """Cost accounting of one partition run (Fig. 16 metric)."""

    workflow: str
    function_count: int
    iteration: int  # which partition iteration this was (1 = hash-based)
    wall_time: float  # seconds spent partitioning
    memory_peak: float  # bytes allocated while partitioning
    grouping: Optional[GroupingResult] = None


def hash_partition(dag: WorkflowDAG, workers: list[str]) -> Placement:
    """Deterministic hash-based placement (first-iteration fallback).

    Virtual nodes follow their step's owning worker only by accident of
    hashing — acceptable for a bootstrap placement that feedback will
    replace.
    """
    if not workers:
        raise ValueError("need at least one worker")
    assignment = {}
    for index, name in enumerate(sorted(dag.node_names)):
        assignment[name] = workers[index % len(workers)]
    return Placement(workflow=dag.name, assignment=assignment)


class GraphScheduler:
    """Master-side partitioner with runtime-feedback iterations."""

    def __init__(
        self,
        cluster: Cluster,
        reclamation: Optional[ReclamationConfig] = None,
        seed: int = 7,
    ):
        self.cluster = cluster
        self.reclamation = reclamation or ReclamationConfig(
            container_memory=cluster.config.container.memory_limit
        )
        self.seed = seed
        self.memory_history = MemoryUsageHistory()
        self.scale_feedback: dict[str, float] = {}
        self.contention_pairs: frozenset[frozenset[str]] = frozenset()
        self.reports: list[SchedulerReport] = []
        self._iteration: dict[str, int] = {}
        # Capacity promised to each deployed workflow (worker -> slots),
        # so later workflows are packed around earlier ones even before
        # their containers physically exist.
        self._reservations: dict[str, dict[str, float]] = {}

    # -- capacity model -----------------------------------------------------
    # Grouping packs at most this many concurrently-runnable containers
    # per core: functions are 1-core (Table 3), so piling far more onto a
    # node than it has cores would serialize parallel steps and destroy
    # the workflow's critical path.  Memory still caps the total.
    cpu_oversubscription: float = 1.25

    def worker_capacities(self, exclude: Optional[str] = None) -> dict[str, float]:
        """Containers each worker can still host (its Cap[node]).

        Bounded by container memory slots net of the FaaStore pools and
        of the capacity reserved for other deployed workflows.
        ``exclude`` names the workflow being (re)scheduled, whose own
        reservation does not count against it.  Concurrency is capped
        separately per group (:meth:`max_group_instances`).
        """
        spec = self.cluster.config.container
        memory_slots = {}
        for worker in self.cluster.workers:
            pool = worker.memory.reserved_by_tag("faastore-pool")
            memory_slots[worker.name] = (
                (worker.memory.capacity - pool) // spec.memory_limit
            )
        # Memory is physically held by other workflows' containers; the
        # concurrency bound is per-workflow (co-scheduled workflows
        # time-share the cores).
        for workflow, demand in self._reservations.items():
            if workflow == exclude:
                continue
            for worker_name, slots in demand.items():
                memory_slots[worker_name] = max(
                    0.0, memory_slots.get(worker_name, 0.0) - slots
                )
        return memory_slots

    def max_group_instances(self) -> float:
        """Concurrency cap for one function group (cores x factor)."""
        cores = max(w.config.cores for w in self.cluster.workers)
        return cores * self.cpu_oversubscription

    # -- feedback -------------------------------------------------------------
    def declare_contention(self, pairs) -> None:
        """Register conflict function pairs cont(G) = {(f_i, f_j)}."""
        self.contention_pairs = frozenset(
            frozenset(pair) for pair in pairs
        )

    def absorb_feedback(
        self, dag: WorkflowDAG, metrics: MetricsCollector
    ) -> None:
        """Fold runtime measurements into the DAG's weights and metrics.

        Edge weights become the 99%-ile measured transmission latency of
        the (producer, consumer) pair the edge serves; node ``scale``
        comes from observed scale feedback; memory high-water marks feed
        the reclamation history.
        """
        update_edge_weights(dag, metrics)
        for node in dag.nodes:
            if node.name in self.scale_feedback:
                node.scale = self.scale_feedback[node.name]

    def observe_scale(self, function: str, scale: float) -> None:
        if scale < 0:
            raise ValueError("scale must be >= 0")
        self.scale_feedback[function] = scale

    def observe_memory(self, function: str, used: float) -> None:
        self.memory_history.observe(function, used)

    # -- partitioning ------------------------------------------------------------
    def schedule(
        self,
        dag: WorkflowDAG,
        force_grouping: bool = False,
    ) -> tuple[Placement, dict[str, float], SchedulerReport]:
        """Partition ``dag`` and compute per-worker FaaStore quotas.

        The first call for a workflow uses the hash-based bootstrap
        unless ``force_grouping`` is set; later calls run Algorithm 1
        with whatever feedback has been absorbed.
        """
        iteration = self._iteration.get(dag.name, 0) + 1
        self._iteration[dag.name] = iteration
        workers = self.cluster.worker_names()
        tracemalloc.start()
        started = time.perf_counter()
        grouping: Optional[GroupingResult] = None
        if iteration == 1 and not force_grouping:
            placement = hash_partition(dag, workers)
        else:
            config = GroupingConfig(
                workers=workers,
                node_capacity=self.worker_capacities(exclude=dag.name),
                quota=workflow_quota(dag, self.reclamation, self.memory_history),
                contention_pairs=self.contention_pairs,
                seed=self.seed,
                max_group_instances=self.max_group_instances(),
            )
            grouping = group_functions(dag, config)
            placement = grouping.placement
            # Annotate Algorithm 1's storage decision onto the DAG so
            # FaaStore honors it at runtime (producers left on 'DB' by
            # the quota accounting must not occupy the memory store).
            for function, storage in grouping.storage_type.items():
                dag.node(function).metadata["storage_type"] = storage
        wall_time = time.perf_counter() - started
        _, memory_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        report = SchedulerReport(
            workflow=dag.name,
            function_count=len(dag.real_nodes()),
            iteration=iteration,
            wall_time=wall_time,
            memory_peak=float(memory_peak),
            grouping=grouping,
        )
        self.reports.append(report)
        demand: dict[str, float] = {}
        for node in dag.real_nodes():
            worker_name = placement.node_of(node.name)
            demand[worker_name] = (
                demand.get(worker_name, 0.0) + node.effective_instances
            )
        self._reservations[dag.name] = demand
        quotas = per_node_quotas(
            dag, placement, self.reclamation, self.memory_history
        )
        return placement, quotas, report

    def container_limits(self, dag: WorkflowDAG) -> dict[str, float]:
        """Per-function reclaimed container limits (paper Fig. 10(b)).

        A function whose Eq. 1 surplus funds the FaaStore pool gets its
        containers created with ``Mem(v) - O(v)/Map(v) = S + mu`` — the
        pool and the shrunken containers together occupy exactly what
        full-size containers would, so reclamation adds no pressure.
        """
        from .reclamation import over_provisioned

        limits: dict[str, float] = {}
        for node in dag.real_nodes():
            surplus = over_provisioned(
                dag, node.name, self.reclamation, self.memory_history
            ) / max(node.map_factor, 1.0)
            if surplus > 0:
                limits[node.name] = (
                    self.reclamation.container_memory - surplus
                )
        return limits

    def apply_quotas(self, quotas: dict[str, float]) -> None:
        """Pin the reclaimed FaaStore pools on the worker nodes."""
        for worker in self.cluster.workers:
            worker.set_faastore_quota(quotas.get(worker.name, 0.0))


def update_edge_weights(dag: WorkflowDAG, metrics: MetricsCollector) -> None:
    """Refresh control-plane edge weights from measured transfers.

    For every real (producer, consumer) pair the ledger saw, the pair's
    99%-ile put+get latency is written onto each control edge along the
    producer's (virtual-node) path to that consumer; edges without
    measurements keep their previous weight.
    """
    puts: dict[str, list[float]] = {}
    gets: dict[tuple[str, str], list[float]] = {}
    for event in metrics.transfers:
        if event.workflow != dag.name:
            continue
        if event.phase == "put":
            puts.setdefault(event.producer, []).append(event.duration)
        else:
            gets.setdefault((event.producer, event.consumer), []).append(
                event.duration
            )
    if not gets and not puts:
        return
    fresh: dict[tuple[str, str], float] = {}
    for (producer, consumer), durations in gets.items():
        if not dag.has_node(producer) or not dag.has_node(consumer):
            continue
        latency = percentile(durations, 99)
        if producer in puts:
            latency += percentile(puts[producer], 99)
        for edge in _virtual_path_edges(dag, producer, consumer):
            key = edge.key
            fresh[key] = max(fresh.get(key, 0.0), latency)
    for key, weight in fresh.items():
        dag.edge(*key).weight = weight


def _virtual_path_edges(
    dag: WorkflowDAG, producer: str, consumer: str
) -> list[DataEdge]:
    """Edges of one path producer -> ... -> consumer through virtual nodes.

    Depth-first in out-edge order; the first path found wins, and an
    empty list means there is none.  ``path`` holds the edges leading to
    the iterator on top of ``stack``.
    """
    path: list[DataEdge] = []
    stack = [iter(dag.out_edges(producer))]
    while stack:
        for edge in stack[-1]:
            if edge.dst == consumer:
                path.append(edge)
                return path
            if dag.node(edge.dst).is_virtual:
                path.append(edge)
                stack.append(iter(dag.out_edges(edge.dst)))
                break
        else:
            stack.pop()
            if path:
                path.pop()
    return path
