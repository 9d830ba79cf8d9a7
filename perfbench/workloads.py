"""The benchmark's workloads: how each simulated system is built and driven.

Every workload is one cluster serving several workflows under open-loop
Poisson arrivals (independent users), driven by
:class:`repro.clients.OpenLoopClient`.  The benchmark seed only derives
the per-client arrival seeds; the program receives nothing but the
generated arrival stream.

A workload is sized by the run length: ``invocations(seconds)`` scales a
per-workload rate, calibrated so that the measured phase takes about
``seconds`` host seconds with the simulator as it was when the
benchmark was written.  The size depends only on ``seconds``, never on
measured host speed, so simulated results repeat exactly at one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.clients import OpenLoopClient
from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    GraphScheduler,
    hash_partition,
)
from repro.core.state import reset_invocation_ids
from repro.dag import estimate_edge_weights
from repro.sim import MB, Cluster, ClusterConfig, ContainerSpec, Environment
from repro.workloads import ALL_BENCHMARKS, build, chain, diamond, fan, tree

__all__ = ["WORKLOADS", "Built", "Workload", "due_times"]


@dataclass
class Built:
    """One constructed system, ready for its first arrival."""

    env: Environment
    cluster: Cluster
    system: FaaSFlowSystem
    clients: list[OpenLoopClient]
    # Per-client arrival seed, so due times can be re-derived.
    seeds: list[int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Invocations attempted per second of requested run length.
    rate: float
    factory: Callable[[int, int], Built]

    def invocations(self, seconds: float) -> int:
        return max(8, round(self.rate * seconds))

    def build(self, seed: int, seconds: float) -> Built:
        # Invocation ids come from a process-wide sequence; restart it so
        # repeated builds in one process produce identical records.
        reset_invocation_ids(1)
        return self.factory(seed, self.invocations(seconds))


def _client_seed(seed: int, index: int) -> int:
    return random.Random(f"{seed}:{index}").getrandbits(32)


def due_times(client: OpenLoopClient, seed: int) -> list[float]:
    """The simulated times at which ``client`` was due to send.

    Replays the client's Poisson draws from its seed, accumulating them
    exactly as the kernel advances its clock, so an on-time arrival's
    ``started_at`` equals its due time bit for bit.
    """
    rng = random.Random(seed)
    now = 0.0
    due = []
    for _ in range(client.invocations):
        due.append(now)
        now = now + rng.expovariate(1.0 / client.interval)
    return due


# -- serve-ctl -------------------------------------------------------------
# Paper-scale DAG shapes cycled over eight tenants (as in the
# ext-scale-serve experiment): 10 ms functions, no intermediate data.
SERVE_TENANTS = 8
SERVE_RATE_PER_MIN = 1200.0
# Tenant 0 arrives this many times faster than each other tenant.
SERVE_HOT_FACTOR = 4
_SHAPES = ("chain", "fan", "diamond", "tree")


def _serve_dag(shape: str, name: str):
    if shape == "chain":
        return chain(length=12, name=name, service_time=0.01, output_size=0.0)
    if shape == "fan":
        return fan(width=8, name=name, service_time=0.01, hub_output=0.0, branch_output=0.0)
    if shape == "diamond":
        return diamond(width=6, name=name, service_time=0.01, output_size=0.0)
    return tree(depth=3, fanout=2, name=name, service_time=0.01, output_size=0.0)


def _build_serve(seed: int, total: int) -> Built:
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(workers=8, container=ContainerSpec(cold_start_time=0.05)),
    )
    system = FaaSFlowSystem(
        cluster,
        EngineConfig(
            ship_data=False,
            worker_process_time=0.001,
            local_trigger_time=0.0002,
        ),
    )
    shares = [SERVE_HOT_FACTOR] + [1] * (SERVE_TENANTS - 1)
    unit = total / sum(shares)
    clients, seeds, tenants = [], [], {}
    for index, share in enumerate(shares):
        shape = _SHAPES[index % len(_SHAPES)]
        workflow = f"{shape}-{index}"
        dag = _serve_dag(shape, workflow)
        system.deploy(dag, hash_partition(dag, cluster.worker_names()), prewarm=2)
        tenants[workflow] = f"tenant-{index}"
        seeds.append(_client_seed(seed, index))
        clients.append(
            OpenLoopClient(
                system, workflow, max(1, round(unit * share)),
                SERVE_RATE_PER_MIN * share, seed=seeds[-1],
            )
        )
    system.set_tenants(tenants)
    return Built(env, cluster, system, clients, seeds)


# -- sci-faastore / sci-dataflow --------------------------------------------
# The paper's eight benchmarks (Table 1) sharing one 7-worker cluster.
SCI_STORAGE_MB_S = 150.0
SCI_RATE_PER_MIN = 6.0


def _build_sci(system_class) -> Callable[[int, int], Built]:
    def build_sci(seed: int, total: int) -> Built:
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(
                workers=7,
                storage_bandwidth=SCI_STORAGE_MB_S * MB,
                container=ContainerSpec(cold_start_time=0.5),
            ),
        )
        system = system_class(cluster, EngineConfig(ship_data=True, eager_ship=True))
        scheduler = GraphScheduler(cluster)
        per_workflow = max(1, round(total / len(ALL_BENCHMARKS)))
        clients, seeds = [], []
        for index, name in enumerate(ALL_BENCHMARKS):
            dag = build(name)
            estimate_edge_weights(dag, bandwidth=cluster.config.storage_bandwidth)
            placement, quotas, _ = scheduler.schedule(dag, force_grouping=True)
            system.deploy(dag, placement, quotas=quotas)
            seeds.append(_client_seed(seed, index))
            clients.append(
                OpenLoopClient(
                    system, name, per_workflow, SCI_RATE_PER_MIN, seed=seeds[-1]
                )
            )
        return Built(env, cluster, system, clients, seeds)

    return build_sci


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-ctl",
            "8 tenants of 10 ms DAGs on WorkerSP, one 4x hot: engine, state and "
            "kernel do the work; data plane, grouping and cold starts idle",
            rate=900.0,
            factory=_build_serve,
        ),
        Workload(
            "sci-faastore",
            "8 paper benchmarks on WorkerSP+FaaStore, 150 MB/s storage NIC: network, "
            "FaaStore, remote store, cold starts and grouping do the work",
            rate=130.0,
            factory=_build_sci(FaaSFlowSystem),
        ),
        Workload(
            "sci-dataflow",
            "same inputs on DataflowSP with eager shipping: worker-to-worker pushes "
            "beside read-through fetches, tokens instead of the engine loop",
            rate=150.0,
            factory=_build_sci(DataflowSystem),
        ),
    )
}
