"""Cross-engine invariants: MasterSP, WorkerSP, and DataflowSP.

The three engines differ in *when* and *where* things happen — master
loop vs serialized worker loop vs parallel token handlers — but they
must agree on *what* happened: the same functions execute exactly once,
the FaaStore ends every run drained, the latency decomposition sums
exactly, and every one of those facts is bit-identical across repeated
runs (``tests/test_trial_identity.py`` covers any number of worker
processes).
"""

import pytest

from repro.clients import run_closed_loop
from repro.core import ENGINES, EngineConfig, hash_partition
from repro.metrics import InvocationStatus
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

from .conftest import MB, executions, fanout_dag, traced


def drain(env):
    env.run(until=env.now)


def _run(engine, invocations=3, ship_data=True):
    """One full run of the reference fan-out on one engine; every
    engine sees the same DAG, the same hash placement, the same
    closed-loop client, and the same invocation-id range, with span
    tracing on."""
    from repro.core.state import reset_invocation_ids

    reset_invocation_ids(1)
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(
            workers=3,
            container=ContainerSpec(cold_start_time=0.1),
            storage_bandwidth=50 * MB,
        ),
    )
    spans = traced(cluster)
    dag = fanout_dag(branches=3)
    placement = hash_partition(dag, cluster.worker_names())
    system = ENGINES[engine](cluster, EngineConfig(ship_data=ship_data))
    if engine == "master":
        system.register(dag, placement)
    else:
        system.deploy(
            dag,
            placement,
            quotas={w.name: 64 * MB for w in cluster.workers},
        )
    records = run_closed_loop(system, dag.name, invocations)
    drain(env)
    return env, cluster, system, spans, records, dag


class TestSameWorkEverywhere:
    def test_every_engine_executes_the_same_functions(self):
        expected = None
        for engine in ENGINES:
            _, _, _, spans, records, dag = _run(engine)
            assert all(r.status == InvocationStatus.OK for r in records)
            executed = {
                r.invocation_id: executions(spans, r.invocation_id)[0]
                for r in records
            }
            for counts in executed.values():
                assert counts == {name: 1 for name in dag.node_names}
            if expected is None:
                expected = set(executed)
            else:
                # Same client, same id allocator: the engines complete
                # the exact same invocation ids.
                assert set(executed) == expected

    @pytest.mark.parametrize("engine", ["worker", "dataflow"])
    def test_faastore_final_state_identical_and_empty(self, engine):
        """Invocation cleanup must drain every node-local store — eager
        pushes included — so both FaaStore engines end byte-identical."""
        _, cluster, system, _, records, _ = _run(engine)
        assert all(r.status == InvocationStatus.OK for r in records)
        for worker in cluster.workers:
            assert worker.memstore.used == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_live_processes_after_run(self, engine):
        _, cluster, system, _, _, _ = _run(engine)
        assert system.registry.live_count == 0
        for worker in cluster.workers:
            assert worker.cpu.busy == 0


class TestExactSumBreakdown:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_components_sum_to_e2e(self, engine):
        _, _, system, _, records, _ = _run(engine)
        for record in records:
            parts = system.metrics.breakdown(record.invocation_id)
            assert parts["measured"] is True
            total = sum(
                parts[k]
                for k in (
                    "execute", "cold_start", "transfer",
                    "queue_wait", "sync", "engine",
                )
            )
            assert total == pytest.approx(parts["e2e"], abs=1e-9)


class TestDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_across_repeated_runs(self, engine):
        """Two runs from the same invocation-id start (``_run`` resets
        the allocator to 1) produce identical records."""

        def fingerprint():
            _, _, _, _, records, _ = _run(engine)
            return [
                (r.invocation_id, r.started_at, r.finished_at, r.status,
                 r.cold_starts, r.retries)
                for r in records
            ]

        assert fingerprint() == fingerprint()
