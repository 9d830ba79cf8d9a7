"""Unit tests for the storage policies (RemoteStorePolicy / FaaStorePolicy)."""

import pytest

from repro.clients import run_closed_loop
from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaStorePolicy,
    Placement,
    RemoteStorePolicy,
    object_key,
)
from repro.core.state import reset_invocation_ids
from repro.dag import WorkflowDAG
from repro.metrics import InvocationStatus, MetricsCollector
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment

from .conftest import MB, all_on, fanout_dag, linear_dag, round_robin


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestRemoteStorePolicy:
    def test_save_goes_to_remote_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        assert object_key("lin", 1, "f0", 0) in cluster.remote_store
        assert len(metrics.transfers) == 1
        assert not metrics.transfers[0].local
        assert metrics.transfers[0].phase == "put"

    def test_fetch_comes_from_remote_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        drive(
            env,
            policy.fetch_input(node, dag, placement, 1, "f0", "f1", 0, 1 * MB),
        )
        gets = [t for t in metrics.transfers if t.phase == "get"]
        assert len(gets) == 1
        assert gets[0].producer == "f0"
        assert gets[0].consumer == "f1"

    def test_zero_size_is_a_noop(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag(output_size=0)
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 0))
        assert metrics.transfers == []

    def test_cleanup_removes_objects(self, env, cluster):
        metrics = MetricsCollector()
        policy = RemoteStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, placement, 7, "f0", 0, 1 * MB))
        policy.cleanup_invocation(dag, 7)
        assert object_key("lin", 7, "f0", 0) not in cluster.remote_store


class TestFaaStorePolicy:
    def test_colocated_consumers_use_local_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        assert metrics.transfers[0].local
        assert object_key("lin", 1, "f0", 0) in node.memstore
        assert object_key("lin", 1, "f0", 0) not in cluster.remote_store

    def test_remote_consumer_forces_remote_store(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = round_robin(dag, ["worker-0", "worker-1"])
        node = cluster.node(placement.node_of("f0"))
        node.set_faastore_quota(100 * MB)
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 1 * MB))
        assert not metrics.transfers[0].local
        assert object_key("lin", 1, "f0", 0) in cluster.remote_store

    def test_quota_overflow_falls_back_to_remote(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag(output_size=10 * MB)
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        node.set_faastore_quota(5 * MB)  # too small for the 10 MB object
        drive(env, policy.save_output(node, dag, placement, 1, "f0", 0, 10 * MB))
        assert not metrics.transfers[0].local
        assert node.memstore.rejected_puts >= 1

    def test_local_fetch_and_refcount_cleanup(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = fanout_dag(branches=2)  # head feeds b0 and b1
        placement = all_on(dag, "worker-0")
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        drive(env, policy.save_output(node, dag, placement, 1, "head", 0, 2 * MB))
        key = object_key("fan", 1, "head", 0)
        drive(
            env,
            policy.fetch_input(node, dag, placement, 1, "head", "b0", 0, 2 * MB),
        )
        assert key in node.memstore  # b1 still needs it
        drive(
            env,
            policy.fetch_input(node, dag, placement, 1, "head", "b1", 0, 2 * MB),
        )
        assert key not in node.memstore  # freed after the last consumer
        assert node.memstore.used == 0

    def test_fetch_falls_back_to_remote_when_not_local(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        placement = round_robin(dag, ["worker-0", "worker-1"])
        producer_node = cluster.node("worker-0")
        consumer_node = cluster.node("worker-1")
        drive(
            env,
            policy.save_output(producer_node, dag, placement, 1, "f0", 0, 1 * MB),
        )
        drive(
            env,
            policy.fetch_input(
                consumer_node, dag, placement, 1, "f0", "f1", 0, 1 * MB
            ),
        )
        gets = [t for t in metrics.transfers if t.phase == "get"]
        assert len(gets) == 1 and not gets[0].local

    def test_local_is_much_faster_than_remote(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag(output_size=20 * MB)
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        local_placement = all_on(dag, "worker-0")
        drive(
            env,
            policy.save_output(node, dag, local_placement, 1, "f0", 0, 20 * MB),
        )
        local_put = metrics.transfers[-1].duration
        remote_placement = round_robin(dag, ["worker-0", "worker-1"])
        drive(
            env,
            policy.save_output(node, dag, remote_placement, 2, "f0", 0, 20 * MB),
        )
        remote_put = metrics.transfers[-1].duration
        assert local_put < remote_put / 20

    def test_cleanup_clears_both_tiers(self, env, cluster):
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        dag = linear_dag()
        node = cluster.node("worker-0")
        node.set_faastore_quota(100 * MB)
        drive(
            env,
            policy.save_output(node, dag, all_on(dag, "worker-0"), 1, "f0", 0, 1 * MB),
        )
        policy.cleanup_invocation(dag, 1)
        assert node.memstore.key_count == 0


def spy_deletes(stores, monkeypatch):
    """Record every ``delete`` call on ``stores`` as ``(store, key)``."""
    calls = []
    for store in stores:
        original = store.delete

        def delete(key, store=store, original=original):
            calls.append((store, key))
            original(key)

        monkeypatch.setattr(store, "delete", delete)
    return calls


class TestCleanupDeletesWhatWasWritten:
    def mapped_fanout(self):
        """``src`` (3 chunks) on worker-0 feeds ``here`` (worker-0) and
        ``there`` (worker-1)."""
        dag = WorkflowDAG("clean")
        dag.add_function("src", output_size=3 * MB, map_factor=3)
        for name in ("here", "there"):
            dag.add_function(name)
            dag.add_edge("src", name, data_size=3 * MB)
        placement = Placement(
            workflow="clean",
            assignment={"src": "worker-0", "here": "worker-0", "there": "worker-1"},
        )
        return dag, placement

    def test_abandoned_invocation_drains_remote_and_two_memstores(
        self, env, cluster, monkeypatch
    ):
        """Consumers never read (the invocation timed out): cleanup
        deletes each written key from exactly the stores that took it,
        chunk by chunk, the remote store first."""
        policy = FaaStorePolicy(cluster, MetricsCollector())
        dag, placement = self.mapped_fanout()
        w0, w1, w2 = cluster.workers
        for worker in cluster.workers:
            worker.set_faastore_quota(64 * MB)
        for chunk in (2, 1, 0):
            drive(env, policy.save_output(w0, dag, placement, 5, "src", chunk, 1 * MB))
        for chunk in (1, 0):
            drive(env, policy.eager_push(w0, w1, dag, placement, 5, "src", chunk, 1 * MB, 1))
        remote = cluster.remote_store
        assert remote.key_count == 3
        assert w0.memstore.key_count == 3 and w1.memstore.key_count == 2
        calls = spy_deletes([remote, w0.memstore, w1.memstore, w2.memstore], monkeypatch)
        policy.cleanup_invocation(dag, 5)
        key = [object_key("clean", 5, "src", chunk) for chunk in range(3)]
        assert calls == [
            (remote, key[0]), (w0.memstore, key[0]), (w1.memstore, key[0]),
            (remote, key[1]), (w0.memstore, key[1]), (w1.memstore, key[1]),
            (remote, key[2]), (w0.memstore, key[2]),
        ]
        for store in (remote, w0.memstore, w1.memstore, w2.memstore):
            assert store.key_count == 0
        for worker in cluster.workers:
            assert worker.memstore.used == 0.0
        policy.cleanup_invocation(dag, 5)  # a second cleanup is a no-op
        assert len(calls) == 8

    @pytest.mark.parametrize("policy_class", [RemoteStorePolicy, FaaStorePolicy])
    def test_invocation_that_wrote_nothing_issues_no_deletes(
        self, env, cluster, monkeypatch, policy_class
    ):
        policy = policy_class(cluster, MetricsCollector())
        dag = linear_dag(output_size=0)
        node = cluster.node("worker-0")
        drive(env, policy.save_output(node, dag, all_on(dag, "worker-0"), 1, "f0", 0, 0))
        calls = spy_deletes(
            [cluster.remote_store] + [w.memstore for w in cluster.workers], monkeypatch
        )
        policy.cleanup_invocation(dag, 1)
        policy.cleanup_invocation(dag, 2)  # never seen at all
        assert calls == []

    @pytest.mark.parametrize("timeout", [0.3, 0.5, 0.8])
    def test_timed_out_invocations_leave_stores_as_a_full_sweep_did(
        self, timeout
    ):
        """Against the sweep over every (node, chunk) key of the DAG in
        every store: same objects, byte gauges and counters, with
        invocations timing out mid-flight (puts still in flight at
        cleanup commit afterwards under both)."""
        assert run_timed_out(FaaStorePolicy, timeout) == run_timed_out(
            FullSweepPolicy, timeout
        )


class FullSweepPolicy(FaaStorePolicy):
    """Cleanup as it was before written-key tracking."""

    def cleanup_invocation(self, dag, invocation_id):
        for node_obj in dag.nodes:
            for chunk in range(max(1, int(round(node_obj.map_factor)))):
                key = object_key(dag.name, invocation_id, node_obj.name, chunk)
                self.cluster.remote_store.delete(key)
                for worker in self.cluster.workers:
                    worker.memstore.delete(key)


def run_timed_out(policy_class, timeout):
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
    system = DataflowSystem(
        cluster,
        EngineConfig(ship_data=True, eager_ship=True, execution_timeout=timeout),
        policy=policy_class(cluster, MetricsCollector()),
    )
    dag = fanout_dag(branches=4, output_size=4 * MB)
    system.deploy(
        dag,
        round_robin(dag, cluster.worker_names()),
        quotas={w.name: 64 * MB for w in cluster.workers},
    )
    records = run_closed_loop(system, "fan", 3)
    env.run()
    assert InvocationStatus.TIMEOUT in {r.status for r in records}
    stores = [cluster.remote_store] + [w.memstore for w in cluster.workers]
    return (
        [(r.status, r.finished_at) for r in records],
        [(sorted(s._data.items()), vars(s.stats)) for s in stores],
        [w.memstore.used for w in cluster.workers],
    )
