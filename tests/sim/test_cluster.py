"""Unit tests for cluster assembly."""

import pytest

from repro.sim.cluster import GB, Cluster, ClusterConfig, NodeConfig
from repro.sim.kernel import Environment, SimulationError
from repro.sim.network import MB


@pytest.fixture
def env():
    return Environment()


class TestClusterShape:
    def test_default_matches_paper_testbed(self, env):
        cluster = Cluster(env)
        assert len(cluster.workers) == 7
        assert cluster.workers[0].config.cores == 8
        assert cluster.workers[0].config.memory == 32 * GB
        assert cluster.storage_node.config.cores == 16

    def test_node_lookup(self, env):
        cluster = Cluster(env)
        assert cluster.node("worker-3").name == "worker-3"
        assert cluster.node("storage") is cluster.storage_node
        with pytest.raises(SimulationError):
            cluster.node("worker-99")

    def test_worker_names(self, env):
        cluster = Cluster(env, ClusterConfig(workers=3))
        assert cluster.worker_names() == ["worker-0", "worker-1", "worker-2"]

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            ClusterConfig(workers=0)
        with pytest.raises(SimulationError):
            NodeConfig(cores=0)
        with pytest.raises(SimulationError):
            ClusterConfig(storage_bandwidth=0)


class TestStorageBandwidth:
    def test_default_bandwidth_applied(self, env):
        cluster = Cluster(env, ClusterConfig(storage_bandwidth=25 * MB))
        assert cluster.storage_node.nic.bandwidth == 25 * MB

    def test_set_storage_bandwidth(self, env):
        cluster = Cluster(env)
        cluster.set_storage_bandwidth(75 * MB)
        assert cluster.storage_node.nic.bandwidth == 75 * MB

    def test_throttle_slows_flows_in_flight(self, env):
        cluster = Cluster(env, ClusterConfig(storage_bandwidth=10 * MB))
        network = cluster.network
        worker = cluster.workers[0]
        done = network.transfer(worker.nic, cluster.storage_node.nic, 30 * MB)
        env.schedule_at(1.0).callbacks.append(
            lambda _event: cluster.set_storage_bandwidth(5 * MB)
        )
        env.run(until=done)
        (record,) = network.records
        # 10 MB in the first second at 10 MB/s, the other 20 MB at 5 MB/s.
        assert record.finished_at == pytest.approx(5.0, rel=1e-9)

    def test_remote_store_behind_storage_nic(self, env):
        cluster = Cluster(env, ClusterConfig(storage_bandwidth=10 * MB))
        worker = cluster.workers[0]
        done = cluster.remote_store.put("k", 10 * MB, src=worker.nic)
        env.run(until=done)
        assert env.now >= 1.0  # bottlenecked by the 10 MB/s storage NIC


class TestFaaStoreQuota:
    def test_quota_pins_memory(self, env):
        cluster = Cluster(env)
        worker = cluster.workers[0]
        worker.set_faastore_quota(1 * GB)
        assert worker.memory.reserved_by_tag("faastore-pool") == pytest.approx(1 * GB)
        assert worker.memstore.quota == 1 * GB

    def test_quota_update_replaces_pool(self, env):
        cluster = Cluster(env)
        worker = cluster.workers[0]
        worker.set_faastore_quota(1 * GB)
        worker.set_faastore_quota(2 * GB)
        assert worker.memory.reserved_by_tag("faastore-pool") == pytest.approx(2 * GB)

    def test_zero_quota_clears_pool(self, env):
        cluster = Cluster(env)
        worker = cluster.workers[0]
        worker.set_faastore_quota(1 * GB)
        worker.set_faastore_quota(0)
        assert worker.memory.reserved_by_tag("faastore-pool") == 0


class TestDataAccounting:
    def test_total_data_moved_excludes_local(self, env):
        cluster = Cluster(env)
        w0, w1 = cluster.workers[0], cluster.workers[1]
        env.run(until=cluster.network.transfer(w0.nic, w1.nic, 5 * MB))
        env.run(until=cluster.network.transfer(w0.nic, w0.nic, 50 * MB))
        assert cluster.total_data_moved == pytest.approx(5 * MB)
