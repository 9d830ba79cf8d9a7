"""The columnar ledgers behind ``Network.records`` and
``MetricsCollector.transfers`` read back exactly what was booked."""

import copy
import dataclasses
import pickle
from array import array

import pytest

from repro.core import FaaStorePolicy, Placement
from repro.dag import WorkflowDAG
from repro.metrics import MetricsCollector, TransferEvent
from repro.metrics.ledger import Ledger
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment
from repro.sim.network import KB, MB, Network, NetworkConfig, TransferRecord


def assert_same_records(got, expected):
    """Equal field by field, and every field of the same type."""
    assert len(got) == len(expected)
    for record, want in zip(got, expected):
        assert type(record) is type(want)
        assert record == want
        for field in dataclasses.fields(want):
            name = field.name
            assert type(getattr(record, name)) is type(getattr(want, name)), name


def event(inv=1, size=1 * MB, duration=0.5, local=False, workflow="w"):
    return TransferEvent(workflow, inv, "p", "c", size, duration, "get", local)


class TestLedger:
    def test_reads_back_values_and_types(self):
        ledger = Ledger(TransferEvent)
        rows = [event(inv=3, size=7), event(inv=4, size=2.5, local=True)]
        for row in rows:
            ledger.append(row)
        ledger.add("w2", 5, "a", "", 1024, 0.25, "put", False)
        rows.append(TransferEvent("w2", 5, "a", "", 1024, 0.25, "put", False))
        assert_same_records(list(ledger), rows)
        assert_same_records([ledger[i] for i in range(len(ledger))], rows)
        assert ledger[-1] == rows[-1]
        assert ledger == rows and ledger != tuple(rows)  # as for a list

    def test_slices_behave_like_list_slices(self):
        ledger = Ledger(TransferEvent, floats=("duration",))
        rows = [event(inv=i, duration=i / 4) for i in range(7)]
        for row in rows:
            ledger.append(row)
        for index in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2),
                      slice(1, 6, 2), slice(9, 12)):
            got = ledger[index]
            assert type(got) is list
            assert got == rows[index]
        with pytest.raises(IndexError):
            ledger[7]

    def test_float_columns_are_arrays(self):
        ledger = Ledger(TransferRecord, floats=("started_at", "finished_at"))
        assert type(ledger.column("started_at")) is array
        assert type(ledger.column("size")) is list
        with pytest.raises(ValueError, match="no fields"):
            Ledger(TransferRecord, floats=("nope",))

    def test_empty_and_clear(self):
        ledger = Ledger(TransferEvent)
        assert ledger == [] and not ledger and len(ledger) == 0
        ledger.append(event())
        assert ledger != [] and ledger
        ledger.clear()
        assert ledger == [] and list(ledger) == []
        ledger.append(event(inv=9))
        assert ledger == [event(inv=9)]

    def test_pickle_and_deepcopy_round_trip(self):
        ledger = Ledger(TransferRecord, floats=("started_at", "finished_at"))
        ledger.add("a", "b", 3, 1.0, 2.5, "message", "t")
        for clone in (pickle.loads(pickle.dumps(ledger)), copy.deepcopy(ledger)):
            assert_same_records(list(clone), list(ledger))
            clone.add("b", "a", 4.0, 3.0, 3.5, "flow", "")
            assert len(clone) == 2 and len(ledger) == 1
        assert pickle.loads(pickle.dumps(MetricsCollector())).transfers == []

    def test_contains_and_index_from_sequence(self):
        ledger = Ledger(TransferEvent)
        ledger.append(event(inv=1))
        ledger.append(event(inv=2))
        assert event(inv=2) in ledger
        assert ledger.index(event(inv=2)) == 1


class TestNetworkRecords:
    def test_records_equal_what_the_old_code_built(self):
        env = Environment()
        net = Network(env, NetworkConfig(latency=0.001))
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        expected = []
        booked = net._record

        def spy(src, dst, size, started, kind, tag):
            # The per-transfer object the list-backed ledger appended.
            expected.append(
                TransferRecord(
                    src=src.name, dst=dst.name, size=size, started_at=started,
                    finished_at=env.now, kind=kind, tag=tag,
                )
            )
            booked(src, dst, size, started, kind, tag)

        net._record = spy

        def traffic(env):
            yield net.message(a, b, 100, tag="int-size")
            yield net.message(a, b)
            yield net.transfer(a, a, 3 * MB, tag="local")
            yield net.transfer(a, b, 2 * KB)
            yield env.all_of([net.transfer(a, b, 1 * MB), net.transfer(b, a, 5 * MB)])

        env.run(until=env.process(traffic(env)))
        assert len(expected) == 6
        assert type(net.records[0].size) is int
        assert_same_records(list(net.records), expected)
        assert net.records[1:4] == expected[1:4]
        assert net.records_dropped == 0

    def test_record_limit_then_clear(self):
        env = Environment()
        net = Network(env, NetworkConfig(latency=0.0, record_limit=3))
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 100 * MB)
        for _ in range(5):
            env.run(until=net.message(a, b, 1 * KB))
        assert len(net.records) == 3 and net.records_dropped == 2
        kept = list(net.records)
        net.records.clear()
        assert net.records == []
        for _ in range(4):
            env.run(until=net.message(a, b, 1 * KB))
        assert len(net.records) == 3 and net.records_dropped == 3
        assert net.records[0].started_at > kept[-1].finished_at


class TestTransferEvents:
    def test_storage_events_equal_what_the_old_code_built(self):
        env = Environment()
        cluster = Cluster(
            env,
            ClusterConfig(workers=2, container=ContainerSpec(cold_start_time=0.1)),
        )
        metrics = MetricsCollector()
        policy = FaaStorePolicy(cluster, metrics)
        expected = []
        booked, pushed = policy._record, policy._record_push

        def spy_record(dag, inv, producer, consumer, size, duration, phase,
                       local, node=""):
            expected.append(TransferEvent(
                workflow=dag.name, invocation_id=inv, producer=producer,
                consumer=consumer, size=size, duration=duration, phase=phase,
                local=local,
            ))
            booked(dag, inv, producer, consumer, size, duration, phase, local, node)

        def spy_push(dag, inv, producer, size, duration, node):
            expected.append(TransferEvent(
                workflow=dag.name, invocation_id=inv, producer=producer,
                consumer="", size=size, duration=duration, phase="push",
                local=False,
            ))
            pushed(dag, inv, producer, size, duration, node)

        policy._record, policy._record_push = spy_record, spy_push
        dag = WorkflowDAG("ev")
        dag.add_function("src", output_size=4 * MB)
        for name in ("here", "there"):
            dag.add_function(name)
            dag.add_edge("src", name, data_size=4 * MB)
        placement = Placement(
            workflow="ev",
            assignment={"src": "worker-0", "here": "worker-0", "there": "worker-1"},
        )
        w0, w1 = cluster.node("worker-0"), cluster.node("worker-1")
        for worker in (w0, w1):
            worker.set_faastore_quota(64 * MB)

        def flow(env):
            yield env.process(policy.save_output(w0, dag, placement, 1, "src", 0, 4 * MB))
            yield env.process(
                policy.eager_push(w0, w1, dag, placement, 1, "src", 0, 4 * MB, 1)
            )
            yield env.process(
                policy.fetch_input(w0, dag, placement, 1, "src", "here", 0, 4 * MB)
            )
            yield env.process(
                policy.fetch_input(w1, dag, placement, 1, "src", "there", 0, 4 * MB)
            )

        env.run(until=env.process(flow(env)))
        assert [e.phase for e in expected] == ["put", "push", "get", "get"]
        assert_same_records(list(metrics.transfers), expected)
