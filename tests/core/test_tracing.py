"""Engine execution invariants, read off the span trace."""

from repro.core import EngineConfig, FaaSFlowSystem, HyperFlowServerlessSystem
from repro.clients import run_closed_loop
from repro.obs import SpanKind

from .conftest import all_on, executions, fanout_dag, linear_dag, round_robin


def make_faasflow(cluster):
    return FaaSFlowSystem(cluster, EngineConfig(ship_data=False))


class TestWorkerSPTracing:
    def test_invocation_bracketed(self, env, cluster, spans):
        system = make_faasflow(cluster)
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        root = spans.root_of(record.invocation_id)
        assert root.status == "ok"
        assert (root.start, root.end) == (record.started_at, record.finished_at)
        for span in spans.spans_of(record.invocation_id):
            assert root.start <= span.start <= span.end <= root.end

    def test_every_function_executes_exactly_once(self, env, cluster, spans):
        system = make_faasflow(cluster)
        dag = fanout_dag(branches=4)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = run_closed_loop(system, "fan", 1)[0]
        counts, _ = executions(spans, record.invocation_id)
        assert counts == {name: 1 for name in dag.node_names}

    def test_execution_respects_predecessor_order(self, env, cluster, spans):
        system = make_faasflow(cluster)
        dag = fanout_dag(branches=3)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = run_closed_loop(system, "fan", 1)[0]
        _, ends = executions(spans, record.invocation_id)
        for edge in dag.edges:
            assert ends[edge.src] <= ends[edge.dst]

    def test_cold_starts_traced_once_then_warm(self, env, cluster, spans):
        system = make_faasflow(cluster)
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-1"))
        run_closed_loop(system, "lin", 2)
        assert len(spans.of_kind(SpanKind.COLD_START)) == 3  # first run only

    def test_state_sync_only_for_cross_worker_edges(self, env, cluster, spans):
        def worker_syncs():
            return [
                s for s in spans.of_kind(SpanKind.STATE_SYNC)
                if s.attrs["role"] == "state"
            ]

        system = make_faasflow(cluster)
        dag = linear_dag(n=4)
        system.deploy(dag, all_on(dag, "worker-0"))
        run_closed_loop(system, "lin", 1)
        assert worker_syncs() == []
        spans.clear()
        dag2 = linear_dag(name="lin2", n=4)
        system.deploy(dag2, round_robin(dag2, ["worker-0", "worker-1"]))
        run_closed_loop(system, "lin2", 1)
        assert len(worker_syncs()) == 3

    def test_executed_node_matches_placement(self, env, cluster, spans):
        system = make_faasflow(cluster)
        dag = linear_dag(n=3)
        placement = round_robin(dag, cluster.worker_names())
        system.deploy(dag, placement)
        record = run_closed_loop(system, "lin", 1)[0]
        functions = [
            s for s in spans.spans_of(record.invocation_id)
            if s.kind == SpanKind.FUNCTION
        ]
        assert len(functions) == 3
        for span in functions:
            assert span.node == placement.node_of(span.function)

    def test_timeline_renders(self, env, cluster, spans):
        system = make_faasflow(cluster)
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        text = spans.format_tree(record.invocation_id)
        assert text.splitlines()[0].endswith("invocation")
        assert "function f0 @worker-0" in text


class TestMasterSPTracing:
    def test_assignments_traced(self, env, cluster, spans):
        system = HyperFlowServerlessSystem(cluster, EngineConfig(ship_data=False))
        dag = linear_dag(n=3)
        system.register(dag, all_on(dag, "worker-2"))
        record = run_closed_loop(system, "lin", 1)[0]
        assigns = [
            s for s in spans.of_kind(SpanKind.STATE_SYNC)
            if s.attrs["role"] == "assign"
        ]
        assert len(assigns) == 3
        assert {s.attrs["dst"] for s in assigns} == {"worker-2"}
        counts, _ = executions(spans, record.invocation_id)
        assert counts == {name: 1 for name in dag.node_names}

    def test_no_tracer_costs_nothing(self, env, cluster):
        system = HyperFlowServerlessSystem(
            cluster, EngineConfig(ship_data=False)
        )
        dag = linear_dag(n=2)
        system.register(dag, all_on(dag, "worker-0"))
        record = run_closed_loop(system, "lin", 1)[0]
        assert record.status == "ok"
        assert system.spans.enabled is False
