"""Property-based end-to-end tests: random workflows, hard invariants.

Hypothesis generates random WDL-shaped workflows; every engine executes
them on fresh clusters with span tracing on, and the invariants that
define a correct workflow engine are asserted:

- the invocation completes,
- every function (including virtual step markers) executes exactly once,
- no function executes before all of its predecessors,
- the same invariants hold under any placement and with data shipping.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients import run_closed_loop
from repro.core import (
    ENGINES,
    EngineConfig,
    FaaSFlowSystem,
    hash_partition,
)
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment
from repro.wdl import workflow_from_dict

from .conftest import executions, traced

MB = 1024.0 * 1024.0


@st.composite
def random_wdl(draw):
    """A random workflow document: sequences, parallels, foreach."""
    counter = {"n": 0}

    def task():
        counter["n"] += 1
        return {
            "task": f"t{counter['n']}",
            "service_time": draw(
                st.floats(min_value=0.01, max_value=0.2)
            ),
            "output_size": draw(
                st.sampled_from([0, 0.1 * MB, 1 * MB, 4 * MB])
            ),
            "memory": "48MB",
        }

    def step(depth):
        if depth >= 2:
            return task()
        kind = draw(st.sampled_from(["task", "task", "parallel", "foreach"]))
        if kind == "task":
            return task()
        if kind == "parallel":
            branches = [
                [step(depth + 1) for _ in range(draw(st.integers(1, 2)))]
                for _ in range(draw(st.integers(2, 3)))
            ]
            counter["n"] += 1
            return {"parallel": f"p{counter['n']}", "branches": branches}
        counter["n"] += 1
        return {
            "foreach": f"fe{counter['n']}",
            "items": draw(st.integers(2, 4)),
            "steps": [task()],
        }

    steps = [step(0) for _ in range(draw(st.integers(1, 4)))]
    return {"name": "random-wf", "steps": steps}


def fresh_cluster():
    env = Environment()
    cluster = Cluster(
        env,
        ClusterConfig(
            workers=3,
            container=ContainerSpec(cold_start_time=0.05),
        ),
    )
    return cluster, traced(cluster)


def check_invariants(dag, spans, record):
    assert record.status == "ok"
    counts, ends = executions(spans, record.invocation_id)
    assert counts == {name: 1 for name in dag.node_names}
    for edge in dag.edges:
        assert ends[edge.src] <= ends[edge.dst] + 1e-12


def run_once(engine, document, ship_data):
    """Start ``document`` once on a fresh traced cluster; return the
    DAG, the span tracer and the invocation record."""
    dag = workflow_from_dict(document)
    cluster, spans = fresh_cluster()
    system = ENGINES[engine](cluster, EngineConfig(ship_data=ship_data))
    placement = hash_partition(dag, cluster.worker_names())
    if engine == "master":
        system.register(dag, placement)
    else:
        system.deploy(dag, placement)
        for worker in cluster.workers:
            worker.set_faastore_quota(256 * MB, workflow=dag.name)
    record = run_closed_loop(system, dag.name, 1)[0]
    return dag, spans, record


class TestRandomWorkflows:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=30, deadline=None)
    @given(document=random_wdl(), ship_data=st.booleans())
    def test_engine_invariants(self, engine, document, ship_data):
        check_invariants(*run_once(engine, document, ship_data))

    @settings(max_examples=15, deadline=None)
    @given(document=random_wdl())
    def test_both_engines_run_the_same_functions(self, document):
        """The two schedule patterns must execute identical work."""
        _, spans_w, record_w = run_once("worker", document, False)
        _, spans_m, record_m = run_once("master", document, False)
        assert executions(spans_w, record_w.invocation_id)[0] == (
            executions(spans_m, record_m.invocation_id)[0]
        )

    @settings(max_examples=15, deadline=None)
    @given(document=random_wdl(), seed=st.integers(0, 100))
    def test_grouped_placement_preserves_invariants(self, document, seed):
        """Algorithm 1 placements are as correct as hash placements."""
        from repro.core import GraphScheduler
        from repro.dag import estimate_edge_weights

        dag = workflow_from_dict(document)
        cluster, spans = fresh_cluster()
        system = FaaSFlowSystem(cluster, EngineConfig(ship_data=True))
        scheduler = GraphScheduler(cluster, seed=seed)
        estimate_edge_weights(dag, bandwidth=cluster.config.storage_bandwidth)
        placement, quotas, _ = scheduler.schedule(dag, force_grouping=True)
        system.deploy(dag, placement, quotas=quotas)
        record = run_closed_loop(system, dag.name, 1)[0]
        check_invariants(dag, spans, record)
