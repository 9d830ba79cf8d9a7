"""Shared fixtures for core-engine tests."""

import pytest

from repro.dag import WorkflowDAG
from repro.obs import SpanKind, SpanTracer
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment
from repro.core import Placement

MB = 1024.0 * 1024.0


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    """Small fast cluster: 3 workers, big NICs, short cold starts."""
    config = ClusterConfig(
        workers=3,
        container=ContainerSpec(cold_start_time=0.1),
        storage_bandwidth=50 * MB,
    )
    return Cluster(env, config)


@pytest.fixture
def spans(cluster):
    """A span tracer on ``cluster``; request it before building a system
    (engines snapshot ``cluster.spans`` when they are constructed)."""
    return traced(cluster)


def traced(cluster):
    """Install a span tracer on ``cluster`` and return it."""
    tracer = SpanTracer(cluster.env)
    cluster.install_spans(tracer)
    return tracer


# FUNCTION-span statuses of a step that completed: the runtime ran it,
# or the engine stepped over a virtual marker or an unselected arm.
COMPLETED = ("ok", "virtual", "skipped")


def executions(spans, invocation_id):
    """``({function: completions}, {function: end time})`` of one
    invocation, read off its completed FUNCTION spans."""
    counts, ends = {}, {}
    for span in spans.spans_of(invocation_id):
        if span.kind == SpanKind.FUNCTION and span.status in COMPLETED:
            counts[span.function] = counts.get(span.function, 0) + 1
            ends[span.function] = span.end
    return counts, ends


def linear_dag(name="lin", n=3, service_time=0.1, output_size=1 * MB):
    dag = WorkflowDAG(name)
    previous = None
    for i in range(n):
        dag.add_function(
            f"f{i}",
            service_time=service_time,
            output_size=output_size,
            memory=32 * MB,
        )
        if previous:
            dag.add_edge(previous, f"f{i}", data_size=output_size)
        previous = f"f{i}"
    return dag


def fanout_dag(name="fan", branches=3, output_size=2 * MB):
    """head -> b0..bn -> tail (no virtual nodes)."""
    dag = WorkflowDAG(name)
    dag.add_function("head", service_time=0.05, output_size=output_size)
    dag.add_function("tail", service_time=0.05, output_size=0)
    for i in range(branches):
        b = f"b{i}"
        dag.add_function(b, service_time=0.1, output_size=output_size)
        dag.add_edge("head", b, data_size=output_size)
        dag.add_edge(b, "tail", data_size=output_size)
    return dag


def all_on(dag, worker):
    return Placement(
        workflow=dag.name,
        assignment={name: worker for name in dag.node_names},
    )


def round_robin(dag, workers):
    return Placement(
        workflow=dag.name,
        assignment={
            name: workers[i % len(workers)]
            for i, name in enumerate(dag.node_names)
        },
    )
