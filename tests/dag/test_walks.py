"""The virtual-node walks return what the recursive definitions did.

``data_dependencies``/``data_consumers`` (and the scheduler's
``_virtual_path_edges``) walk an explicit stack instead of recursing
through a nested closure.  Each is compared here with a recursive
reference on shapes that exercise the order and de-duplication rules:
nested virtual start/end markers, diamonds through virtuals, and a
producer reached along several paths.
"""

import pytest

from repro.core.scheduler import _virtual_path_edges
from repro.dag import FunctionNode, WorkflowDAG

MB = 1024.0 * 1024.0


def recursive_neighbours(dag, name, forward):
    result, seen = [], set()

    def walk(current):
        nxt = dag.successors(current) if forward else dag.predecessors(current)
        for other in nxt:
            if dag.node(other).is_virtual:
                walk(other)
            elif other not in seen:
                seen.add(other)
                result.append(other)

    walk(name)
    return result


def recursive_path(dag, producer, consumer):
    path = []

    def walk(current, acc):
        for edge in dag.out_edges(current):
            if edge.dst == consumer:
                path.extend(acc + [edge])
                return True
            if dag.node(edge.dst).is_virtual and walk(edge.dst, acc + [edge]):
                return True
        return False

    walk(producer, [])
    return path


def build(nodes, edges, virtual=()):
    dag = WorkflowDAG("w")
    for index, name in enumerate(nodes):
        dag.add_node(
            FunctionNode(
                name, output_size=(index + 1) * MB, is_virtual=name in virtual
            )
        )
    for src, dst in edges:
        dag.add_edge(src, dst)
    return dag


def nested_markers():
    """a -> outer.start -> (b, inner.start -> (c, d) -> inner.end)
    -> outer.end -> e, with e also fed by b directly."""
    return build(
        ["a", "os", "b", "is", "c", "d", "ie", "oe", "e"],
        [
            ("a", "os"), ("os", "b"), ("os", "is"), ("is", "c"),
            ("is", "d"), ("c", "ie"), ("d", "ie"), ("ie", "oe"),
            ("b", "oe"), ("b", "e"), ("oe", "e"),
        ],
        virtual={"os", "is", "ie", "oe"},
    )


def virtual_diamond():
    """a -> v1 -> (v2, v3) -> v4 -> b: v4 is reached twice."""
    return build(
        ["a", "x", "v1", "v2", "v3", "v4", "b", "y"],
        [
            ("a", "v1"), ("x", "v1"), ("v1", "v2"), ("v1", "v3"),
            ("v2", "v4"), ("v3", "v4"), ("v4", "b"), ("v4", "y"),
            ("v3", "y"),
        ],
        virtual={"v1", "v2", "v3", "v4"},
    )


def duplicate_producers():
    """p feeds c directly and through two virtual hops; q only through one."""
    return build(
        ["p", "q", "v", "w", "c"],
        [
            ("p", "v"), ("q", "v"), ("v", "w"), ("p", "w"), ("w", "c"),
            ("p", "c"),
        ],
        virtual={"v", "w"},
    )


SHAPES = {
    "nested": nested_markers,
    "diamond": virtual_diamond,
    "duplicates": duplicate_producers,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_walks_match_recursive_reference(shape):
    dag = SHAPES[shape]()
    for name in dag.node_names:
        consumers = dag.data_consumers(name)
        assert consumers == recursive_neighbours(dag, name, forward=True)
        producers = recursive_neighbours(dag, name, forward=False)
        assert dag.data_dependencies(name) == [
            (src, dag.node(src).output_size) for src in producers
        ]
        for other in dag.node_names:
            assert _virtual_path_edges(dag, name, other) == recursive_path(
                dag, name, other
            )


def test_expected_orders():
    dag = nested_markers()
    # Real nodes stop the walk: e is b's consumer, not a's.
    assert dag.data_consumers("a") == ["b", "c", "d"]
    assert [src for src, _ in dag.data_dependencies("e")] == ["b", "c", "d"]
    dag = virtual_diamond()
    assert dag.data_consumers("a") == ["b", "y"]
    assert [src for src, _ in dag.data_dependencies("y")] == ["a", "x"]
    dag = duplicate_producers()
    assert dag.data_dependencies("c") == [("p", 1 * MB), ("q", 2 * MB)]
    assert [e.key for e in _virtual_path_edges(dag, "q", "c")] == [
        ("q", "v"), ("v", "w"), ("w", "c"),
    ]
    assert [e.key for e in _virtual_path_edges(dag, "p", "c")] == [
        ("p", "v"), ("v", "w"), ("w", "c"),
    ]
    assert _virtual_path_edges(dag, "c", "p") == []
