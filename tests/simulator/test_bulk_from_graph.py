"""``BulkGraph.from_graph`` -- the one-pass array build -- against ``from_edges``.

``from_graph`` reads the raw networkx adjacency, maps labels to sorted
positions and sorts within rows in numpy; ``from_edges`` builds the same
CSR from position arrays.  For every labelling the two must agree on
``nodes``, ``indptr`` and ``col`` exactly, whatever order the networkx
graph's nodes and edges were inserted in.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulator.bulk import BulkGraph

from tests.property.strategies import simple_graphs

LABEL_KINDS = ("contiguous", "sparse", "negative", "huge", "str", "tuple")


def _labels(draw, kind: str, n: int) -> list:
    if kind == "contiguous":
        return list(range(n))
    if kind == "sparse":
        values = st.integers(min_value=0, max_value=10**6)
    elif kind == "negative":
        values = st.integers(min_value=-(10**6), max_value=10**6)
    elif kind == "huge":
        # Beyond int64: the build must not squeeze these through numpy ints.
        values = st.integers(min_value=-(2**70), max_value=2**70)
    elif kind == "str":
        values = st.text(min_size=1, max_size=4)
    else:
        values = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    return sorted(draw(st.lists(values, min_size=n, max_size=n, unique=True)))


@st.composite
def labelled_graphs(draw):
    """``(graph, labels, u, v)``: a shuffled-insertion networkx graph whose
    node at sorted position ``i`` is ``labels[i]``, plus its edges as
    position arrays."""
    base = draw(simple_graphs(min_nodes=1, max_nodes=14))
    n = base.number_of_nodes()
    labels = _labels(draw, draw(st.sampled_from(LABEL_KINDS)), n)
    edges = [
        (u, v) if draw(st.booleans()) else (v, u) for u, v in base.edges()
    ]
    graph = nx.Graph()
    graph.add_nodes_from(labels[i] for i in draw(st.permutations(range(n))))
    graph.add_edges_from(
        (labels[u], labels[v]) for u, v in draw(st.permutations(edges))
    )
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return graph, labels, u, v


@given(labelled_graphs())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_from_graph_equals_from_edges(case):
    graph, labels, u, v = case
    built = BulkGraph.from_graph(graph)
    reference = BulkGraph.from_edges(len(labels), u, v, nodes=labels)
    assert built.nodes == reference.nodes == tuple(labels)
    assert np.array_equal(built.indptr, reference.indptr)
    assert np.array_equal(built.col, reference.col)
    # The label -> position map handed over by the build agrees too.
    assert built.index_of(labels).tolist() == list(range(len(labels)))


@given(labelled_graphs(), st.data())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_from_graph_rejects_self_loops(case, data):
    graph, labels, _, _ = case
    node = data.draw(st.sampled_from(labels))
    graph.add_edge(node, node)
    with pytest.raises(ValueError, match="self loops"):
        BulkGraph.from_graph(graph)


def test_single_node():
    bulk = BulkGraph.from_graph(nx.empty_graph(["only"]))
    assert bulk.nodes == ("only",)
    assert bulk.indptr.tolist() == [0, 0]
    assert bulk.col.size == 0


def test_isolated_nodes_keep_empty_rows():
    graph = nx.Graph()
    graph.add_nodes_from([9, -3, 4])
    graph.add_edge(9, -3)
    bulk = BulkGraph.from_graph(graph)
    assert bulk.nodes == (-3, 4, 9)
    assert bulk.indptr.tolist() == [0, 1, 1, 2]
    assert bulk.col.tolist() == [2, 0]


@pytest.mark.parametrize(
    "graph, message",
    [
        (nx.Graph(), "at least one node"),
        (nx.DiGraph([(0, 1), (1, 0)]), "undirected"),
    ],
)
def test_rejects_empty_and_directed_inputs(graph, message):
    with pytest.raises(ValueError, match=message):
        BulkGraph.from_graph(graph)
