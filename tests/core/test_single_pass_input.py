"""One validation and one CSR build per solve; input errors stay typed.

The pipeline validates a networkx input once, builds its CSR once, and
hands that CSR to every phase (fractional, feasibility check, rounding,
final domination check, repair).  These tests count the calls, pin the
``ValueError`` messages bad inputs get on every backend, and pin the
dispatch rule that input size never selects the sharded engine.
"""

from __future__ import annotations

import sys

import networkx as nx
import pytest

import repro.graphs.utils as graph_utils
from repro.api import resolve_backend, solve
from repro.core.kuhn_wattenhofer import FractionalVariant
from repro.graphs.bulk import bulk_erdos_renyi_graph
from repro.graphs.generators import erdos_renyi_graph
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSpec


@pytest.fixture
def calls(monkeypatch):
    """Count ``BulkGraph.from_graph`` and ``validate_simple_graph`` calls.

    ``validate_simple_graph`` is imported by name into several modules, so
    every loaded ``repro`` module holding it is patched.
    """
    counts = {"from_graph": 0, "validate": 0}
    build = BulkGraph.__dict__["from_graph"].__func__
    validate = graph_utils.validate_simple_graph

    def counting_build(cls, graph):
        counts["from_graph"] += 1
        return build(cls, graph)

    def counting_validate(graph):
        counts["validate"] += 1
        return validate(graph)

    monkeypatch.setattr(BulkGraph, "from_graph", classmethod(counting_build))
    for name, module in list(sys.modules.items()):
        holds = getattr(module, "validate_simple_graph", None) is validate
        if name.startswith("repro") and holds:
            monkeypatch.setattr(module, "validate_simple_graph", counting_validate)
    return counts


SOLVE_CASES = [
    pytest.param("simulated", {}, id="simulated"),
    pytest.param("vectorized", {}, id="vectorized"),
    pytest.param("auto", {}, id="auto"),
    pytest.param("sharded", {"shards": 2}, id="sharded"),
    pytest.param(
        "simulated",
        {"faults": FaultSpec(loss_probability=0.2, crash_probability=0.1, seed=3)},
        id="simulated-faults",
    ),
    pytest.param(
        "vectorized",
        {"faults": FaultSpec(loss_probability=0.2, crash_probability=0.1, seed=3)},
        id="vectorized-faults",
    ),
]


class TestOneValidationOneBuild:
    @pytest.mark.parametrize("variant", list(FractionalVariant))
    @pytest.mark.parametrize("backend, extra", SOLVE_CASES)
    def test_networkx_input(self, calls, backend, extra, variant):
        graph = erdos_renyi_graph(60, 0.08, seed=4)
        report = solve(
            "kuhn-wattenhofer",
            graph,
            backend=backend,
            seed=1,
            k=2,
            variant=variant,
            **extra,
        )
        assert report.size > 0
        assert calls["from_graph"] == 1
        assert calls["validate"] <= 1

    @pytest.mark.parametrize("backend", ["simulated", "vectorized", "auto"])
    def test_weighted_networkx_input(self, calls, backend):
        graph = erdos_renyi_graph(60, 0.08, seed=4)
        weights = {node: 1.0 + (node % 3) for node in graph.nodes()}
        solve(
            "weighted-kuhn-wattenhofer",
            graph,
            backend=backend,
            seed=1,
            k=2,
            weights=weights,
        )
        assert calls["from_graph"] == 1
        assert calls["validate"] <= 1

    @pytest.mark.parametrize("backend", ["vectorized", "auto"])
    def test_bulk_input(self, calls, backend):
        bulk = bulk_erdos_renyi_graph(300, 0.02, seed=2)
        solve("kuhn-wattenhofer", bulk, backend=backend, seed=1, k=2)
        assert calls == {"from_graph": 0, "validate": 0}


def _self_loop_graph(n: int) -> nx.Graph:
    graph = nx.path_graph(n)
    graph.add_edge(n // 2, n // 2)
    return graph


BAD_INPUTS = [
    pytest.param(nx.Graph(), "graph has no nodes", id="empty"),
    pytest.param(
        nx.DiGraph(nx.path_graph(8)), "graph must be undirected", id="digraph"
    ),
    pytest.param(
        nx.DiGraph(nx.path_graph(600)), "graph must be undirected", id="large-digraph"
    ),
    pytest.param(
        _self_loop_graph(8), "graph must not contain self loops", id="self-loop"
    ),
    pytest.param(
        _self_loop_graph(600), "graph must not contain self loops", id="large-self-loop"
    ),
]


class TestTypedInputErrors:
    @pytest.mark.parametrize("backend", ["vectorized", "auto"])
    @pytest.mark.parametrize("graph, message", BAD_INPUTS)
    def test_solve_raises_the_validation_message(self, graph, message, backend):
        with pytest.raises(ValueError) as raised:
            solve("kuhn-wattenhofer", graph, backend=backend, seed=0)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message


class TestAutoNeverShardsBySize:
    def test_large_csr_resolves_vectorized(self):
        bulk = bulk_erdos_renyi_graph(200_000, 8 / 200_000, seed=0)
        assert resolve_backend("kuhn-wattenhofer", bulk) == "vectorized"
        assert resolve_backend("kuhn-wattenhofer", bulk, shards=2) == "sharded"
        assert resolve_backend("kuhn-wattenhofer", bulk, backend="sharded") == "sharded"
