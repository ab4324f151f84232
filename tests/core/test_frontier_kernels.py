"""Frontier-restricted Algorithm 2/3 kernels: parity where the frontier matters.

The fault-free kernels reduce only over the rows the algorithm still
reads: coverage over the white nodes that can newly be covered, pushed
counts and maxima from their support, δ̃ by decrement.  Their results must
not move by a bit.  These tests pin that on the graphs where the frontier
collapses early -- a star and a complete graph (every node turns gray in
the first inner iteration), disconnected graphs with isolated nodes --
against the simulated per-node programs, independent single-k runs,
untraced runs, and the sharded engine at 1, 2 and 3 shards.  They also
pin the point of the change: once no white node is left, no operator call
touches a single CSR position.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.fractional import (
    approximate_fractional_mds,
    approximate_fractional_mds_multi_k,
)
from repro.core.fractional_unknown import (
    approximate_fractional_mds_unknown_delta,
    approximate_fractional_mds_unknown_delta_multi_k,
)
from repro.core.vectorized import (
    algorithm2_exchanges,
    algorithm3_exchanges,
    run_algorithm2_bulk,
    run_algorithm3_bulk,
)
from repro.simulator.bulk import BulkGraph
from repro.simulator.columnar import ColumnarTrace


def _disconnected() -> nx.Graph:
    """A path, a clique, a triangle and four isolated nodes."""
    graph = nx.Graph()
    graph.add_nodes_from(range(22))
    graph.add_edges_from((u, u + 1) for u in range(6))
    graph.add_edges_from((u, v) for u in range(8, 14) for v in range(u + 1, 14))
    graph.add_edges_from([(15, 16), (16, 17), (15, 17)])
    return graph


GRAPHS = {
    "star": nx.star_graph(11),
    "complete": nx.complete_graph(9),
    "disconnected": _disconnected(),
    "isolated": nx.empty_graph(5),
    "single": nx.empty_graph(1),
    "gnp": nx.gnp_random_graph(40, 0.12, seed=4),
}
SOLVERS = {
    "algorithm2": approximate_fractional_mds,
    "algorithm3": approximate_fractional_mds_unknown_delta,
}
SWEEPS = {
    "algorithm2": approximate_fractional_mds_multi_k,
    "algorithm3": approximate_fractional_mds_unknown_delta_multi_k,
}


def assert_bitwise_equal(result, expected):
    """x-vector (by bits), objective and the whole ExecutionMetrics."""
    assert result.x.keys() == expected.x.keys()
    for node, value in expected.x.items():
        assert result.x[node].hex() == value.hex()
    assert result.objective == expected.objective
    assert result.metrics == expected.metrics


def trace_events(trace) -> list:
    """A trace's events as a sorted multiset (floats by their bits).

    The vectorized engine records whole event kinds at a time, so only the
    within-round order differs from the simulator's; every event matches.
    """
    return sorted(
        (
            event.round_index,
            event.kind,
            event.node_id,
            repr(
                sorted(
                    (key, value.hex() if isinstance(value, float) else value)
                    for key, value in event.data.items()
                )
            ),
        )
        for event in trace
    )


@pytest.mark.parametrize("algorithm", sorted(SOLVERS))
@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestParity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vectorized_matches_simulated(self, algorithm, name, k):
        solve = SOLVERS[algorithm]
        graph = GRAPHS[name]
        assert_bitwise_equal(
            solve(graph, k=k, backend="vectorized"), solve(graph, k=k)
        )

    def test_sweep_matches_independent_runs(self, algorithm, name):
        graph = GRAPHS[name]
        sweep = SWEEPS[algorithm](graph, (1, 2, 3, 4, 5), backend="vectorized")
        for k, snapshot in sweep.items():
            assert_bitwise_equal(snapshot, SOLVERS[algorithm](graph, k=k))

    def test_traced_run_matches_untraced_and_simulated_trace(self, algorithm, name):
        solve = SOLVERS[algorithm]
        graph = GRAPHS[name]
        traced = solve(graph, k=3, backend="vectorized", collect_trace=True)
        assert isinstance(traced.trace, ColumnarTrace)
        assert_bitwise_equal(traced, solve(graph, k=3, backend="vectorized"))
        simulated = solve(graph, k=3, collect_trace=True)
        assert trace_events(traced.trace.to_events()) == trace_events(
            simulated.trace
        )


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("name", ["star", "complete", "disconnected"])
def test_sharded_matches_vectorized(name, shards):
    graph = GRAPHS[name]
    for algorithm, sweep in sorted(SWEEPS.items()):
        sharded = sweep(graph, (1, 2, 3), backend="sharded", shards=shards)
        vectorized = sweep(graph, (1, 2, 3), backend="vectorized")
        for k in (1, 2, 3):
            assert_bitwise_equal(sharded[k], vectorized[k])


def test_white_empties_in_the_first_iteration():
    """The star and the complete graph are all covered by one x exchange."""
    for name in ("star", "complete"):
        bulk = BulkGraph.from_graph(GRAPHS[name])
        for run in (
            lambda trace: run_algorithm2_bulk(
                bulk, 3, delta=bulk.max_degree, trace=trace
            ),
            lambda trace: run_algorithm3_bulk(bulk, 3, trace=trace),
        ):
            trace = ColumnarTrace()
            run(trace)
            assert np.unique(trace.rounds_of("colored-gray")).size == 1
            assert trace.count("colored-gray") == bulk.n


class TestFrontierWork:
    """Each exchange is one operator call; none reads the CSR once white is empty."""

    @staticmethod
    def instrument(bulk: BulkGraph) -> list:
        """Wrap the operators; record each call's CSR positions touched.

        A call without a frontier argument reads every position; a call
        with one reads what :meth:`BulkGraph._row_positions` hands it.
        """
        calls: list = []
        touched = [0]
        row_positions = bulk._row_positions

        def counting_row_positions(rows):
            positions, counts = row_positions(rows)
            touched[0] += positions.size
            return positions, counts

        bulk._row_positions = counting_row_positions
        for name, argument in (
            ("neighbor_sum", "rows"),
            ("neighbor_count", "support"),
            ("closed_max", "support"),
        ):
            operator = getattr(bulk, name)

            def wrapped(*args, _operator=operator, _argument=argument, **kwargs):
                before = touched[0]
                result = _operator(*args, **kwargs)
                full = kwargs.get(_argument) is None
                calls.append(bulk.col.size if full else touched[0] - before)
                return result

            setattr(bulk, name, wrapped)
        return calls

    @pytest.mark.parametrize("name", ["star", "complete", "disconnected", "gnp"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_no_position_is_read_once_white_is_empty(self, name, k):
        graph = GRAPHS[name]
        for exchanges, run in (
            (
                algorithm2_exchanges(k),
                lambda bulk, trace: run_algorithm2_bulk(
                    bulk, k, delta=bulk.max_degree, trace=trace
                ),
            ),
            (
                algorithm3_exchanges(k),
                lambda bulk, trace: run_algorithm3_bulk(bulk, k, trace=trace),
            ),
        ):
            bulk = BulkGraph.from_graph(graph)
            calls = self.instrument(bulk)
            trace = ColumnarTrace()
            run(bulk, trace)
            # Lockstep contract: exactly one operator call per exchange,
            # whatever the frontier holds.
            assert len(calls) == exchanges
            # The colour exchange after the last newly gray node is the
            # call numbered by that event's round; nothing later reads
            # the adjacency.
            assert trace.count("colored-gray") == bulk.n
            last_colouring = int(trace.rounds_of("colored-gray").max())
            assert sum(calls[: last_colouring + 1]) > 0
            assert all(count == 0 for count in calls[last_colouring + 1 :])
