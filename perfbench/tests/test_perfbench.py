"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import threading

import networkx as nx
import numpy as np
import pytest

from perfbench import scripts
from perfbench.checks import Csr
from perfbench.measure import tail
from perfbench.spans import Probe, Span, Tracer, children_of, outermost, self_time
from perfbench.workloads import gnp_graph


# ---------------------------------------------------------------------- #
# Tail percentile                                                         #
# ---------------------------------------------------------------------- #


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = tail(values)
    assert value == 90
    assert percentile == 90.0
    assert sum(1 for v in values if v > value) == 10


def test_tail_is_order_independent_and_uses_highest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0]
    value, percentile = tail(values)
    assert value == 2.0  # rank 2 of 12: ten samples beyond it
    assert percentile == pytest.approx(100 * 2 / 12)


def test_tail_of_small_sample_is_its_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail(list(range(10))) == (9.0, 100.0)
    assert tail(list(range(11))) == (0.0, pytest.approx(100 / 11))


# ---------------------------------------------------------------------- #
# Span arithmetic                                                         #
# ---------------------------------------------------------------------- #


def _span(span_id, name, start, end, parent=None):
    return Span(span_id=span_id, name=name, start=start, end=end, parent=parent)


def test_self_time_subtracts_union_of_children():
    parent = _span(1, "p", 0.0, 10.0)
    spans = [
        parent,
        _span(2, "a", 1.0, 3.0, parent=1),
        _span(3, "b", 2.0, 5.0, parent=1),  # overlaps a (another thread)
        _span(4, "c", 8.0, 12.0, parent=1),  # runs past the parent's end
    ]
    # Children cover [1, 5) and [8, 10) inside the parent: 6 of its 10 s.
    assert self_time(parent, children_of(spans)) == pytest.approx(4.0)


def test_self_time_without_children_is_duration():
    span = _span(1, "p", 2.0, 3.5)
    assert self_time(span, {}) == pytest.approx(1.5)


def test_outermost_skips_nested_same_name_and_excluded_parent():
    spans = [
        _span(1, "lp.solve", 0, 10),
        _span(2, "lp.checks", 1, 2, parent=1),
        _span(3, "lp.checks", 11, 12),
        _span(4, "lp.checks", 11.5, 11.8, parent=3),
    ]
    assert [s.span_id for s in outermost(spans, "lp.checks")] == [2, 3]
    assert [s.span_id for s in outermost(spans, "lp.checks", under="lp.solve")] == [3]


class _Request:
    def __init__(self, request_id):
        self.request_id = request_id
        self.submitted_at = 0.0


def test_spans_nest_per_thread_and_carry_request_tags():
    tracer = Tracer()
    tracer.current_op = 7
    execute = tracer.wrap(
        lambda group: inner(), Probe("m", "f", "service.exec", serves=lambda args: args[0])
    )
    inner = tracer.wrap(lambda: None, Probe("m", "g", "fractional"))
    outer = tracer.open("api.solve")

    thread = threading.Thread(target=execute, args=([_Request(3), _Request(4)],))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(outer)

    by_name = {span.name: span for span in tracer.spans}
    exec_span, inner_span = by_name["service.exec"], by_name["fractional"]
    # The worker thread's stack starts empty: its root is not the main
    # thread's open span, but it belongs to the current op.
    assert exec_span.parent is None
    assert exec_span.op == 7
    assert exec_span.requests == (3, 4)
    assert inner_span.parent == exec_span.span_id
    assert inner_span.requests == (3, 4)
    assert inner_span.thread == exec_span.thread != outer.thread
    assert by_name["api.solve"].parent is None
    assert all(span.end >= span.start for span in tracer.spans)


def test_install_patches_every_importing_module_and_restores():
    import repro.core.kuhn_wattenhofer as pipeline
    import repro.core.rounding as rounding
    import repro.service.scheduler as scheduler

    original = rounding.round_fractional_solution
    tracer = Tracer([Probe("repro.core.rounding", "round_fractional_solution", "rounding")])
    tracer.install()
    try:
        for module in (rounding, pipeline, scheduler):
            assert module.round_fractional_solution is not original
            assert module.round_fractional_solution.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (rounding, pipeline, scheduler):
        assert module.round_fractional_solution is original


def test_install_wraps_classmethods_and_restores():
    from repro.simulator.bulk import BulkGraph

    raw = BulkGraph.__dict__["from_graph"]
    tracer = Tracer([Probe("repro.simulator.bulk:BulkGraph", "from_graph", "bulk.from_graph")])
    tracer.install()
    try:
        bulk = BulkGraph.from_graph(nx.path_graph(4))
    finally:
        tracer.uninstall()
    assert BulkGraph.__dict__["from_graph"] is raw
    assert bulk.n == 4
    assert [span.name for span in tracer.spans] == ["bulk.from_graph"]


# ---------------------------------------------------------------------- #
# Request-script generator                                                #
# ---------------------------------------------------------------------- #


def _fingerprint(pair):
    def request_key(request):
        graph = request["graph"]
        params = tuple(sorted((k, repr(v)) for k, v in request["params"].items()))
        return (sorted(graph.edges()), request["seed"], params)

    return [request_key(r) for r in pair.first], [request_key(r) for r in pair.second]


def test_script_pair_is_deterministic_per_seed():
    assert _fingerprint(scripts.script_pair(3, 0)) == _fingerprint(scripts.script_pair(3, 0))
    assert _fingerprint(scripts.script_pair(3, 0)) != _fingerprint(scripts.script_pair(4, 0))
    assert _fingerprint(scripts.script_pair(3, 0)) != _fingerprint(scripts.script_pair(3, 1))


def _identity(request):
    params = tuple(sorted((k, repr(v)) for k, v in request["params"].items()))
    return (id(request["graph"]), request["seed"], params)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_script_pair_shape_and_cache_hit_share(seed):
    for index in range(3):
        pair = scripts.script_pair(seed, index)
        per_graph = len(scripts.K_SWEEP) + scripts.FAULTS_PER_GRAPH
        assert len(pair.first) == scripts.FIRST_GRAPHS * per_graph + scripts.FIRST_REPEATS
        assert len(pair.second) == scripts.SECOND_GRAPHS * per_graph + scripts.REISSUED
        first = {_identity(r) for r in pair.first}
        assert len(first) == scripts.FIRST_GRAPHS * per_graph
        reissued = [r for r in pair.second if _identity(r) in first]
        assert len(reissued) == scripts.REISSUED
        share = len(reissued) / len(pair.requests)
        # A minority: the median request is a computed one.
        assert 0.15 <= share <= 0.25
        assert all(g.number_of_nodes() == scripts.NODES for g in pair.graphs)
        assert {nx.is_regular(g) for g in pair.graphs} == {True, False}


# ---------------------------------------------------------------------- #
# Correctness gates                                                       #
# ---------------------------------------------------------------------- #


def test_csr_domination_matches_definition():
    csr = Csr.from_networkx(nx.path_graph(5))
    assert csr.dominates([1, 3])
    assert csr.dominates([1, 4])
    assert not csr.dominates([0, 4])
    assert not csr.dominates([])
    assert not csr.dominates([7])


def test_csr_lemma1_bound_matches_program():
    from repro.lp.duality import lemma1_lower_bound

    graph = nx.gnp_random_graph(60, 0.08, seed=5)
    assert Csr.from_networkx(graph).lemma1_bound() == pytest.approx(
        lemma1_lower_bound(graph)
    )


def test_gnp_graph_is_simple_and_deterministic():
    first, u, v = gnp_graph(2000, 0.004, np.random.default_rng(9))
    second, _, _ = gnp_graph(2000, 0.004, np.random.default_rng(9))
    assert sorted(first.edges()) == sorted(second.edges())
    assert first.number_of_nodes() == 2000
    assert np.all(u < v)
    assert len(set(zip(u.tolist(), v.tolist()))) == first.number_of_edges() == u.size
    assert abs(u.size - 0.004 * 2000 * 1999 / 2) < 300


# ---------------------------------------------------------------------- #
# BENCHMARK.json agrees with what the runner prints                       #
# ---------------------------------------------------------------------- #


def test_benchmark_json_lists_the_printed_metrics():
    import json
    from pathlib import Path

    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.run import END_TO_END

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]
    computed = set(layer_metrics([], [], [], workers=1)) | {"trace.overhead_share"}
    assert computed == {name for name, *_ in PER_LAYER}
