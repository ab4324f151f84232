"""Which functions the traced run wraps, and the per-layer metrics.

Every ``*_s`` metric is inclusive seconds per op unit (a solve on
``kw-large``, a certification on ``certify``, an answered request on
``service-burst``) spent in the outermost span of that layer; ``*_calls``
and the exact counts are per op unit too, except the service scheduler
counts, which are per script pair.  A layer a workload never reaches
reads 0.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from perfbench.spans import Probe, Span, children_of, outermost, self_time


def _backend(span: Span, args, kwargs, result) -> None:
    span.attrs["backend"] = result


def _fractional(span: Span, args, kwargs, result) -> None:
    results = list(result.values()) if isinstance(result, dict) else [result]
    # A multi-k snapshot run executes its largest k once for the group.
    span.attrs["rounds"] = max(r.rounds for r in results)
    span.attrs["messages"] = max(r.metrics.total_messages for r in results)


def _rounding(span: Span, args, kwargs, result) -> None:
    span.attrs["fallback"] = len(result.joined_as_fallback)
    span.attrs["size"] = len(result.dominating_set)


def _lp_solve(span: Span, args, kwargs, result) -> None:
    lp = args[0] if args else kwargs["lp"]
    span.attrs["iterations"] = result.certificate.iterations
    span.attrs["nnz"] = int(lp.bulk.col.size + lp.bulk.n)


def _one_request(args) -> list:
    return [args[0]]


def _request_group(args) -> list:
    return list(args[0])


PROBES = (
    Probe("repro.api", "solve", "api.solve"),
    Probe("repro.api", "resolve_backend", "api.resolve_backend", annotate=_backend),
    Probe("repro.core.kuhn_wattenhofer", "kuhn_wattenhofer_dominating_set", "core.pipeline"),
    Probe("repro.graphs.utils", "validate_simple_graph", "graphs.validate"),
    Probe("repro.simulator.bulk:BulkGraph", "from_graph", "bulk.from_graph"),
    Probe("repro.simulator.sharded:ShardedDriver", "__init__", "sharded.driver"),
    Probe("repro.simulator.sharded:ShardedDriver", "close", "sharded.driver"),
    Probe("repro.core.fractional", "approximate_fractional_mds", "fractional", annotate=_fractional),
    Probe("repro.core.fractional", "approximate_fractional_mds_multi_k", "fractional", annotate=_fractional),
    Probe(
        "repro.core.fractional_unknown",
        "approximate_fractional_mds_unknown_delta",
        "fractional",
        annotate=_fractional,
    ),
    Probe(
        "repro.core.fractional_unknown",
        "approximate_fractional_mds_unknown_delta_multi_k",
        "fractional",
        annotate=_fractional,
    ),
    Probe("repro.core.rounding", "round_fractional_solution", "rounding", annotate=_rounding),
    Probe("repro.core.rounding", "solution_feasibility", "rounding.feasibility"),
    Probe("repro.domset.validation", "is_dominating_set", "domset.validate"),
    Probe("repro.domset.repair", "repair_dominating_set", "domset.repair"),
    Probe("repro.simulator.fault_schedule:FaultSpec", "materialize", "faults.materialize"),
    Probe("repro.service.keys", "graph_fingerprint", "service.keys"),
    Probe("repro.service.keys", "cache_key", "service.keys"),
    Probe("repro.service.keys", "coalesce_key", "service.keys"),
    Probe("repro.service.scheduler", "_solve_request", "service.exec", serves=_one_request),
    Probe(
        "repro.service.scheduler",
        "_coalesced_pipeline_reports",
        "service.exec",
        serves=_request_group,
    ),
    Probe("repro.lp.formulation", "build_lp", "lp.build"),
    Probe("repro.lp.sparse", "build_lp_sparse", "lp.build"),
    Probe("repro.lp.sparse", "neighborhood_csr_matrix", "lp.build"),
    Probe("repro.lp.firstorder", "solve_covering_lp", "lp.solve", annotate=_lp_solve),
    Probe("repro.lp.firstorder", "estimate_operator_norm", "lp.operator_norm"),
    Probe("repro.lp.duality", "lemma1_dual_solution", "lp.checks"),
    Probe("repro.lp.duality", "weak_duality_gap", "lp.checks"),
    Probe("repro.lp.feasibility", "check_primal_feasible", "lp.checks"),
    Probe("repro.lp.feasibility", "check_dual_feasible", "lp.checks"),
)

#: Every per-layer metric: (name, unit, better, the end-to-end metric it
#: should move on which workload).  BENCHMARK.json lists the first three.
KW, SVC, CERT = "kw-large", "service-burst", "certify"
PER_LAYER = (
    ("api.solve_s", "s", "lower", f"op_p50_s on {KW} and {SVC}"),
    ("api.self_s", "s", "lower", f"op_p50_s on {KW} and {SVC} (dispatch, params, packaging)"),
    ("api.simulated_share", "ratio", "lower", f"op_p50_s, requests_per_s on {SVC}"),
    ("api.sharded_share", "ratio", "lower", f"op_p50_s, peak_rss_mb on {KW}"),
    ("graphs.validate_s", "s", "lower", f"op_p50_s on {KW}; none on {CERT}"),
    ("graphs.validate_calls", "count", "lower", f"op_p50_s on {KW}; none on {CERT}"),
    ("bulk.from_graph_s", "s", "lower", f"op_p50_s, peak_rss_mb on {KW}"),
    ("bulk.from_graph_calls", "count", "lower", f"op_p50_s, peak_rss_mb on {KW}"),
    ("sharded.driver_s", "s", "lower", f"op_p50_s, peak_rss_mb on {KW}"),
    ("fractional.busy_s", "s", "lower", f"op_p50_s on {KW}; a small share on {CERT}"),
    ("fractional.rounds", "count", "lower", f"op_p50_s on {KW}"),
    ("fractional.edge_visits_per_s", "1/s", "higher", f"op_p50_s on {KW}"),
    ("rounding.busy_s", "s", "lower", f"op_p50_s on {KW}"),
    ("rounding.feasibility_s", "s", "lower", f"op_p50_s on {KW}"),
    ("rounding.fallback_share", "ratio", "lower", f"ds_ratio on {KW}"),
    ("domset.validate_s", "s", "lower", f"op_p50_s on {KW}; op_tail_s on {SVC}"),
    ("domset.repair_s", "s", "lower", f"op_tail_s on {SVC}"),
    ("faults.materialize_s", "s", "lower", f"op_tail_s on {SVC}"),
    ("service.keys_s", "s", "lower", f"requests_per_s on {SVC}"),
    ("service.cache_hit_rate", "ratio", "higher", f"requests_per_s on {SVC}"),
    ("service.inflight_joins", "count", "higher", f"requests_per_s on {SVC}"),
    ("service.queue_wait_p50_s", "s", "lower", f"op_p50_s, op_tail_s on {SVC}"),
    ("service.exec_busy_share", "ratio", "lower", f"requests_per_s, op_tail_s on {SVC}"),
    ("service.coalescing_factor", "ratio", "higher", f"requests_per_s, op_p50_s on {SVC}"),
    ("service.batch_size_mean", "count", "higher", f"requests_per_s on {SVC}"),
    ("service.engine_executions", "count", "lower", f"requests_per_s, op_p50_s on {SVC}"),
    ("lp.build_s", "s", "lower", f"op_p50_s on {CERT}; none elsewhere"),
    ("lp.solve_s", "s", "lower", f"op_p50_s on {CERT}; none elsewhere"),
    ("lp.iterations", "count", "lower", f"op_p50_s on {CERT}; none elsewhere"),
    ("lp.operator_norm_s", "s", "lower", f"op_p50_s on {CERT}; none elsewhere"),
    ("lp.nnz_per_s", "1/s", "higher", f"op_p50_s on {CERT}; none elsewhere"),
    ("lp.checks_s", "s", "lower", f"op_p50_s on {CERT}"),
    ("trace.overhead_share", "ratio", "lower", "none: the traced run's cost over the untraced one"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Span],
    traced_ops: Sequence,
    traced_walls: Sequence[float],
    workers: int,
) -> dict[str, float]:
    """Per-layer metrics from the spans of a run's traced ops.

    ``traced_ops`` are the :class:`~perfbench.workloads.OpResult` of the
    traced ops and ``traced_walls`` their wall times; ``workers`` is the
    service executor width (for the busy share).
    """
    units = sum(len(op.samples) for op in traced_ops)
    pairs = len(traced_ops)

    def busy(name: str, under: str | None = None) -> float:
        return _ratio(sum(s.duration for s in outermost(spans, name, under)), units)

    def calls(name: str) -> float:
        return _ratio(sum(1 for s in spans if s.name == name), units)

    def total(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in outermost(spans, name))

    children = children_of(spans)
    api_spans = outermost(spans, "api.solve")
    # Backend resolution is dispatch, which the API's own time includes.
    api_children = {
        parent: [c for c in kids if c.name != "api.resolve_backend"]
        for parent, kids in children.items()
    }
    resolved = [s.attrs.get("backend") for s in outermost(spans, "api.resolve_backend")]
    fractional = outermost(spans, "fractional")
    lp_solves = outermost(spans, "lp.solve")
    exec_spans = outermost(spans, "service.exec")
    waits = [
        span.start - submitted
        for span in exec_spans
        for submitted in span.attrs.get("submitted_at", ())
    ]
    stats = [op.stats for op in traced_ops]

    def stat(key: str) -> int:
        return sum(s.get(key, 0) for s in stats)

    executed = stat("solo_requests") + stat("coalesced_requests")
    return {
        "api.solve_s": busy("api.solve"),
        "api.self_s": _ratio(sum(self_time(s, api_children) for s in api_spans), units),
        "api.simulated_share": _ratio(resolved.count("simulated"), len(resolved)),
        "api.sharded_share": _ratio(resolved.count("sharded"), len(resolved)),
        "graphs.validate_s": busy("graphs.validate"),
        "graphs.validate_calls": calls("graphs.validate"),
        "bulk.from_graph_s": busy("bulk.from_graph"),
        "bulk.from_graph_calls": calls("bulk.from_graph"),
        "sharded.driver_s": busy("sharded.driver"),
        "fractional.busy_s": busy("fractional"),
        "fractional.rounds": _ratio(total("fractional", "rounds"), units),
        "fractional.edge_visits_per_s": _ratio(
            total("fractional", "messages"), sum(s.duration for s in fractional)
        ),
        "rounding.busy_s": busy("rounding"),
        "rounding.feasibility_s": busy("rounding.feasibility"),
        "rounding.fallback_share": _ratio(total("rounding", "fallback"), total("rounding", "size")),
        "domset.validate_s": busy("domset.validate"),
        "domset.repair_s": busy("domset.repair"),
        "faults.materialize_s": busy("faults.materialize"),
        "service.keys_s": busy("service.keys"),
        "service.cache_hit_rate": _ratio(stat("cache_hits"), stat("cache_lookups")),
        "service.inflight_joins": _ratio(stat("inflight_joins"), pairs),
        "service.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "service.exec_busy_share": _ratio(
            sum(s.duration for s in exec_spans), workers * sum(traced_walls)
        ),
        "service.coalescing_factor": _ratio(executed, stat("engine_executions")),
        "service.batch_size_mean": _ratio(
            executed + stat("failures") + stat("skipped"), stat("batches")
        ),
        "service.engine_executions": _ratio(stat("engine_executions"), pairs),
        "lp.build_s": busy("lp.build"),
        "lp.solve_s": busy("lp.solve"),
        "lp.iterations": _ratio(total("lp.solve", "iterations"), units),
        "lp.operator_norm_s": busy("lp.operator_norm"),
        "lp.nnz_per_s": _ratio(
            sum(2 * s.attrs["iterations"] * s.attrs["nnz"] for s in lp_solves),
            sum(s.duration for s in lp_solves),
        ),
        "lp.checks_s": busy("lp.checks", under="lp.solve"),
    }
