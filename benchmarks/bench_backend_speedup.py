"""Backend benchmark: vectorized bulk-synchronous engine vs. the simulator.

The vectorized backend exists so that sweeps can scale past the few
thousand nodes at which per-message simulation becomes the bottleneck.
This benchmark measures wall-clock time of Algorithm 2 (k = 2) and
Algorithm 3 (k = 2 and k = 4) on every ``graph_suite("large")`` instance
(n ≥ 2000) under both backends, checks on every run that the two agree
bit for bit -- x-vector, objective and modeled metrics -- and asserts the
speedup the backend was built to deliver (≥ 10×).

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI smoke runs) substitutes the
medium suite (n ≈ 250-400) and a correspondingly relaxed speedup floor so
the benchmark stays a sub-minute sanity check.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.tables import render_table
from repro.core.fractional import approximate_fractional_mds
from repro.core.fractional_unknown import approximate_fractional_mds_unknown_delta
from repro.graphs.generators import graph_suite
from repro.graphs.utils import max_degree
from repro.simulator.sharded import available_cpu_count

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
SCALE = "medium" if QUICK else "large"
#: Minimum acceptable (simulated / vectorized) wall-clock ratio.  The large
#: instances comfortably exceed 10×.  Quick mode (CI smoke on shared,
#: noisy runners, with millisecond-scale vectorized timings) reports the
#: ratios but only gates on result equivalence.
MIN_SPEEDUP = None if QUICK else 10.0

#: (algorithm, solver, k) of every run made on each instance.
RUNS = (
    ("algorithm2", approximate_fractional_mds, 2),
    ("algorithm3", approximate_fractional_mds_unknown_delta, 2),
    ("algorithm3", approximate_fractional_mds_unknown_delta, 4),
)


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


@pytest.mark.benchmark(group="backend-speedup")
def test_backend_speedup(benchmark, bench_seed, emit_table, emit_json):
    """Vectorized Algorithms 2/3 match the simulator bit for bit, ≥ 10× faster."""
    rows = []
    suite = sorted(graph_suite(SCALE, seed=bench_seed).items())
    for name, graph in suite:
        for algorithm, solve, k in RUNS:
            simulated, simulated_time = _timed(
                lambda: solve(graph, k=k, seed=bench_seed)
            )
            vectorized, vectorized_time = _timed(
                lambda: solve(graph, k=k, seed=bench_seed, backend="vectorized")
            )
            rows.append(
                {
                    "instance": name,
                    "algorithm": algorithm,
                    "k": k,
                    "n": graph.number_of_nodes(),
                    "delta": max_degree(graph),
                    "objective_match": simulated.objective == vectorized.objective,
                    "x_match": simulated.x == vectorized.x,
                    "metrics_match": simulated.metrics == vectorized.metrics,
                    "rounds": simulated.rounds,
                    "simulated_s": round(simulated_time, 3),
                    "vectorized_s": round(vectorized_time, 4),
                    "speedup": round(simulated_time / vectorized_time, 1),
                }
            )

    emit_table(
        "backend_speedup",
        render_table(
            rows,
            title=(
                f"Backend speedup: Algorithms 2/3, {SCALE} suite "
                f"({'quick' if QUICK else 'full'} mode, "
                f"{available_cpu_count()} usable CPU(s))"
            ),
        ),
    )
    emit_json(
        "backend_speedup",
        {
            "runs": [{"algorithm": algorithm, "k": k} for algorithm, _, k in RUNS],
            "scale": SCALE,
            "quick": QUICK,
            "usable_cpus": available_cpu_count(),
            "backends": ["simulated", "vectorized"],
            "instances": rows,
        },
    )

    for row in rows:
        label = f"{row['algorithm']} k={row['k']} on {row['instance']}"
        # Bitwise-identical results on every run of the suite.
        assert row["objective_match"], f"objective mismatch: {label}"
        assert row["x_match"], f"x-vector mismatch: {label}"
        assert row["metrics_match"], f"metrics mismatch: {label}"
        if MIN_SPEEDUP is not None:
            assert row["speedup"] >= MIN_SPEEDUP, (
                f"{label}: speedup {row['speedup']}× below the "
                f"{MIN_SPEEDUP}× floor"
            )

    graph = suite[0][1]
    benchmark(
        lambda: approximate_fractional_mds(
            graph, k=2, seed=bench_seed, backend="vectorized"
        )
    )
