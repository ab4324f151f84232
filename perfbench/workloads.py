"""The three benchmark workloads.

Each workload builds its inputs from the run's seed in :meth:`setup`,
prepares one op's input untimed in :meth:`prepare`, performs one timed op
in :meth:`run`, and checks every answer untimed in :meth:`check`.  Calls
into the program go through module attributes (``api.solve``), so the
tracer's wrappers see them when a traced op installs them.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import networkx as nx
import numpy as np

from repro import api
from repro.graphs import bulk as bulk_graphs
from repro.lp import duality, feasibility, formulation, solver
from repro.service import loadgen
from repro.service.server import SolveService
from repro.simulator.bulk import BulkGraph

from perfbench.checks import Csr
from perfbench.scripts import ScriptPair, script_pair, warm_request


@dataclass
class OpResult:
    """What one timed op produced."""

    #: Latencies (s) of the op's answered units: one per solve or
    #: certification, one per request of a service script pair.
    samples: list[float]
    attempted: int
    failed: int = 0
    stats: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    failures: list[str]
    ds_ratio: float


def gnp_graph(n: int, p: float, rng: np.random.Generator) -> tuple[nx.Graph, np.ndarray, np.ndarray]:
    """G(n, p): a Binomial edge count, then that many distinct uniform pairs."""
    m = int(rng.binomial(n * (n - 1) // 2, p))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        u, v = rng.integers(0, n, size=(2, int((m - keys.size) * 1.1) + 16))
        keep = u != v
        low, high = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
        keys = np.unique(np.concatenate([keys, low * n + high]))
    keys = np.sort(rng.choice(keys, size=m, replace=False))
    u, v = keys // n, keys % n
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    # The graph's objects are all reachable; collecting while adding them
    # only costs time.
    gc.disable()
    try:
        graph.add_edges_from(zip(u.tolist(), v.tolist()))
    finally:
        gc.enable()
    return graph, u, v


class KwLarge:
    """``solve("kuhn-wattenhofer", G(2·10⁵, 8/n))`` with every default.

    Ops solve the same graph under seeds ``a, a, b, b, ...``: each seed is
    solved twice in a row, and every run makes at least the first two ops,
    so every run checks that a seed repeats its set.  No more are forced:
    an op takes 8-12 s, and the runs of all workloads must fit the
    benchmark's time budget.
    """

    name = "kw-large"
    min_ops = 2
    setup_repeats = 3
    NODES = 200_000
    MEAN_DEGREE = 8.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graph = None
        self.results: list[tuple[int, np.ndarray]] = []

    def setup(self) -> None:
        self.graph = None
        rng = np.random.default_rng([self.seed, 1])
        self.graph, self._u, self._v = gnp_graph(
            self.NODES, self.MEAN_DEGREE / self.NODES, rng
        )

    def prepare(self, index: int) -> int:
        return self.seed * 1000 + index // 2

    def run(self, index: int, solve_seed: int) -> OpResult:
        start = time.perf_counter()
        report = api.solve("kuhn-wattenhofer", self.graph, seed=solve_seed)
        elapsed = time.perf_counter() - start
        members = np.fromiter(report.dominating_set, dtype=np.int64)
        members.sort()
        self.results.append((solve_seed, members))
        return OpResult(samples=[elapsed], attempted=1)

    def check(self) -> CheckResult:
        csr = Csr(self.NODES, self._u, self._v)
        bound = csr.lemma1_bound()
        failures = []
        first: dict[int, np.ndarray] = {}
        for solve_seed, members in self.results:
            if not csr.dominates(members):
                failures.append(f"seed {solve_seed}: set does not dominate")
            earlier = first.setdefault(solve_seed, members)
            if earlier is not members and not np.array_equal(earlier, members):
                failures.append(f"seed {solve_seed}: set differs between solves")
        sizes = [members.size for _, members in self.results]
        return CheckResult(failures, float(np.mean(sizes)) / bound if sizes else float("nan"))

    def close(self) -> None:
        self.graph = None


class Certify:
    """The ``repro certify --lp-method pdhg`` chain on a 141 × 141 grid CSR.

    Each op gets a fresh copy of the CSR so no op reuses a matrix an
    earlier op cached on its graph object.
    """

    name = "certify"
    min_ops = 2
    # Set-up takes 0.1-0.2 s, so one host stall moves a median of few.
    setup_repeats = 9
    SIDE = 141
    TOL = 1e-3
    WARM_SIDE = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.outcomes: list[dict] = []

    def setup(self) -> None:
        self.grid = bulk_graphs.bulk_grid_graph(self.SIDE, self.SIDE)
        # Pays one-time imports and lazy set-up before any timed op.
        self._certify(bulk_graphs.bulk_grid_graph(self.WARM_SIDE, self.WARM_SIDE), self.seed)

    def prepare(self, index: int) -> tuple[BulkGraph, int]:
        graph = BulkGraph(self.grid.indptr.copy(), self.grid.col.copy())
        return graph, self.seed * 1000 + index

    def _certify(self, graph: BulkGraph, solve_seed: int) -> dict:
        report = api.solve("kuhn-wattenhofer", graph, seed=solve_seed)
        lp = formulation.build_lp(graph)
        x = {node: 1.0 for node in report.dominating_set}
        primal_ok, _ = feasibility.check_primal_feasible(lp, x, tolerance=1e-9, return_violation=True)
        y = duality.lemma1_dual_solution(graph)
        dual_ok, _ = feasibility.check_dual_feasible(lp, y, tolerance=1e-9, return_violation=True)
        gap = duality.weak_duality_gap(lp, x, y) if dual_ok else None
        lp_solution = solver.solve_weighted_fractional_mds(
            graph, weights=None, method="pdhg", tol=self.TOL
        )
        return {
            "seed": solve_seed,
            "set": report.dominating_set,
            "primal_ok": bool(primal_ok),
            "dual_ok": bool(dual_ok),
            "weak_gap": gap,
            "certificate": lp_solution.certificate,
        }

    def run(self, index: int, prepared: tuple[BulkGraph, int]) -> OpResult:
        graph, solve_seed = prepared
        start = time.perf_counter()
        outcome = self._certify(graph, solve_seed)
        elapsed = time.perf_counter() - start
        self.outcomes.append(outcome)
        return OpResult(samples=[elapsed], attempted=1)

    def check(self) -> CheckResult:
        upper = self.grid.row < self.grid.col
        csr = Csr(self.grid.n, self.grid.row[upper], self.grid.col[upper])
        failures = []
        ratios = []
        for outcome in self.outcomes:
            certificate = outcome["certificate"]
            label = f"seed {outcome['seed']}"
            if not (outcome["primal_ok"] and outcome["dual_ok"] and outcome["weak_gap"] is not None):
                failures.append(f"{label}: primal or Lemma-1 dual check failed")
            if certificate is None or not certificate.certified or certificate.gap > self.TOL:
                failures.append(f"{label}: no certificate within tol {self.TOL}")
                continue
            if not csr.dominates(outcome["set"]):
                failures.append(f"{label}: set does not dominate")
            ratios.append(len(outcome["set"]) / certificate.dual_objective)
        return CheckResult(failures, float(np.mean(ratios)) if ratios else float("nan"))

    def close(self) -> None:
        self.grid = None


class ServiceBurst:
    """Request-script pairs through one long-lived :class:`SolveService`.

    Each op submits a pair's first script whole through ``solve_many`` and
    awaits it, then does the same with the second script.  A request's
    latency runs from its script's submission to its answer.
    """

    name = "service-burst"
    min_ops = 2
    setup_repeats = 9
    TIMEOUT_S = 60.0
    WORKERS = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop: asyncio.AbstractEventLoop | None = None
        self.service: SolveService | None = None
        self.served: list[tuple[dict, Any]] = []

    def setup(self) -> None:
        self.close()
        self.loop = asyncio.new_event_loop()
        self.service = SolveService(workers=self.WORKERS)
        self.loop.run_until_complete(self.service.start())
        self._latencies: list[float] = []
        self._script_start = 0.0
        finish = self.service._finish

        async def timed_finish(outcome, timeout):
            report = await finish(outcome, timeout)
            self._latencies.append(time.perf_counter() - self._script_start)
            return report

        # Completion times per request are not exposed by solve_many, so
        # the benchmark records them where each request's wait ends.
        self.service._finish = timed_finish
        self.loop.run_until_complete(self.service.solve_many([warm_request(self.seed)]))

    def prepare(self, index: int) -> ScriptPair:
        return script_pair(self.seed, index)

    async def _script(self, requests: list[dict]) -> list[Any]:
        self._script_start = time.perf_counter()
        return await self.service.solve_many(
            requests, timeout=self.TIMEOUT_S, return_exceptions=True
        )

    def run(self, index: int, pair: ScriptPair) -> OpResult:
        before = self.service.stats()
        self._latencies = []
        first = self.loop.run_until_complete(self._script(pair.first))
        second = self.loop.run_until_complete(self._script(pair.second))
        after = self.service.stats()
        samples = list(self._latencies)
        failed = 0
        for request, answer in zip(pair.requests, first + second):
            if isinstance(answer, BaseException):
                failed += 1
            else:
                self.served.append((request, answer))
        return OpResult(
            samples=samples,
            attempted=len(pair.requests),
            failed=failed,
            stats=_stats_delta(before, after),
        )

    def check(self) -> CheckResult:
        failures = [
            f"parity: {m['kind']} seed {m['seed']}"
            for m in parallel_parity(self.served, self.WORKERS)
        ]
        checked: dict[int, tuple[Csr, float]] = {}
        sizes = bounds = 0.0
        for request, report in self.served:
            graph = request["graph"]
            if id(graph) not in checked:
                csr = Csr.from_networkx(graph)
                checked[id(graph)] = (csr, csr.lemma1_bound())
            csr, bound = checked[id(graph)]
            if not csr.dominates(report.dominating_set):
                failures.append(f"seed {request['seed']}: set does not dominate")
            sizes += len(report.dominating_set)
            bounds += bound
        # A ratio of means: one graph with a loose bound moves it less.
        return CheckResult(failures, sizes / bounds if bounds else float("nan"))

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None


@dataclass(frozen=True)
class Answer:
    """The parts of a service answer that the parity check compares."""

    dominating_set: frozenset
    objective: float
    rounds: int | None
    messages: int | None


def _parity_mismatches(chunk: list[tuple[dict, Answer]]) -> list[dict]:
    requests = [request for request, _ in chunk]
    answers = [answer for _, answer in chunk]
    return loadgen.verify_parity(requests, answers)["mismatches"]


def parallel_parity(served: list[tuple[dict, Any]], processes: int) -> list[dict]:
    """``verify_parity`` over every served request, split across processes.

    Requests are grouped by graph, so each group's repeats are compared in
    the same process; the direct re-solves are untimed.
    """
    chunks: list[list[tuple[dict, Answer]]] = [[] for _ in range(processes)]
    slot: dict[int, int] = {}
    for request, report in served:
        index = slot.setdefault(id(request["graph"]), len(slot) % processes)
        answer = Answer(report.dominating_set, report.objective, report.rounds, report.messages)
        chunks[index].append((request, answer))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=processes, mp_context=context) as pool:
        results = list(pool.map(_parity_mismatches, [c for c in chunks if c]))
    return [mismatch for result in results for mismatch in result]


def _stats_delta(before: dict, after: dict) -> dict:
    cache_before, cache_after = before["cache"], after["cache"]
    sched_before, sched_after = before["scheduler"], after["scheduler"]
    return {
        "cache_hits": cache_after["hits"] - cache_before["hits"],
        "cache_lookups": (cache_after["hits"] + cache_after["misses"])
        - (cache_before["hits"] + cache_before["misses"]),
        "inflight_joins": after["inflight_joins"] - before["inflight_joins"],
        "timeouts": after["timeouts"] - before["timeouts"],
        "failed": after["failed"] - before["failed"],
        **{
            key: sched_after[key] - sched_before[key]
            for key in (
                "batches",
                "solo_requests",
                "coalesced_batches",
                "coalesced_requests",
                "engine_executions",
                "failures",
                "skipped",
            )
        },
    }


WORKLOADS = {cls.name: cls for cls in (KwLarge, ServiceBurst, Certify)}
