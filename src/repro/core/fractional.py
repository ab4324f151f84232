"""Algorithm 2 of the paper: distributed LP_MDS approximation with Δ known.

Every node knows the maximum degree Δ of the graph.  The algorithm runs two
nested loops of k iterations each; in every inner-loop iteration each node
performs two message exchanges (colours, then x-values), for a total of
``2k²`` synchronous rounds.  Theorem 4 guarantees that the produced x-vector
is a feasible solution of LP_MDS whose objective is at most
``k·(Δ+1)^{2/k}`` times the fractional optimum.

The implementation follows the pseudocode line by line; the per-line
correspondence is annotated in :meth:`Algorithm2Program.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.core.vectorized import (
    BACKENDS,
    SHARDED,
    SIMULATED,
    VECTORIZED,
    CapabilityError,
    algorithm2_exchanges,
    prepare_bulk_input,
    run_algorithm2_bulk,
    run_algorithm2_bulk_faulted,
    run_algorithm2_bulk_multi_k,
    validate_backend,
)
from repro.simulator.columnar import ColumnarTrace
from repro.graphs.utils import max_degree
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSchedule, FaultSpec, FaultSummary
from repro.simulator.message import Message
from repro.simulator.metrics import ExecutionMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext
from repro.simulator.runtime import SynchronousRunner
from repro.simulator.script import GeneratorNodeProgram
from repro.simulator.trace import ExecutionTrace

WHITE = "white"
GRAY = "gray"


@dataclass(frozen=True)
class FractionalResult:
    """Output of a distributed fractional dominating set execution.

    Attributes
    ----------
    x:
        Per-node fractional values (the LP_MDS solution).
    objective:
        Σ_i x_i, the fractional objective.
    rounds:
        Number of synchronous rounds executed.
    metrics:
        Full message/round metrics of the execution.
    trace:
        Execution trace (only populated when tracing was requested).
    k:
        The locality parameter the algorithm was run with.
    max_degree:
        The maximum degree Δ of the input graph.
    x_array:
        The same values as a float array indexed like the CSR's sorted
        nodes, on the bulk backends (``None`` on the simulated one).  The
        pipeline hands it to the feasibility check and the rounding.
    """

    x: dict[Hashable, float]
    objective: float
    rounds: int
    metrics: ExecutionMetrics
    trace: ExecutionTrace | ColumnarTrace
    k: int
    max_degree: int
    #: What the fault schedule did to this run (``None`` for fault-free runs).
    faults: FaultSummary | None = None
    x_array: np.ndarray | None = field(default=None, repr=False, compare=False)


class Algorithm2Program(GeneratorNodeProgram):
    """Per-node program implementing Algorithm 2 (Δ known).

    Parameters
    ----------
    k:
        The locality parameter; the algorithm uses 2k² rounds.
    delta:
        The global maximum degree Δ, assumed known by every node (this is
        exactly the extra knowledge Algorithm 2 requires compared to
        Algorithm 3).
    """

    def __init__(self, k: int, delta: int) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("k must be at least 1")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.k = k
        self.delta = delta
        # Local algorithm state, exposed for tests and invariant monitors.
        self.x = 0.0
        self.color = WHITE
        self.dynamic_degree = 0

    # ------------------------------------------------------------------ #

    def run(self, ctx: NodeContext):
        k = self.k
        base = self.delta + 1.0

        # Line 1: x_i := 0; δ̃(v_i) := δ_i + 1.
        self.x = 0.0
        self.dynamic_degree = ctx.degree + 1
        self.color = WHITE
        coverage = 0.0  # running value of Σ_{j ∈ N_i} x_j
        round_counter = 0

        # Line 2: outer loop over ℓ = k-1 .. 0.
        for ell in range(k - 1, -1, -1):
            self.trace_event(
                round_counter,
                ctx.node_id,
                "outer-loop-start",
                ell=ell,
                dynamic_degree=self.dynamic_degree,
                x=self.x,
                color=self.color,
            )
            # Line 4: inner loop over m = k-1 .. 0.
            for m in range(k - 1, -1, -1):
                # Lines 6-8: active nodes raise their x-value.
                active = self.dynamic_degree >= base ** (ell / k)
                if active:
                    self.x = max(self.x, 1.0 / base ** (m / k))
                self.trace_event(
                    round_counter,
                    ctx.node_id,
                    "inner-loop",
                    ell=ell,
                    m=m,
                    active=active,
                    x=self.x,
                    color=self.color,
                    dynamic_degree=self.dynamic_degree,
                )

                # Lines 9-12 of the printed pseudocode exchange colours
                # before x-values.  That ordering leaves δ̃ one iteration
                # stale relative to the colours, which contradicts the
                # proofs of Lemmas 2 and 4 (and the journal version's own
                # Algorithm 3, which refreshes δ̃ *after* the colour
                # update).  We therefore execute the two exchanges in the
                # proof-consistent order -- x-values first, colours second
                # -- keeping the round count at exactly two per iteration.

                # Exchange x-values; colour gray once the closed
                # neighbourhood is covered (paper lines 11-12).
                inbox = yield ctx.send_all(self.x, tag="x-value")
                round_counter += 1
                neighbor_x = self.inbox_by_sender(inbox)
                coverage = self.x + sum(neighbor_x.values())
                if coverage >= 1.0:
                    if self.color == WHITE:
                        self.trace_event(
                            round_counter, ctx.node_id, "colored-gray", ell=ell, m=m
                        )
                    self.color = GRAY

                # Exchange colours; recompute the dynamic degree δ̃
                # (paper lines 9-10).
                inbox = yield ctx.send_all(self.color == WHITE, tag="color")
                round_counter += 1
                colors = self.inbox_by_sender(inbox)
                white_neighbors = sum(1 for is_white in colors.values() if is_white)
                self.dynamic_degree = white_neighbors + (1 if self.color == WHITE else 0)

        self._result = self.x
        return self.x


def _package_fractional(bulk, values, metrics, k, true_delta, trace=None, faults=None):
    """Build a :class:`FractionalResult` from bulk-engine output arrays.

    The x dict is filled in ``bulk.nodes`` order via ``tolist()`` (Python
    floats, bit-identical to per-value ``float()`` casts), so the
    insertion-ordered ``sum`` over its values matches the per-node
    packaging loop this replaces.
    """
    x = dict(zip(bulk.nodes, values.tolist()))
    return FractionalResult(
        x=x,
        objective=float(sum(x.values())),
        rounds=metrics.round_count,
        metrics=metrics,
        trace=trace if trace is not None else ExecutionTrace(),
        k=k,
        max_degree=true_delta,
        faults=faults,
        x_array=values,
    )


def _resolve_fault_schedule(
    faults: "FaultSpec | None",
    schedule: "FaultSchedule | None",
    csr: BulkGraph,
    exchanges: int,
    salt: int = 0,
) -> "FaultSchedule | None":
    """Materialize one phase's fault schedule (or pass a prebuilt one through).

    The pipeline materializes its phases' schedules itself (to chain the
    crash state between them) and hands them down via the private
    ``_schedule`` parameters; standalone callers pass a :class:`FaultSpec`
    and get the default ``salt=0`` stream.
    """
    if schedule is not None:
        return schedule
    if faults is None:
        return None
    if not isinstance(faults, FaultSpec):
        raise TypeError("faults must be a FaultSpec")
    return faults.materialize(csr, rounds=exchanges, salt=salt)


def _sharded_driver(bulk, shards, executor):
    """Reuse a pipeline-provided :class:`ShardedDriver` or open a new one.

    Returns ``(driver, owns)`` -- ``owns`` tells the caller whether it is
    responsible for closing the driver.
    """
    if executor is not None:
        return executor, False
    from repro.simulator.sharded import ShardedDriver

    return ShardedDriver(bulk, shards), True


def _vectorized_fractional_result(bulk, k, collect_trace, run_bulk, true_delta):
    """Shared vectorized-backend dispatch for Algorithms 2 and 3.

    ``run_bulk`` is the bulk runner bound to its algorithm parameters; it
    receives the :class:`BulkGraph` and an optional
    :class:`~repro.simulator.columnar.ColumnarTrace` and returns
    ``(values, metrics)``.  When ``collect_trace`` is set the engine fills
    a columnar trace (the per-node programs' events in structure-of-arrays
    form) that lands on ``FractionalResult.trace``.
    """
    trace = ColumnarTrace() if collect_trace else None
    values, metrics = run_bulk(bulk, trace)
    return _package_fractional(bulk, values, metrics, k, true_delta, trace=trace)


def _program_factory(k: int, delta: int):
    """Build the per-node program factory for Algorithm 2."""

    def factory(node_id: int, network: Network) -> Algorithm2Program:
        return Algorithm2Program(k=k, delta=delta)

    return factory


def approximate_fractional_mds(
    graph: nx.Graph,
    k: int,
    seed: int | None = None,
    collect_trace: bool = False,
    delta: int | None = None,
    backend: str = SIMULATED,
    shards: int | None = None,
    faults: FaultSpec | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
    _schedule: FaultSchedule | None = None,
) -> FractionalResult:
    """Run Algorithm 2 on a graph and return its fractional solution.

    Parameters
    ----------
    graph:
        The network graph (undirected, simple).
    k:
        Locality parameter; the algorithm uses 2k² rounds and guarantees a
        k(Δ+1)^{2/k} approximation of LP_MDS (Theorem 4).
    seed:
        Seed for per-node randomness.  Algorithm 2 is deterministic, so the
        seed only matters for reproducibility bookkeeping.
    collect_trace:
        Record a full execution trace (needed by the invariant monitors and
        the Figure-1 experiment).  The simulated backend records an
        event-based :class:`~repro.simulator.trace.ExecutionTrace`; the
        vectorized backend records the same information as a
        :class:`~repro.simulator.columnar.ColumnarTrace` (losslessly
        convertible to events) at O(rounds · n) array cost.
    delta:
        Override for the Δ value distributed to the nodes.  Defaults to the
        true maximum degree of ``graph``; passing a larger value emulates
        nodes knowing only an upper bound on Δ.
    backend:
        ``"simulated"`` executes per-node message-passing programs
        (message-level fidelity, traces, fault models); ``"vectorized"``
        computes the identical x-vector with whole-graph array operations
        (orders of magnitude faster on large graphs); ``"sharded"`` runs
        the same vectorized kernel as multiprocess bulk-synchronous
        supersteps over hash-partitioned CSR slabs -- bitwise identical
        again.
    shards:
        Worker-process count for the sharded backend (``None`` lets the
        engine pick one per usable CPU).  Ignored by the other backends.
    faults:
        Optional :class:`~repro.simulator.fault_schedule.FaultSpec`
        injecting message loss and crash-stop failures.  All three
        backends consume the *same* materialized schedule and produce
        bitwise-identical x-vectors; the applied pattern is reported on
        ``FractionalResult.faults``.  Tracing under faults is only
        supported on the simulated backend.

    ``graph`` may also be a CSR :class:`~repro.simulator.bulk.BulkGraph`
    (e.g. from :mod:`repro.graphs.bulk`), in which case a bulk backend
    (vectorized or sharded) is required -- no networkx graph is ever
    materialised.

    Returns
    -------
    FractionalResult
    """
    validate_backend(backend, supported=BACKENDS)
    faulted = faults is not None or _schedule is not None
    bulk = prepare_bulk_input(
        graph, backend, _bulk, build=backend != SIMULATED or faulted
    )
    if k < 1:
        raise ValueError("k must be at least 1")
    true_delta = max_degree(bulk if bulk is not None else graph)
    if delta is None:
        delta = true_delta
    elif delta < true_delta:
        raise ValueError(
            f"delta={delta} is smaller than the true maximum degree {true_delta}"
        )

    if faulted:
        if collect_trace and backend != SIMULATED:
            raise CapabilityError(
                "approximate_fractional_mds",
                "collect_trace under fault injection",
                backend,
                (SIMULATED,),
            )
        exchanges = algorithm2_exchanges(k)
        schedule = _resolve_fault_schedule(faults, _schedule, bulk, exchanges)
        summary = schedule.summary(exchanges)

        if backend == SHARDED:
            driver, owns = _sharded_driver(bulk, shards, _executor)
            try:
                values, metrics = driver.run_algorithm2_faulted(k, delta, schedule)
            finally:
                if owns:
                    driver.close()
            return _package_fractional(
                bulk, values, metrics, k, true_delta, faults=summary
            )

        if backend == VECTORIZED:
            values, metrics = run_algorithm2_bulk_faulted(bulk, k, delta, schedule)
            return _package_fractional(
                bulk, values, metrics, k, true_delta, faults=summary
            )

        network = Network(graph, _program_factory(k, delta), seed=seed)
        runner = SynchronousRunner(
            network,
            fault_model=schedule.fault_model(bulk.nodes),
            max_rounds=2 * k * k + 10,
            collect_trace=collect_trace,
        )
        execution = runner.run()
        if not execution.terminated:
            raise RuntimeError(
                "Algorithm 2 did not terminate within its round budget"
            )
        # Crashed programs never reach result(); their frozen in-place
        # state carries the x-value they died with.
        x = {node: float(network.program(node).x) for node in bulk.nodes}
        return FractionalResult(
            x=x,
            objective=float(sum(x.values())),
            rounds=execution.rounds,
            metrics=execution.metrics,
            trace=execution.trace,
            k=k,
            max_degree=true_delta,
            faults=summary,
        )

    if backend == SHARDED:
        if collect_trace:
            raise CapabilityError(
                "approximate_fractional_mds",
                "collect_trace",
                SHARDED,
                (SIMULATED, VECTORIZED),
            )
        driver, owns = _sharded_driver(bulk, shards, _executor)
        try:
            values, metrics = driver.run_algorithm2_multi_k((k,), delta)[k]
        finally:
            if owns:
                driver.close()
        return _package_fractional(bulk, values, metrics, k, true_delta)

    if backend == VECTORIZED:
        return _vectorized_fractional_result(
            bulk,
            k,
            collect_trace,
            lambda bulk, trace: run_algorithm2_bulk(bulk, k=k, delta=delta, trace=trace),
            true_delta,
        )

    network = Network(graph, _program_factory(k, delta), seed=seed)
    runner = SynchronousRunner(
        network,
        max_rounds=2 * k * k + 10,
        collect_trace=collect_trace,
    )
    execution = runner.run()
    if not execution.terminated:
        raise RuntimeError("Algorithm 2 did not terminate within its round budget")

    x = {node: float(value) for node, value in execution.results.items()}
    return FractionalResult(
        x=x,
        objective=float(sum(x.values())),
        rounds=execution.rounds,
        metrics=execution.metrics,
        trace=execution.trace,
        k=k,
        max_degree=true_delta,
    )


def approximate_fractional_mds_multi_k(
    graph: nx.Graph,
    k_values: "Sequence[int]",
    seed: int | None = None,
    delta: int | None = None,
    backend: str = SIMULATED,
    shards: int | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
) -> dict[int, FractionalResult]:
    """Run Algorithm 2 for a whole k sweep in one call.

    On the vectorized backend this dispatches to the snapshot engine
    (:func:`repro.core.vectorized.run_algorithm2_bulk_multi_k`): one engine
    invocation produces the per-k x-vectors -- each bitwise identical to an
    independent ``approximate_fractional_mds(graph, k, ...)`` run -- while
    paying validation, the CSR build and the shared transcendental tables
    once for the sweep instead of once per k.  On the simulated backend
    (kept so sweeps have a single code path) the call simply loops the
    per-k entry point.

    Returns ``{k: FractionalResult}`` for every requested k.
    """
    validate_backend(backend, supported=BACKENDS)
    bulk = prepare_bulk_input(graph, backend, _bulk)
    if backend == SIMULATED:
        return {
            k: approximate_fractional_mds(
                graph, k=k, seed=seed, delta=delta, backend=backend, _bulk=bulk
            )
            for k in k_values
        }

    true_delta = bulk.max_degree
    if delta is None:
        delta = true_delta
    elif delta < true_delta:
        raise ValueError(
            f"delta={delta} is smaller than the true maximum degree {true_delta}"
        )
    if backend == SHARDED:
        for k in k_values:
            if k < 1:
                raise ValueError("k must be at least 1")
        driver, owns = _sharded_driver(bulk, shards, _executor)
        try:
            snapshots = driver.run_algorithm2_multi_k(tuple(k_values), delta)
        finally:
            if owns:
                driver.close()
    else:
        snapshots = run_algorithm2_bulk_multi_k(bulk, tuple(k_values), delta=delta)
    return {
        k: _package_fractional(bulk, values, metrics, k, true_delta)
        for k, (values, metrics) in snapshots.items()
    }
