"""Vectorized bulk-synchronous implementations of Algorithms 1-3.

These functions compute the *exact* same per-node values as the
message-passing programs in :mod:`repro.core.fractional`,
:mod:`repro.core.fractional_unknown` and :mod:`repro.core.rounding`, but
replace every per-message Python object with one array operation over a
:class:`~repro.simulator.bulk.BulkGraph`.  The fault-free Algorithm 2/3
kernels restrict each such operation to the rows the algorithm still
reads (the frontier arguments of the ``BulkGraph`` operators), so their
work shrinks with the white set instead of staying at 2m per exchange.

Numerical equivalence is engineered, not approximate:

* neighbourhood sums accumulate in the simulator's ascending-sender order
  (see :meth:`BulkGraph.neighbor_sum`), so coverage values -- and therefore
  the white/gray colouring decisions they gate -- are bitwise identical;
  a frontier-restricted sum pulls whole rows in that same order, and every
  pushed reduction (counts, maxima, δ̃ decrements) is integer, hence exact;
* every transcendental (the activity thresholds ``γ^(ℓ/(ℓ+1))``, the
  x-boosts ``a^(−m/(m+1))``, the rounding multipliers ``ln(δ⁽²⁾+1)``) is
  evaluated once per *distinct* operand with Python's own float power /
  ``math.log``, exactly as the per-node programs do, and broadcast back;
* the randomized rounding reads its coins from one counter-based vector,
  :func:`rounding_coins` -- ``default_rng((seed, salt)).random(n)``,
  entry ``i`` for the node at CSR position ``i`` (``bulk.nodes[i]``).
  The simulated :class:`~repro.core.rounding.Algorithm1Program` and every
  shard slab (indexing by global position) read the same vector, so the
  selected dominating set matches across backends flip for flip.

Round counts and (modeled) message counts are reported through the same
:class:`~repro.simulator.metrics.ExecutionMetrics` structure the simulator
produces, with an identical per-round layout.
"""

from __future__ import annotations

import operator
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.graphs.utils import validate_simple_graph
from repro.simulator.bulk import (
    BOOL_PAYLOAD_BITS,
    BulkGraph,
    BulkMetricsBuilder,
    float_payload_bits,
    int_payload_bits,
)
from repro.simulator.columnar import ColumnarTrace
from repro.simulator.metrics import ExecutionMetrics

#: The execution backends exposed by the public entry points.
SIMULATED = "simulated"
VECTORIZED = "vectorized"
SHARDED = "sharded"
BACKENDS = (SIMULATED, VECTORIZED, SHARDED)


class CapabilityError(ValueError):
    """A requested capability is not available on the requested backend.

    This is the one error path shared by every entry point and by the
    :mod:`repro.api` dispatcher: the message always names the algorithm,
    the capability that was asked for, the backend it was asked on, and
    the backends that do support it, so callers never have to guess which
    combination to change.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    handlers (and tests) keep working.
    """

    def __init__(
        self,
        algorithm: str,
        capability: str,
        requested: str | None = None,
        supported: Sequence[str] = (),
    ) -> None:
        self.algorithm = algorithm
        self.capability = capability
        self.requested = requested
        self.supported = tuple(supported)
        if self.supported:
            remedy = "backend(s) supporting it: " + ", ".join(
                repr(name) for name in self.supported
            )
        else:
            remedy = "no backend supports it"
        where = f" on backend {requested!r}" if requested is not None else ""
        super().__init__(
            f"algorithm {algorithm!r} does not support {capability}{where}; "
            f"{remedy}"
        )

    def __reduce__(self):
        # Rebuild from the original arguments so the error survives
        # pickling -- process-pool workers (sweeps with jobs > 1) must be
        # able to ship it back instead of dying with BrokenProcessPool.
        return (
            type(self),
            (self.algorithm, self.capability, self.requested, self.supported),
        )


def validate_backend(
    backend: str, supported: Sequence[str] = (SIMULATED, VECTORIZED)
) -> str:
    """Check a ``backend=`` argument and return it normalised.

    ``supported`` lists the backends this entry point implements; it
    defaults to the simulated/vectorized pair so only the entry points
    that grew a sharded execution path opt into ``"sharded"`` (passing
    ``supported=BACKENDS``) -- everything else rejects it up front instead
    of silently falling through to a per-node path.
    """
    if backend in supported:
        return backend
    if backend in BACKENDS:
        raise ValueError(
            f"backend {backend!r} is not supported by this entry point; "
            f"expected one of {', '.join(supported)}"
        )
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {', '.join(supported)}"
    )


def resolve_bulk_input(graph, backend: str, bulk: BulkGraph | None = None):
    """Support :class:`BulkGraph` instances passed as the ``graph`` argument.

    The CSR-native generators produce :class:`BulkGraph` objects directly;
    the public entry points accept them wherever ``backend="vectorized"``
    (or its multiprocess sibling ``"sharded"``) is in effect -- there is no
    per-node program to run them through, so the simulated backend rejects
    them.  Returns the :class:`BulkGraph` to use for bulk execution -- the
    input itself when it already is one, otherwise the caller-provided
    prebuilt ``bulk`` (which may be ``None``, meaning "build from the
    networkx graph on demand").
    """
    if isinstance(graph, BulkGraph):
        if backend not in (VECTORIZED, SHARDED):
            raise ValueError(
                "BulkGraph inputs require backend='vectorized' or 'sharded'; "
                "the simulated backend needs a networkx graph to build "
                "per-node programs"
            )
        return graph
    return bulk


def prepare_bulk_input(
    graph, backend: str, bulk: BulkGraph | None = None, build: bool = True
) -> BulkGraph | None:
    """Validate an entry point's input once and return the CSR it runs on.

    A :class:`BulkGraph` input, or a caller-provided prebuilt ``bulk`` (the
    pipeline builds one per solve and hands it to every phase), is used
    as is: it was checked when it was built.  Otherwise the networkx graph
    is validated here and, when ``build`` is set, converted once.
    Returns ``None`` only for an unbuilt networkx input (``build=False``).
    """
    bulk = resolve_bulk_input(graph, backend, bulk)
    if bulk is None:
        validate_simple_graph(graph)
        if build:
            bulk = BulkGraph.from_graph(graph)
    return bulk


def _unique_powers_cached(
    values: np.ndarray,
    exponent: float,
    cache: dict[tuple[float, float], float],
) -> np.ndarray:
    """``values ** exponent`` evaluated with Python float semantics.

    Computes the power once per distinct operand using ``float.__pow__`` --
    the operation the per-node programs perform -- and scatters the
    results, so the vectorized backend cannot drift from the simulator by
    even one ULP on platforms where numpy's pow differs from libm's.  The
    caller-owned ``(operand, exponent)`` memo lets the multi-k snapshot
    engine reuse one cache across its whole k sweep; entries are exact
    ``float.__pow__`` results, so sharing cannot change a single bit.
    """
    unique, inverse = np.unique(values, return_inverse=True)
    table = np.empty(unique.size, dtype=np.float64)
    for position, operand in enumerate(unique):
        key = (float(operand), exponent)
        result = cache.get(key)
        if result is None:
            result = cache[key] = float(operand) ** exponent
        table[position] = result
    return table[inverse]


def _unique_map(values: np.ndarray, func: Callable[[int], float]) -> np.ndarray:
    """Apply an int -> float function once per distinct value and scatter."""
    unique, inverse = np.unique(values, return_inverse=True)
    table = np.array([func(int(value)) for value in unique], dtype=np.float64)
    return table[inverse]


class _TraceRecorder:
    """Columnar trace writer for the bulk fractional engines.

    Appends the same events the per-node programs emit -- identical kinds,
    payload keys, values and round indices -- but one
    :meth:`~repro.simulator.columnar.ColumnarTrace.record_group` call per
    event kind per (outer, inner) iteration instead of one Python object
    per node, i.e. O(rounds · n) array cost.  The round index recorded for
    each event equals ``BulkMetricsBuilder.exchange_count`` at the
    recording site, which is exactly the node programs' ``round_counter``
    at the corresponding ``trace_event`` call.  Only the within-round
    event order differs from the simulator (whole kinds at a time instead
    of node-major interleaving); every per-node value is bitwise equal.
    """

    def __init__(self, trace: ColumnarTrace, bulk: BulkGraph) -> None:
        self._trace = trace
        self._nodes = np.asarray(bulk.nodes, dtype=np.int64)

    @staticmethod
    def _colors(white: np.ndarray) -> np.ndarray:
        # The literals match fractional.WHITE / fractional.GRAY (importing
        # them here would be circular: fractional imports this module).
        return np.where(white, "white", "gray")

    def outer_start(
        self,
        rc: int,
        ell: int,
        dynamic_degree: np.ndarray,
        x: np.ndarray,
        white: np.ndarray,
        gamma_two: np.ndarray | None = None,
    ) -> None:
        data: dict = {"ell": ell, "dynamic_degree": dynamic_degree}
        if gamma_two is not None:
            data["gamma_two"] = gamma_two
        data["x"] = x
        data["color"] = self._colors(white)
        self._trace.record_group("outer-loop-start", rc, self._nodes, **data)

    def inner(
        self,
        rc: int,
        ell: int,
        m: int,
        active: np.ndarray,
        x: np.ndarray,
        white: np.ndarray,
        dynamic_degree: np.ndarray,
        a_value: np.ndarray | None = None,
        a_one: np.ndarray | None = None,
    ) -> None:
        data: dict = {"ell": ell, "m": m, "active": active}
        if a_value is not None:
            data["a_value"] = a_value
            data["a_one"] = a_one
        data["x"] = x
        data["color"] = self._colors(white)
        data["dynamic_degree"] = dynamic_degree
        self._trace.record_group("inner-loop", rc, self._nodes, **data)

    def colored_gray(self, rc: int, ell: int, m: int, newly_gray: np.ndarray) -> None:
        """``newly_gray``: ascending positions of the nodes just covered."""
        self._trace.record_group(
            "colored-gray", rc, self._nodes[newly_gray], ell=ell, m=m
        )


def _colour_exchanges(
    bulk: BulkGraph,
    metrics: BulkMetricsBuilder,
    recorder: _TraceRecorder | None,
    ell: int,
    m: int,
    x: np.ndarray,
    white: np.ndarray,
    rows: np.ndarray,
    dynamic_degree: np.ndarray,
) -> np.ndarray:
    """The x-value and colour exchanges that end every inner iteration.

    Shared by Algorithms 2 and 3 (lines 11-12 / 9-10 and 18-21).  Only
    white nodes read their coverage ``x + N·x``, and one whose closed
    neighbourhood kept its x-values still reads the same sum (< 1), so the
    sum is pulled only over ``rows``: the white nodes whose neighbourhood
    may have changed.  The nodes it covers turn gray (``white`` is updated
    in place).  The colour exchange then lowers each δ̃(v) = |N[v] ∩ white|
    by the newly gray nodes in N[v], pushed from their rows: the exact
    integer a full recount gives.  Returns the new dynamic degrees.
    """
    metrics.record_exchange(float_payload_bits(x))
    coverage = x[rows] + bulk.neighbor_sum(x, rows=rows)
    newly_gray = rows[coverage >= 1.0]
    if recorder is not None:
        recorder.colored_gray(metrics.exchange_count, ell, m, newly_gray)
    white[newly_gray] = False

    metrics.record_exchange(BOOL_PAYLOAD_BITS)
    gray_flags = np.zeros(bulk.n, dtype=bool)
    gray_flags[newly_gray] = True
    lost = bulk.neighbor_count(gray_flags, support=newly_gray)
    lost[newly_gray] += 1
    return dynamic_degree - lost


# ---------------------------------------------------------------------- #
# Algorithm 2 (Δ known)                                                   #
# ---------------------------------------------------------------------- #


def run_algorithm2_bulk(
    bulk: BulkGraph, k: int, delta: int, trace: ColumnarTrace | None = None
) -> tuple[np.ndarray, ExecutionMetrics]:
    """Vectorized Algorithm 2: the same 2k² exchanges as the node program.

    Returns the per-node x-vector (indexed like ``bulk.nodes``) and the
    modeled execution metrics.  When ``trace`` is given, per-iteration
    columnar snapshots are recorded into it (the same events the node
    program emits).  Delegates to the snapshot engine with a one-element
    sweep, so the single-k and multi-k paths cannot drift: there is
    exactly one copy of the loop body.
    """
    traces = None if trace is None else {k: trace}
    return run_algorithm2_bulk_multi_k(bulk, (k,), delta=delta, traces=traces)[k]


def run_weighted_algorithm2_bulk(
    bulk: BulkGraph,
    k: int,
    delta: int,
    costs: np.ndarray,
    c_max: float,
    trace: ColumnarTrace | None = None,
) -> tuple[np.ndarray, ExecutionMetrics]:
    """Vectorized weighted Algorithm 2 (remark after Theorem 4).

    Identical to :func:`run_algorithm2_bulk` except for the cost-scaled
    activity rule: node ``i`` is active when
    ``(c_max / c_i) · δ̃_i ≥ [c_max (Δ+1)]^{ℓ/k}``.  The exchange pattern
    (x-values, then colours; 2k² rounds) is unchanged, so the modeled
    metrics and the per-node values are bitwise identical to the
    message-passing :class:`~repro.core.weighted.WeightedAlgorithm2Program`.

    Parameters
    ----------
    bulk:
        The communication graph.
    k:
        Locality parameter.
    delta:
        Maximum degree Δ known to all nodes.
    costs:
        Per-node costs c_i ∈ [1, c_max], indexed like ``bulk.nodes``.
    c_max:
        The global maximum cost.
    trace:
        Optional :class:`~repro.simulator.columnar.ColumnarTrace` to fill
        with per-iteration snapshots.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if delta < 0:
        raise ValueError("delta must be non-negative")

    base = delta + 1.0
    weighted_base = float(c_max) * base
    # The per-node program computes (c_max / cost) once at line 1 of each
    # activity check; a single elementwise divide reproduces those floats.
    cost_scale = float(c_max) / np.asarray(costs, dtype=np.float64)
    x = np.zeros(bulk.n, dtype=np.float64)
    white = np.ones(bulk.n, dtype=bool)
    dynamic_degree = bulk.degrees + 1
    metrics = BulkMetricsBuilder(bulk.degrees)
    recorder = None if trace is None else _TraceRecorder(trace, bulk)

    for ell in range(k - 1, -1, -1):
        threshold = weighted_base ** (ell / k)
        if recorder is not None:
            recorder.outer_start(metrics.exchange_count, ell, dynamic_degree, x, white)
        for m in range(k - 1, -1, -1):
            # Weighted activity rule: cost-scaled dynamic degree.
            active = cost_scale * dynamic_degree >= threshold
            boost = 1.0 / base ** (m / k)
            x = np.where(active, np.maximum(x, boost), x)
            if recorder is not None:
                recorder.inner(
                    metrics.exchange_count, ell, m, active, x, white, dynamic_degree
                )

            # Exchange x-values; colour gray once covered.
            metrics.record_exchange(float_payload_bits(x))
            coverage = x + bulk.neighbor_sum(x)
            if recorder is not None:
                recorder.colored_gray(
                    metrics.exchange_count, ell, m, white & (coverage >= 1.0)
                )
            white &= coverage < 1.0

            # Exchange colours; recompute the dynamic degree.
            metrics.record_exchange(BOOL_PAYLOAD_BITS)
            dynamic_degree = bulk.neighbor_count(white) + white

    return x, metrics.build(bulk.nodes)


def run_algorithm2_bulk_multi_k(
    bulk: BulkGraph,
    k_values: Sequence[int],
    delta: int,
    traces: Mapping[int, ColumnarTrace] | None = None,
) -> dict[int, tuple[np.ndarray, ExecutionMetrics]]:
    """Snapshot engine: Algorithm 2 for every k in one engine invocation.

    Sweeps over the locality parameter (``bench_tradeoff_curve``,
    ``sweep_pipeline``) previously re-entered the fractional engine once
    per k, re-paying per-call setup and re-deriving every activity
    threshold.  This entry point executes the whole k sweep inside one
    invocation: the CSR state arrays are allocated once, and the
    transcendental tables (the thresholds ``(Δ+1)^{ℓ/k}`` and boosts
    ``(Δ+1)^{−m/k}``) are computed once per *distinct exponent quotient*
    and shared across all k -- for k ∈ {1..6} more than half the quotients
    recur.  Each per-k snapshot is **bitwise identical** to
    ``run_algorithm2_bulk(bulk, k, delta)``: identical x-vectors and
    identical modeled metrics, because every shared value is produced by
    the exact expression the single-k engine evaluates.

    ``traces`` optionally maps a k to a
    :class:`~repro.simulator.columnar.ColumnarTrace`; for those k the
    engine records per-iteration snapshots (the per-node programs' trace
    events, in columnar form) into the given trace.

    Each exchange does work in proportion to its frontier: coverage is
    pulled over the white rows only and δ̃ is decremented from the newly
    gray rows (see :func:`_colour_exchanges`), so once every node is gray
    no exchange reads the CSR.

    Returns ``{k: (x, metrics)}`` for every requested k.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    base = delta + 1.0
    powers: dict[float, float] = {}

    def base_power(quotient: float) -> float:
        value = powers.get(quotient)
        if value is None:
            value = powers[quotient] = base**quotient
        return value

    results: dict[int, tuple[np.ndarray, ExecutionMetrics]] = {}
    for k in k_values:
        if k < 1:
            raise ValueError("k must be at least 1")
        x = np.zeros(bulk.n, dtype=np.float64)
        white = np.ones(bulk.n, dtype=bool)
        dynamic_degree = bulk.degrees + 1
        metrics = BulkMetricsBuilder(bulk.degrees)
        recorder = None
        if traces is not None and k in traces:
            recorder = _TraceRecorder(traces[k], bulk)
        for ell in range(k - 1, -1, -1):
            threshold = base_power(ell / k)
            if recorder is not None:
                recorder.outer_start(
                    metrics.exchange_count, ell, dynamic_degree, x, white
                )
            for m in range(k - 1, -1, -1):
                # Lines 6-8: active nodes raise their x-value.
                active = dynamic_degree >= threshold
                boost = 1.0 / base_power(m / k)
                x = np.where(active, np.maximum(x, boost), x)
                if recorder is not None:
                    recorder.inner(
                        metrics.exchange_count, ell, m, active, x, white, dynamic_degree
                    )

                # Exchange x-values, colour gray once covered (lines 11-12);
                # exchange colours, update the dynamic degree (lines 9-10).
                dynamic_degree = _colour_exchanges(
                    bulk, metrics, recorder, ell, m,
                    x, white, np.flatnonzero(white), dynamic_degree,
                )
        results[k] = (x, metrics.build(bulk.nodes))
    return results


# ---------------------------------------------------------------------- #
# Algorithm 3 (Δ unknown)                                                 #
# ---------------------------------------------------------------------- #


def run_algorithm3_bulk(
    bulk: BulkGraph, k: int, trace: ColumnarTrace | None = None
) -> tuple[np.ndarray, ExecutionMetrics]:
    """Vectorized Algorithm 3: the same 4k² + 2k + 2 exchanges as the program.

    Delegates to the snapshot engine with a one-element sweep -- one copy
    of the loop body serves both the single-k and multi-k paths.  When
    ``trace`` is given, per-iteration columnar snapshots are recorded.
    """
    traces = None if trace is None else {k: trace}
    return run_algorithm3_bulk_multi_k(bulk, (k,), traces=traces)[k]


def run_algorithm3_bulk_multi_k(
    bulk: BulkGraph,
    k_values: Sequence[int],
    traces: Mapping[int, ColumnarTrace] | None = None,
) -> dict[int, tuple[np.ndarray, ExecutionMetrics]]:
    """Snapshot engine: Algorithm 3 for every k in one engine invocation.

    Beyond the shared setup of :func:`run_algorithm2_bulk_multi_k`, two
    pieces of Algorithm 3 are genuinely k-independent and computed once
    for the whole sweep: the δ⁽²⁾ prefix (the first two exchanges of every
    run) and the transcendental tables ``γ^{ℓ/(ℓ+1)}`` / ``a^{−m/(m+1)}``,
    whose (operand, exponent) pairs recur heavily across k.  Every per-k
    snapshot is bitwise identical to ``run_algorithm3_bulk(bulk, k)`` --
    x-vector and modeled metrics alike (each k's metrics still record the
    shared prefix exchanges in program order).

    Every exchange after the prefix does work in proportion to its
    frontier: a-values are pushed from the active rows, a⁽¹⁾, γ⁽¹⁾ and γ⁽²⁾
    are exact integer max-pushes from their support (a > 0, δ̃ > 0,
    γ⁽¹⁾ > 1), coverage is pulled over the white nodes with a > 0 only, and
    δ̃ is decremented from the newly gray rows.  Once every node is gray no
    exchange reads the CSR.  Each exchange is still exactly one operator
    call, made unconditionally, so shard slabs stay in lockstep.

    Returns ``{k: (x, metrics)}`` for every requested k.
    """
    power_cache: dict[tuple[float, float], float] = {}
    # The δ⁽²⁾ prefix (line 2) does not depend on k: compute it once and
    # replay its two exchanges into every k's metrics.
    delta_one = bulk.closed_max(bulk.degrees)
    delta_two = bulk.closed_max(delta_one)
    initial_gamma_two = (delta_two + 1).astype(np.float64)
    degree_bits = int_payload_bits(bulk.degrees)
    delta_one_bits = int_payload_bits(delta_one)

    results: dict[int, tuple[np.ndarray, ExecutionMetrics]] = {}
    for k in k_values:
        if k < 1:
            raise ValueError("k must be at least 1")
        x = np.zeros(bulk.n, dtype=np.float64)
        white = np.ones(bulk.n, dtype=bool)
        metrics = BulkMetricsBuilder(bulk.degrees)
        metrics.record_exchange(degree_bits)
        metrics.record_exchange(delta_one_bits)
        gamma_two = initial_gamma_two
        dynamic_degree = bulk.degrees + 1
        recorder = None
        if traces is not None and k in traces:
            recorder = _TraceRecorder(traces[k], bulk)

        for ell in range(k - 1, -1, -1):
            if recorder is not None:
                recorder.outer_start(
                    metrics.exchange_count, ell, dynamic_degree, x, white,
                    gamma_two=gamma_two,
                )
            # Lines 7-9's threshold γ⁽²⁾^(ℓ/(ℓ+1)) is ≥ 1 and γ⁽²⁾ only
            # changes at lines 24-27: evaluate it once per outer iteration,
            # at the nodes whose δ̃ can still reach it (δ̃ never grows).
            live = np.flatnonzero(dynamic_degree)
            threshold = np.full(bulk.n, np.inf)
            threshold[live] = _unique_powers_cached(
                gamma_two[live], ell / (ell + 1), power_cache
            )
            for m in range(k - 1, -1, -1):
                # Lines 7-9: activity flags, one exchange.
                active = dynamic_degree >= threshold
                metrics.record_exchange(BOOL_PAYLOAD_BITS)

                # Lines 10-11: a(v) = active nodes in N[v]; 0 for gray
                # nodes.  The count is pushed from the active rows.
                a_value = np.where(
                    white,
                    bulk.neighbor_count(active, support=np.flatnonzero(active))
                    + active,
                    0,
                )

                # Lines 12-13: exchange a-values, closed-neighbourhood max,
                # pushed from the nodes with a(v) > 0.
                metrics.record_exchange(int_payload_bits(a_value))
                a_one = bulk.closed_max(a_value, support=np.flatnonzero(a_value))

                # Lines 15-17: active nodes raise x to a⁽¹⁾^(−m/(m+1));
                # a⁽¹⁾ ≥ 1 whenever a node is active, so the power is
                # well defined.
                if active.any():
                    boost = _unique_powers_cached(
                        a_one[active].astype(np.float64), -m / (m + 1), power_cache
                    )
                    x[active] = np.maximum(x[active], boost)
                if recorder is not None:
                    recorder.inner(
                        metrics.exchange_count, ell, m, active, x, white,
                        dynamic_degree, a_value=a_value, a_one=a_one,
                    )

                # Lines 18-19: exchange x-values, colour once covered --
                # only x-values of active nodes moved, so only the white
                # nodes with a(v) > 0 can newly be covered; lines 20-21:
                # exchange colours, update dynamic degree.
                dynamic_degree = _colour_exchanges(
                    bulk, metrics, recorder, ell, m,
                    x, white, np.flatnonzero(a_value), dynamic_degree,
                )

            # Lines 24-27: two exchanges refreshing γ⁽²⁾, floored at 1.
            # Both maxima are pushed from their support: the nodes with
            # δ̃ > 0, then those with γ⁽¹⁾ > 1 (flooring first leaves every
            # other node at the minimum, 1).
            metrics.record_exchange(int_payload_bits(dynamic_degree))
            gamma_one = bulk.closed_max(
                dynamic_degree, support=np.flatnonzero(dynamic_degree)
            )
            metrics.record_exchange(int_payload_bits(gamma_one))
            gamma_two = bulk.closed_max(
                np.maximum(gamma_one, 1), support=np.flatnonzero(gamma_one > 1)
            ).astype(np.float64)
        results[k] = (x, metrics.build(bulk.nodes))
    return results


# ---------------------------------------------------------------------- #
# Algorithm 1 (randomized rounding)                                       #
# ---------------------------------------------------------------------- #


#: Stream tag of the rounding coins.  numpy pads a short seed key with
#: zero words, so the tag must not be 0 or 1: then ``(seed, salt)`` and
#: the negative-seed key ``(-seed, salt, 1)`` never coincide, and neither
#: meets the fault layer's ``(seed, phase salt, stream)`` keys.
ROUNDING_COIN_SALT = 0x414C4731  # "ALG1"


def rounding_coins(n: int, seed: int | None) -> np.ndarray:
    """Algorithm 1's coins: one uniform draw per CSR position.

    Entry ``i`` is the coin of the node at position ``i`` (``bulk.nodes[i]``,
    i.e. the ``i``-th smallest node identifier).  The vector is a pure
    function of ``(seed, n)`` drawn from ``default_rng((seed, salt))`` --
    the counter-based convention of
    :mod:`repro.simulator.fault_schedule` -- so every backend, and every
    shard slab indexing it by global position, flips the same coins.
    Negative seeds use the key ``(-seed, salt, 1)``; ``None`` draws fresh
    OS entropy.
    """
    if seed is None:
        return np.random.default_rng().random(n)
    seed = operator.index(seed)
    if seed >= 0:
        key = (seed, ROUNDING_COIN_SALT)
    else:
        key = (-seed, ROUNDING_COIN_SALT, 1)
    return np.random.default_rng(key).random(n)


def run_rounding_bulk(
    bulk: BulkGraph,
    x: np.ndarray,
    coins: np.ndarray,
    multiplier_for: Callable[[int], float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ExecutionMetrics]:
    """Vectorized Algorithm 1.

    Parameters
    ----------
    bulk:
        The communication graph (a whole CSR, or one shard's slab).
    x:
        Per-node fractional values, indexed like ``bulk.nodes``.
    coins:
        Per-node uniform coins, indexed like ``bulk.nodes``: the
        :func:`rounding_coins` vector of the seed (a slab passes its
        owned positions' entries).  Node ``i`` joins iff
        ``coins[i] < p_i``.
    multiplier_for:
        ``δ⁽²⁾ -> multiplier`` for the join probability (the rounding-rule
        specific ``ln(δ⁽²⁾+1)`` term).

    Returns
    -------
    (in_set, joined_randomly, joined_as_fallback, metrics)
        Three boolean arrays indexed like ``bulk.nodes`` plus the metrics.
    """
    return run_rounding_bulk_batched(bulk, x, [coins], multiplier_for)[0]


def run_rounding_bulk_batched(
    bulk: BulkGraph,
    x: np.ndarray,
    coin_rows: Iterable[np.ndarray],
    multiplier_for: Callable[[int], float],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, ExecutionMetrics]]:
    """Vectorized Algorithm 1 for many coin vectors over one x-vector.

    The seed-independent work -- the two δ⁽²⁾ exchanges, the join
    probabilities, the per-exchange payload bits -- is computed once; each
    trial then only compares its own coin vector.  Trial ``t`` reproduces
    ``run_rounding_bulk(bulk, x, coin_rows[t], multiplier_for)`` exactly.

    Returns one ``(in_set, joined_randomly, joined_as_fallback, metrics)``
    tuple per coin vector, in order.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        # Same rejection Algorithm1Program performs per node.
        raise ValueError("fractional values must be non-negative")

    # Seed-independent phase: δ⁽²⁾, join probabilities, payload sizes.
    degree_bits = int_payload_bits(bulk.degrees)
    delta_one = bulk.closed_max(bulk.degrees)
    delta_one_bits = int_payload_bits(delta_one)
    delta_two = bulk.closed_max(delta_one)
    probability = np.minimum(1.0, x * _unique_map(delta_two, multiplier_for))

    results = []
    for coins in coin_rows:
        # Lines 2-3: join with probability min(1, x · multiplier(δ⁽²⁾)).
        joined_randomly = coins < probability
        # Line 4 announces the decision; lines 5-7: nodes with no dominator
        # in their closed neighbourhood join.
        joined_as_fallback = ~joined_randomly & ~bulk.neighbor_any(joined_randomly)
        in_set = joined_randomly | joined_as_fallback
        metrics = BulkMetricsBuilder(bulk.degrees)
        metrics.record_exchange(degree_bits)
        metrics.record_exchange(delta_one_bits)
        metrics.record_exchange(BOOL_PAYLOAD_BITS)
        results.append(
            (in_set, joined_randomly, joined_as_fallback, metrics.build(bulk.nodes))
        )
    return results


# ---------------------------------------------------------------------- #
# Faulted kernels (masked reductions over a FaultSchedule)                 #
# ---------------------------------------------------------------------- #
#
# Each faulted kernel replays its algorithm's exact exchange sequence, but
# every neighbourhood reduction is restricted to the schedule's delivered
# edges and every state update is gated by the round's alive mask, so the
# arrays evolve exactly as the per-node programs' state does under the
# :class:`~repro.simulator.fault_schedule.ScheduledFaults` adapter: the
# same x-vectors, the same colours, bit for bit.  ``schedule`` may be a
# whole-graph :class:`~repro.simulator.fault_schedule.FaultSchedule` or a
# per-shard :class:`~repro.simulator.fault_schedule.SlabScheduleView`; the
# kernels only touch the shared mask interface, so the identical loop body
# serves the vectorized and sharded backends.
#
# The modeled metrics exclude crashed senders exchange by exchange but keep
# the fault-free round structure (a run whose every node dies early still
# reports the full exchange count); only the x-vectors, dominating sets and
# drop counts are exact replicas of the simulated execution.

#: Exchange (= delivery round) counts of the faulted kernels, used to size
#: the materialized schedules.
def algorithm2_exchanges(k: int) -> int:
    """Delivery rounds of Algorithm 2 with locality ``k`` (2k²)."""
    return 2 * k * k


def algorithm3_exchanges(k: int) -> int:
    """Delivery rounds of Algorithm 3 with locality ``k`` (4k² + 2k + 2)."""
    return 4 * k * k + 2 * k + 2


#: Delivery rounds of Algorithm 1 (degree, δ⁽¹⁾, membership).
ROUNDING_EXCHANGES = 3


def run_algorithm2_bulk_faulted(
    bulk: BulkGraph, k: int, delta: int, schedule
) -> tuple[np.ndarray, ExecutionMetrics]:
    """Algorithm 2 under a materialized fault schedule.

    Matches the per-node :class:`~repro.core.fractional.Algorithm2Program`
    run under ``schedule.fault_model(...)`` bit for bit: iteration
    ``(ℓ, m)``'s activity check runs in the round that received the
    previous colour exchange, so it is gated by that round's alive mask
    (the very first check runs in ``on_start`` and is ungated).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    base = delta + 1.0
    x = np.zeros(bulk.n, dtype=np.float64)
    white = np.ones(bulk.n, dtype=bool)
    dynamic_degree = bulk.degrees + 1
    metrics = BulkMetricsBuilder(bulk.degrees)
    exchange = 0
    gate: np.ndarray | None = None  # alive mask of the activity-check round

    for ell in range(k - 1, -1, -1):
        threshold = base ** (ell / k)
        for m in range(k - 1, -1, -1):
            active = dynamic_degree >= threshold
            if gate is not None:
                active &= gate
            boost = 1.0 / base ** (m / k)
            x = np.where(active, np.maximum(x, boost), x)

            # Exchange x-values; colour gray once covered.
            metrics.record_exchange(
                float_payload_bits(x), senders=schedule.senders(exchange)
            )
            coverage = x + bulk.neighbor_sum(
                x, edge_mask=schedule.delivered_edges(exchange)
            )
            white = np.where(
                schedule.alive(exchange), white & (coverage < 1.0), white
            )
            exchange += 1

            # Exchange colours; recompute the dynamic degree.
            metrics.record_exchange(
                BOOL_PAYLOAD_BITS, senders=schedule.senders(exchange)
            )
            gate = schedule.alive(exchange)
            dynamic_degree = np.where(
                gate,
                bulk.neighbor_count(
                    white, edge_mask=schedule.delivered_edges(exchange)
                )
                + white,
                dynamic_degree,
            )
            exchange += 1

    return x, metrics.build(bulk.nodes)


def run_algorithm3_bulk_faulted(
    bulk: BulkGraph, k: int, schedule
) -> tuple[np.ndarray, ExecutionMetrics]:
    """Algorithm 3 under a materialized fault schedule.

    Same statement-to-round mapping as
    :class:`~repro.core.fractional_unknown.Algorithm3Program`: the δ⁽²⁾
    prefix occupies exchanges 0-1, each inner iteration its four exchanges
    (activity flag, a-value, x-value, colour) and each outer iteration its
    two refresh exchanges, with every update gated by the alive mask of
    the round that performs it.  Like the hardened program, a node whose
    delivered a⁽¹⁾ stayed at 0 (every witness message lost) skips the
    x-raise instead of evaluating ``0^(−m/(m+1))``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    power_cache: dict[tuple[float, float], float] = {}
    x = np.zeros(bulk.n, dtype=np.float64)
    white = np.ones(bulk.n, dtype=bool)
    dynamic_degree = bulk.degrees + 1
    metrics = BulkMetricsBuilder(bulk.degrees)

    # δ⁽²⁾ prefix: exchanges 0 and 1.
    metrics.record_exchange(
        int_payload_bits(bulk.degrees), senders=schedule.senders(0)
    )
    delta_one = bulk.closed_max(
        bulk.degrees, edge_mask=schedule.delivered_edges(0)
    )
    metrics.record_exchange(
        int_payload_bits(delta_one), senders=schedule.senders(1)
    )
    delta_two = bulk.closed_max(delta_one, edge_mask=schedule.delivered_edges(1))
    gamma_two = (delta_two + 1).astype(np.float64)
    exchange = 2

    for ell in range(k - 1, -1, -1):
        for m in range(k - 1, -1, -1):
            # Activity threshold γ⁽²⁾^(ℓ/(ℓ+1)); flag exchange.  A dead
            # node's stale flag is never observed: the delivered mask of
            # this exchange already excludes it as a sender, and its own
            # downstream uses are gated.
            threshold = _unique_powers_cached(
                gamma_two, ell / (ell + 1), power_cache
            )
            active = dynamic_degree >= threshold
            metrics.record_exchange(
                BOOL_PAYLOAD_BITS, senders=schedule.senders(exchange)
            )
            a_value = np.where(
                white,
                bulk.neighbor_count(
                    active, edge_mask=schedule.delivered_edges(exchange)
                )
                + active,
                0,
            ).astype(np.int64)
            exchange += 1

            # a-value exchange; active nodes raise x to a⁽¹⁾^(−m/(m+1)).
            metrics.record_exchange(
                int_payload_bits(a_value), senders=schedule.senders(exchange)
            )
            a_one = bulk.closed_max(
                a_value, edge_mask=schedule.delivered_edges(exchange)
            )
            raising = active & schedule.alive(exchange) & (a_one >= 1)
            if raising.any():
                boost = _unique_powers_cached(
                    a_one[raising].astype(np.float64), -m / (m + 1), power_cache
                )
                x[raising] = np.maximum(x[raising], boost)
            exchange += 1

            # x-value exchange; colour gray once covered.
            metrics.record_exchange(
                float_payload_bits(x), senders=schedule.senders(exchange)
            )
            coverage = x + bulk.neighbor_sum(
                x, edge_mask=schedule.delivered_edges(exchange)
            )
            white = np.where(
                schedule.alive(exchange), white & (coverage < 1.0), white
            )
            exchange += 1

            # Colour exchange; recompute the dynamic degree.
            metrics.record_exchange(
                BOOL_PAYLOAD_BITS, senders=schedule.senders(exchange)
            )
            dynamic_degree = np.where(
                schedule.alive(exchange),
                bulk.neighbor_count(
                    white, edge_mask=schedule.delivered_edges(exchange)
                )
                + white,
                dynamic_degree,
            )
            exchange += 1

        # Two exchanges refreshing γ⁽²⁾, floored at 1.
        metrics.record_exchange(
            int_payload_bits(dynamic_degree), senders=schedule.senders(exchange)
        )
        gamma_one = bulk.closed_max(
            dynamic_degree, edge_mask=schedule.delivered_edges(exchange)
        )
        exchange += 1
        metrics.record_exchange(
            int_payload_bits(gamma_one), senders=schedule.senders(exchange)
        )
        gamma_two = np.maximum(
            bulk.closed_max(
                gamma_one, edge_mask=schedule.delivered_edges(exchange)
            ).astype(np.float64),
            1.0,
        )
        exchange += 1

    return x, metrics.build(bulk.nodes)


def run_rounding_bulk_faulted(
    bulk: BulkGraph,
    x: np.ndarray,
    coins: np.ndarray,
    multiplier_for: Callable[[int], float],
    schedule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ExecutionMetrics]:
    """Algorithm 1 under a materialized fault schedule.

    The coin is flipped in the round that received δ⁽¹⁾ (so only nodes
    alive at round 1 can join randomly), and the final membership -- like
    the program's ``result()`` -- is only produced by nodes alive at
    round 2: a node that joined randomly but crashed before announcing is
    reported in ``joined_randomly`` yet not in the dominating set, exactly
    as the simulated execution reports it.
    """
    if np.any(np.asarray(x) < 0):
        raise ValueError("fractional values must be non-negative")
    metrics = BulkMetricsBuilder(bulk.degrees)

    metrics.record_exchange(
        int_payload_bits(bulk.degrees), senders=schedule.senders(0)
    )
    delta_one = bulk.closed_max(
        bulk.degrees, edge_mask=schedule.delivered_edges(0)
    )
    metrics.record_exchange(
        int_payload_bits(delta_one), senders=schedule.senders(1)
    )
    delta_two = bulk.closed_max(delta_one, edge_mask=schedule.delivered_edges(1))

    probability = np.minimum(
        1.0, np.asarray(x, dtype=np.float64) * _unique_map(delta_two, multiplier_for)
    )
    joined_randomly = (coins < probability) & schedule.alive(1)

    metrics.record_exchange(
        BOOL_PAYLOAD_BITS, senders=schedule.senders(2)
    )
    surviving = schedule.alive(2)
    joined_as_fallback = (
        surviving
        & ~joined_randomly
        & ~bulk.neighbor_any(
            joined_randomly, edge_mask=schedule.delivered_edges(2)
        )
    )
    in_set = (joined_randomly | joined_as_fallback) & surviving
    return in_set, joined_randomly, joined_as_fallback, metrics.build(bulk.nodes)


def x_array_from_mapping(bulk: BulkGraph, x: Mapping[Hashable, float]) -> np.ndarray:
    """Convert a node -> value mapping into a ``bulk.nodes``-indexed array."""
    if len(x) == bulk.n:
        # Fast path for complete mappings (the common pipeline case at
        # n >= 10⁶): fromiter over __getitem__ skips a per-node float()
        # call and the intermediate list.  Values are identical -- the
        # float64 cast is the same conversion float() performs.
        try:
            return np.fromiter(
                map(x.__getitem__, bulk.nodes), dtype=np.float64, count=bulk.n
            )
        except KeyError:
            pass
    return np.array(
        [float(x.get(node, 0.0)) for node in bulk.nodes], dtype=np.float64
    )
