"""Property tests for the neighbourhood operators' frontier arguments.

The fault-free kernels hand :class:`~repro.simulator.bulk.BulkGraph` the
only rows an exchange still has to touch.  Each form must give exactly
the values of the full reduction:

* ``neighbor_sum(values, rows=R)`` is ``neighbor_sum(values)[R]`` bit for
  bit (floats are pulled row by row, in order);
* ``neighbor_count(flags, support=S)`` is ``neighbor_count(flags)`` when
  every set flag lies in ``S``;
* ``closed_max(values, support=S)`` is ``closed_max(values)`` when every
  node outside ``S`` holds the minimum value.

:class:`~repro.simulator.sharded.ShardSlab` accepts the same arguments and
must return the same values for any shard count.  The slabs here run in
threads over one in-process mailbox, so every example exercises the real
superstep exchange without forking workers.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulator.bulk import BulkGraph
from repro.simulator.sharded import ShardLayout, ShardSlab

from tests.property.strategies import simple_graphs

FRONTIER_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def frontier_cases(draw):
    """A CSR graph, a node subset, and int and float values per node.

    The subset is drawn empty, full or arbitrary with equal weight, so the
    edge cases (nothing left to touch / every row) come up every run.
    """
    bulk = BulkGraph.from_graph(draw(simple_graphs(min_nodes=1, max_nodes=16)))
    n = bulk.n
    shape = draw(st.sampled_from(("empty", "full", "subset")))
    if shape == "empty":
        chosen = np.zeros(n, dtype=bool)
    elif shape == "full":
        chosen = np.ones(n, dtype=bool)
    else:
        chosen = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ints = np.array(
        draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), dtype=np.int64
    )
    floats = np.array(
        draw(
            st.lists(
                st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    return bulk, np.flatnonzero(chosen), ints, floats


def floored_outside(values: np.ndarray, support: np.ndarray) -> np.ndarray:
    """``values`` with every node outside ``support`` set to the minimum."""
    floored = np.full_like(values, values.min())
    floored[support] = values[support]
    return floored


def set_only_on(support: np.ndarray, ints: np.ndarray) -> np.ndarray:
    """Flags set on some of ``support`` (odd values) and nowhere else."""
    flags = np.zeros(ints.size, dtype=bool)
    flags[support] = ints[support] % 2 == 1
    return flags


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_on_slabs(bulk: BulkGraph, shards: int, operation) -> list:
    """Run ``operation(slab)`` on every shard's slab at once, in threads."""
    mail = np.zeros(bulk.n, dtype=np.float64)
    barrier = threading.Barrier(shards)
    slabs = []
    for shard_id in range(shards):
        layout = ShardLayout.build(bulk.indptr, bulk.col, shard_id, shards)
        nodes = [bulk.nodes[position] for position in layout.owned.tolist()]
        slabs.append(ShardSlab(layout, nodes, mail, barrier))
    results: list = [None] * shards
    errors: list = []

    def work(shard_id: int) -> None:
        try:
            results[shard_id] = operation(slabs[shard_id])
        except BaseException as error:  # surface failures in the test thread
            barrier.abort()
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(s,), daemon=True) for s in range(shards)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    stuck = [thread for thread in threads if thread.is_alive()]
    if stuck:
        barrier.abort()  # release the stuck shards before failing
    assert not stuck, "shard slabs fell out of lockstep"
    if errors:
        raise errors[0]
    return list(zip(slabs, results))


class TestBulkGraphFrontier:
    @FRONTIER_SETTINGS
    @given(case=frontier_cases())
    def test_row_restricted_sum_is_bitwise_the_full_rows(self, case):
        bulk, rows, ints, floats = case
        for values in (floats, ints):
            full = bulk.neighbor_sum(values)
            assert bitwise_equal(bulk.neighbor_sum(values, rows=rows), full[rows])

    @FRONTIER_SETTINGS
    @given(case=frontier_cases())
    def test_pushed_count_equals_full_count(self, case):
        bulk, support, ints, _ = case
        flags = set_only_on(support, ints)
        assert np.array_equal(
            bulk.neighbor_count(flags, support=support), bulk.neighbor_count(flags)
        )

    @FRONTIER_SETTINGS
    @given(case=frontier_cases())
    def test_pushed_max_equals_full_max(self, case):
        bulk, support, ints, floats = case
        for values in (ints, floats):
            values = floored_outside(values, support)
            pushed = bulk.closed_max(values, support=support)
            # Equal values, not bits: which of 0.0 and -0.0 a float max
            # keeps depends on operand order (the kernels push integers).
            assert pushed.dtype == values.dtype
            assert np.array_equal(pushed, bulk.closed_max(values))

    @FRONTIER_SETTINGS
    @given(case=frontier_cases())
    def test_pushed_max_is_sender_masked_max(self, case):
        """Without the floor contract the push is the ``senders`` mask."""
        bulk, support, ints, _ = case
        senders = np.zeros(bulk.n, dtype=bool)
        senders[support] = True
        assert np.array_equal(
            bulk.closed_max(ints, support=support),
            bulk.closed_max(ints, senders=senders),
        )


class TestShardSlabFrontier:
    @FRONTIER_SETTINGS
    @given(case=frontier_cases(), shards=st.sampled_from((1, 2, 3)))
    def test_slabs_return_the_full_values(self, case, shards):
        bulk, chosen, ints, floats = case
        flags = set_only_on(chosen, ints)
        floored = floored_outside(ints, chosen)
        member = np.zeros(bulk.n, dtype=bool)
        member[chosen] = True
        full_sum = bulk.neighbor_sum(floats)
        full_count = bulk.neighbor_count(flags)
        full_max = bulk.closed_max(floored)

        def operation(slab):
            owned = slab.layout.owned
            local = np.flatnonzero(member[owned])
            return (
                local,
                slab.neighbor_sum(floats[owned], rows=local),
                slab.neighbor_count(flags[owned], support=local),
                slab.closed_max(floored[owned], support=local),
            )

        for slab, (local, sums, counts, maxima) in run_on_slabs(
            bulk, shards, operation
        ):
            owned = slab.layout.owned
            assert bitwise_equal(sums, full_sum[owned][local])
            assert np.array_equal(counts, full_count[owned])
            assert np.array_equal(maxima, full_max[owned])
