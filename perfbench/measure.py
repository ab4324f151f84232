"""Sample statistics, memory and environment facts for benchmark reports."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import sys
from typing import Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest nearest-rank percentile with ``beyond`` samples above it.

    Returns ``(value, percentile)``.  With ``n`` sorted samples the value
    at rank ``r`` (1-based) has ``n - r`` samples beyond it, so the answer
    is rank ``n - beyond``, the ``100 (n - beyond) / n``-th percentile.
    A sample too small to leave ``beyond`` samples above any rank reports
    its maximum as the 100th percentile.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond
    if rank < 1:
        return float(ordered[-1]), 100.0
    return float(ordered[rank - 1]), 100.0 * rank / n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child.

    Forked shard workers are joined before a solve returns, so their peak
    is in ``RUSAGE_CHILDREN``.  Pages a child shares copy-on-write with
    this process count in both terms: the figure bounds the tree's peak
    from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {
            name: os.environ[name]
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        },
        "seed": seed,
    }
