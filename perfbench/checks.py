"""Independent correctness gates: domination and the Lemma-1 bound.

These run on a CSR the benchmark builds itself from edge arrays, so a
defect in the program's own CSR or validation code cannot hide a wrong
answer.  Node labels must be the integers ``0..n-1``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class Csr:
    """Symmetric adjacency of an undirected simple graph."""

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray) -> None:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or (u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n)):
            raise ValueError("edge endpoints must be labels in 0..n-1")
        source = np.concatenate([u, v])
        target = np.concatenate([v, u])
        order = np.argsort(source, kind="stable")
        self.n = n
        self.degrees = np.bincount(source, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(self.degrees)])
        self.col = target[order]
        self.row = source[order]

    @classmethod
    def from_networkx(cls, graph) -> "Csr":
        n = graph.number_of_nodes()
        if set(graph.nodes()) != set(range(n)):
            raise ValueError("graph nodes must be the integers 0..n-1")
        edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
        return cls(n, edges[:, 0], edges[:, 1])

    def dominates(self, members: Iterable[int]) -> bool:
        """Whether every node is in ``members`` or adjacent to one."""
        flags = np.zeros(self.n, dtype=bool)
        chosen = np.fromiter((int(m) for m in members), dtype=np.int64)
        if chosen.size and (chosen.min() < 0 or chosen.max() >= self.n):
            return False
        flags[chosen] = True
        hits = np.bincount(self.row, weights=flags[self.col], minlength=self.n)
        return bool(np.all(flags | (hits > 0)))

    def lemma1_bound(self) -> float:
        """Σ_i 1 / (δ⁽¹⁾_i + 1), a certified lower bound on |DS_OPT|.

        δ⁽¹⁾_i is the largest degree in node i's closed neighbourhood
        (Lemma 1: ``y_i = 1 / (δ⁽¹⁾_i + 1)`` is dual feasible).
        """
        closed_max = self.degrees.copy()
        np.maximum.at(closed_max, self.row, self.degrees[self.col])
        return float(np.sum(1.0 / (closed_max + 1.0)))
