"""Request scripts for the ``service-burst`` workload.

A script is a list of :meth:`SolveService.solve_many` request dicts, the
shape ``repro serve`` reads from a JSONL file.  Scripts come in pairs:

* the **first** script gives each of ``FIRST_GRAPHS`` fresh graphs a
  ``k = 1..4`` sweep (one coalescible group per graph) and
  ``FAULTS_PER_GRAPH`` fault/repair requests, then repeats
  ``FIRST_REPEATS`` of those requests verbatim (they join in flight);
* the **second** script re-issues ``REISSUED`` of the first script's
  requests (answered from the cache) next to the same mix on
  ``SECOND_GRAPHS`` new graphs.

Every pair has the same shape, so the service's counts (cache hits,
in-flight joins, coalesced groups, batch sizes) are the same for every
pair and every seed; only the graphs, solve seeds, fault seeds and the
order within each script change.  Both scripts fit in one scheduler
batch, so coalescing does not depend on where a batch boundary falls.

Both scripts compute the same number of groups, so the computed
requests of either script finish together and the median request falls
inside that block rather than at its edge, where it would jump between
blocks from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

import networkx as nx

from repro.simulator.fault_schedule import FaultSpec

NODES = 256
K_SWEEP = (1, 2, 3, 4)
FIRST_GRAPHS = 2
SECOND_GRAPHS = 2
FAULTS_PER_GRAPH = 1
FIRST_REPEATS = 2
REISSUED = 5
MEAN_DEGREE = 4


@dataclass
class ScriptPair:
    first: list[dict[str, Any]]
    second: list[dict[str, Any]]
    graphs: list[nx.Graph]

    @property
    def requests(self) -> list[dict[str, Any]]:
        return self.first + self.second


def _graph(rng: random.Random, regular: bool) -> nx.Graph:
    graph_seed = rng.randrange(2**31)
    if regular:
        return nx.random_regular_graph(MEAN_DEGREE, NODES, seed=graph_seed)
    # G(n, m) rather than G(n, p): a fixed edge count keeps the work per
    # graph, and so the latency figures, from varying with the seed.
    return nx.gnm_random_graph(NODES, NODES * MEAN_DEGREE // 2, seed=graph_seed)


def _graph_requests(graph: nx.Graph, rng: random.Random) -> list[dict[str, Any]]:
    solve_seed = rng.randrange(2**31)
    requests = [
        {"algorithm": "kuhn-wattenhofer", "graph": graph, "seed": solve_seed, "params": {"k": k}}
        for k in K_SWEEP
    ]
    for _ in range(FAULTS_PER_GRAPH):
        requests.append(
            {
                "algorithm": "kuhn-wattenhofer",
                "graph": graph,
                "seed": solve_seed,
                "params": {
                    "k": 2,
                    "faults": FaultSpec(
                        loss_probability=0.05,
                        crash_probability=0.02,
                        seed=rng.randrange(2**31),
                    ),
                    "repair": True,
                },
            }
        )
    return requests


def warm_request(seed: int) -> dict[str, Any]:
    """One request on a graph no script uses, to warm a fresh service."""
    rng = random.Random(f"perfbench/service-burst/{seed}/warm")
    graph = _graph(rng, regular=True)
    return {"algorithm": "kuhn-wattenhofer", "graph": graph, "seed": 0, "params": {"k": 2}}


def script_pair(seed: int, index: int) -> ScriptPair:
    """The ``index``-th script pair of a run seeded with ``seed``."""
    rng = random.Random(f"perfbench/service-burst/{seed}/{index}")
    graphs = [
        _graph(rng, regular=(index + position) % 2 == 1)
        for position in range(FIRST_GRAPHS + SECOND_GRAPHS)
    ]
    distinct_first = [
        request for graph in graphs[:FIRST_GRAPHS] for request in _graph_requests(graph, rng)
    ]
    first = distinct_first + [dict(r) for r in rng.sample(distinct_first, FIRST_REPEATS)]
    rng.shuffle(first)
    second = [dict(r) for r in rng.sample(distinct_first, REISSUED)]
    second += [
        request for graph in graphs[FIRST_GRAPHS:] for request in _graph_requests(graph, rng)
    ]
    rng.shuffle(second)
    return ScriptPair(first=first, second=second, graphs=graphs)

