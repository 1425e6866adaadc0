"""Assadi–Solomon-style sublinear maximal matching — the [8] baseline.

The algorithm the paper improves on: Assadi & Solomon (ICALP'19) compute
a *maximal* matching — hence a 2-approximate MCM — in O(n·log n·β)
adjacency-array probes.  We implement the algorithm's engine in their
spirit:

* process vertices in random order;
* a free vertex v draws random neighbors, matching the first free one it
  finds, giving up after a per-vertex probe budget of c·β·log n draws
  (their analysis shows that, in bounded-β graphs, a free vertex whose
  neighborhood retains a free vertex finds one within that many draws
  whp).

The output is always a valid matching; *maximality* holds with high
probability (their Theorem 1) and is **measured, not assumed**:
:func:`as19_maximal_matching` reports the number of violating edges
under a full (test-side) scan.  The E7 comparison the repository makes
is the paper's headline: same probe model, [8] pays an extra log n and
only reaches factor 2, while the sparsifier pipeline reaches 1+ε.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.counters import Counter
from repro.instrument.rng import resolve_rng
from repro.matching.matching import Matching


@dataclass(frozen=True)
class AS19Result:
    """Outcome of the [8]-style run.

    Attributes
    ----------
    matching:
        The computed matching (valid; maximal whp).
    probes:
        Adjacency-array probes charged.
    probe_budget_per_vertex:
        The c·β·log n cap used.
    """

    matching: Matching
    probes: int
    probe_budget_per_vertex: int


def as19_maximal_matching(
    graph: AdjacencyArrayGraph,
    beta: int,
    rng: np.random.Generator | None = None,
    constant: float = 4.0,
    *,
    seed: int | None = None,
) -> AS19Result:
    """Run the Assadi–Solomon-style randomized maximal matching.

    Parameters
    ----------
    graph:
        Input graph, accessed only through probe-counted O(1) accessors.
    beta:
        Neighborhood independence bound.
    rng:
        Seed or generator.
    constant:
        Multiplier c in the per-vertex budget c·β·ln(n+1).

    Returns
    -------
    AS19Result
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    gen = resolve_rng(seed=seed, rng=rng, owner="as19_maximal_matching")
    counter = Counter("probes")
    counted = graph.with_probe_counter(counter)
    n = graph.num_vertices
    budget = max(1, math.ceil(constant * beta * math.log(n + 1)))
    mate = np.full(n, -1, dtype=np.int64)
    for v in gen.permutation(n):
        v = int(v)
        if mate[v] != -1:
            continue
        deg = counted.degree(v)
        if deg == 0:
            continue
        tries = min(budget, deg * 4)
        for _ in range(tries):
            u = counted.neighbor(v, int(gen.integers(deg)))
            if mate[u] == -1:
                mate[v], mate[u] = u, v
                break
    return AS19Result(
        matching=Matching(mate),
        probes=counter.value,
        probe_budget_per_vertex=budget,
    )


def count_violating_edges(graph: AdjacencyArrayGraph, matching: Matching) -> int:
    """Test-side oracle: edges with both endpoints free (full scan).

    Zero means the matching is maximal.  This reads the whole graph and
    is used only to *measure* the [8] whp-maximality claim.
    """
    free = matching.mate < 0
    return sum(1 for u, v in graph.edges() if free[u] and free[v])
