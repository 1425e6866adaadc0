"""Bounded-growth and bounded-diversity families (Section 1.1).

* :func:`interval_graph` — proper-interval-style intersection graphs [48];
  bounded growth, β small.
* :func:`grid_power_graph` — the r-th power of a path/grid; bounded growth
  with β controlled by the dimension.
* :func:`bounded_diversity_graph` — a union of k cliques through each
  vertex; diversity ≤ k implies β ≤ k (Section 1.1).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument.rng import resolve_rng


def interval_graph(
    num_intervals: int,
    length: float,
    span: float,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> AdjacencyArrayGraph:
    """Intersection graph of random equal-length intervals on [0, span].

    Equal-length (proper) intervals give β ≤ 2: among pairwise
    non-overlapping intervals intersecting a fixed interval I, at most one
    lies on each side of I.
    """
    if num_intervals < 0 or length <= 0 or span <= 0:
        raise ValueError("invalid interval graph parameters")
    gen = resolve_rng(seed=seed, rng=rng, owner="interval_graph")
    starts = np.sort(gen.random(num_intervals) * span)
    # Intervals i < j intersect iff starts[j] <= starts[i] + length.
    edges: list[tuple[int, int]] = []
    for i in range(num_intervals):
        j = i + 1
        while j < num_intervals and starts[j] <= starts[i] + length:
            edges.append((i, j))
            j += 1
    return from_edges(num_intervals, edges)


def grid_power_graph(side: int, power: int) -> AdjacencyArrayGraph:
    """The ``power``-th power of a ``side × side`` grid graph.

    Vertices are grid points; u ~ v iff their L1 grid distance is
    ≤ power.  Bounded growth: the r-neighborhood independence is bounded
    by a function of r only (area packing), independent of side.
    """
    if side < 1 or power < 1:
        raise ValueError("side and power must be positive")
    n = side * side
    coords = np.array([(i, j) for i in range(side) for j in range(side)])
    edges: list[tuple[int, int]] = []
    for idx in range(n):
        i, j = coords[idx]
        for di in range(-power, power + 1):
            for dj in range(-power, power + 1):
                if abs(di) + abs(dj) == 0 or abs(di) + abs(dj) > power:
                    continue
                ni, nj = i + di, j + dj
                if 0 <= ni < side and 0 <= nj < side:
                    other = ni * side + nj
                    if idx < other:
                        edges.append((idx, other))
    return from_edges(n, edges)


def bounded_diversity_graph(
    num_cliques: int,
    clique_size: int,
    diversity: int,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> AdjacencyArrayGraph:
    """A random edge-union of cliques with per-vertex clique membership ≤ diversity.

    The diversity of a vertex is the number of maximal cliques containing
    it; diversity ≤ k forces β ≤ k (each clique contributes at most one
    vertex to any independent set in a neighborhood).  We build
    ``num_cliques`` cliques of ``clique_size`` vertices each, drawing
    members only from vertices that still have membership budget.
    """
    if num_cliques < 1 or clique_size < 2 or diversity < 1:
        raise ValueError("invalid bounded diversity parameters")
    gen = resolve_rng(seed=seed, rng=rng, owner="bounded_diversity_graph")
    n = max(clique_size, (num_cliques * clique_size) // diversity + clique_size)
    budget = np.full(n, diversity, dtype=np.int64)
    edges: list[tuple[int, int]] = []
    for _ in range(num_cliques):
        available = np.flatnonzero(budget > 0)
        if available.size < clique_size:
            break
        members = gen.choice(available, size=clique_size, replace=False)
        budget[members] -= 1
        for a in range(clique_size):
            for b in range(a + 1, clique_size):
                edges.append((int(members[a]), int(members[b])))
    return from_edges(n, edges)
