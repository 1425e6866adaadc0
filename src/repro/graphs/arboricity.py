"""Arboricity and degeneracy (Definition 2.11 and Observation 2.12).

The paper uses arboricity α(G) = max_{U ⊆ V, |U| ≥ 2} ⌈|E(U)|/(|U|−1)⌉ as
its uniform-sparsity measure; Observation 2.12 bounds α(G_Δ) ≤ 2Δ.  Exact
arboricity is polynomial (Nash-Williams / matroid union) but heavy; for the
E3 experiment we need a certified *sandwich*:

* :func:`arboricity_lower_bound` — the definition's ratio evaluated on the
  whole vertex set and on every neighborhood-closure candidate we try;
  always a valid lower bound.
* :func:`arboricity_upper_bound` — the degeneracy d(G); every graph has
  α(G) ≤ d(G) (orient edges toward later vertices in a degeneracy order
  and split the ≤ d out-edges per vertex into d forests).
* :func:`arboricity_exact_small` — exhaustive over vertex subsets for tiny
  graphs, used to validate the bounds in unit tests.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph


def degeneracy(graph: AdjacencyArrayGraph) -> tuple[int, np.ndarray]:
    """Degeneracy and a degeneracy ordering (Matula–Beck peeling).

    Returns
    -------
    (d, order):
        ``d`` is the degeneracy; ``order`` lists vertices in peel order
        (each vertex has ≤ d neighbors later in the order).
    """
    n = graph.num_vertices
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    deg = np.diff(graph.indptr).tolist()
    max_deg = max(deg)
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    removed = [False] * n
    order = np.empty(n, dtype=np.int64)
    d = 0
    cursor = 0
    for step in range(n):
        while cursor <= max_deg and not buckets[cursor]:
            cursor += 1
        # Find the current minimum-degree vertex, skipping stale entries.
        while True:
            while not buckets[cursor]:
                cursor += 1
            v = buckets[cursor].pop()
            if not removed[v] and deg[v] == cursor:
                break
        removed[v] = True
        order[step] = v
        d = max(d, cursor)
        for u in graph.neighbors_array(v).tolist():
            if not removed[u]:
                deg[u] -= 1
                buckets[deg[u]].append(u)
                if deg[u] < cursor:
                    cursor = deg[u]
    return d, order


def arboricity_upper_bound(graph: AdjacencyArrayGraph) -> int:
    """α(G) ≤ degeneracy(G); see module docstring."""
    return degeneracy(graph)[0]


def arboricity_lower_bound(graph: AdjacencyArrayGraph) -> int:
    """A certified lower bound on α(G).

    Evaluates the density ratio ⌈|E(U)|/(|U|−1)⌉ on the full graph, on
    every vertex's closed neighborhood, and on each connected component —
    each is a feasible U in Definition 2.11.
    """
    n = graph.num_vertices
    if n < 2:
        return 0
    best = -(-graph.num_edges // (n - 1)) if graph.num_edges else 0

    # Closed neighborhoods (captures local dense pockets such as cliques).
    for v in range(n):
        nbrs = graph.neighbors_array(v)
        if nbrs.size < 1:
            continue
        members = set(int(u) for u in nbrs)
        members.add(v)
        if len(members) < 2:
            continue
        edge_count = 0
        for u in members:
            for w in graph.neighbors_array(u):
                if int(w) in members and u < int(w):
                    edge_count += 1
        best = max(best, -(-edge_count // (len(members) - 1)))
    return best


def arboricity_exact_small(graph: AdjacencyArrayGraph, max_vertices: int = 14) -> int:
    """Exact arboricity by exhausting all vertex subsets (tiny graphs only).

    Raises
    ------
    ValueError
        If the graph has more than ``max_vertices`` vertices.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"graph too large for exhaustive arboricity (n={n})")
    if n < 2:
        return 0
    adj_sets = [set(int(u) for u in graph.neighbors_array(v)) for v in range(n)]
    best = 0
    vertices = list(range(n))
    for size in range(2, n + 1):
        for subset in combinations(vertices, size):
            sset = set(subset)
            edge_count = sum(
                1 for u in subset for w in adj_sets[u] if w in sset and u < w
            )
            best = max(best, -(-edge_count // (size - 1)))
    return best
