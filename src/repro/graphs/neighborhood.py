"""Neighborhood independence number β(G).

β(G) is the size of the largest independent set contained in the
neighborhood N(v) of any single vertex v (Section 1).  Computing an
independence number is NP-hard in general, but neighborhoods in the
bounded-β families we study are small or highly structured, so an exact
bitset branch-and-bound is practical; we also provide a greedy lower bound
and a clique-cover upper bound for large instances.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph


def _independence_number_bitset(adj: list[int], vertices: int) -> int:
    """Exact independence number of the graph given by bitset adjacency.

    ``adj[i]`` is the bitmask of neighbors of vertex ``i`` among the
    ``vertices``-bit universe.  Classic branch and bound: pick the highest
    degree remaining vertex, branch on excluding / including it, prune with
    the trivial popcount bound.
    """
    best = 0

    def popcount(x: int) -> int:
        return x.bit_count()

    def search(candidates: int, size: int) -> None:
        nonlocal best
        if size + popcount(candidates) <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        # Pick the candidate with the most candidate-neighbors.
        pick, pick_deg = -1, -1
        rest = candidates
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = popcount(adj[v] & candidates)
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg == 0:
            # Remaining candidates form an independent set.
            best = max(best, size + popcount(candidates))
            return
        bit = 1 << pick
        # Branch 1: include pick (drop its neighbors).
        search(candidates & ~(bit | adj[pick]), size + 1)
        # Branch 2: exclude pick.
        search(candidates & ~bit, size)

    search((1 << vertices) - 1, 0)
    return best


def _neighborhood_subgraph_bitsets(
    graph: AdjacencyArrayGraph, v: int
) -> tuple[list[int], int]:
    """Bitset adjacency of the subgraph induced by N(v)."""
    nbrs = graph.neighbors_array(v)
    k = nbrs.size
    index = {int(u): i for i, u in enumerate(nbrs)}
    adj = [0] * k
    for i, u in enumerate(nbrs):
        for w in graph.neighbors_array(int(u)):
            j = index.get(int(w))
            if j is not None:
                adj[i] |= 1 << j
    return adj, k


def neighborhood_independence_exact(
    graph: AdjacencyArrayGraph, max_neighborhood: int = 64
) -> int:
    """Exact β(G) via per-neighborhood branch-and-bound.

    Parameters
    ----------
    graph:
        Input graph.
    max_neighborhood:
        Guard: raise if any vertex degree exceeds this, since the
        branch-and-bound could then be too slow.  Raise the limit
        explicitly for structured instances you know are easy.

    Returns
    -------
    int
        β(G); 0 for an edgeless graph.
    """
    beta = 0
    for v in range(graph.num_vertices):
        deg = int(graph.indptr[v + 1] - graph.indptr[v])
        if deg == 0:
            continue
        if deg > max_neighborhood:
            raise ValueError(
                f"vertex {v} has degree {deg} > max_neighborhood="
                f"{max_neighborhood}; use neighborhood_independence_greedy "
                "or raise the limit"
            )
        if deg <= beta:
            continue  # cannot beat the current maximum
        adj, k = _neighborhood_subgraph_bitsets(graph, v)
        beta = max(beta, _independence_number_bitset(adj, k))
    return beta


def neighborhood_independence_greedy(
    graph: AdjacencyArrayGraph,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> int:
    """Greedy lower bound on β(G).

    For every vertex, greedily grows an independent set inside its
    neighborhood in a (optionally shuffled) degree-ascending order.  Always
    ≤ β(G); equals it on the structured families used in experiments
    (cliques, line graphs of simple graphs) in practice.
    """
    if seed is not None:
        from repro.instrument.rng import resolve_rng

        rng = resolve_rng(seed=seed, rng=rng,
                          owner="neighborhood_independence_greedy")
    degrees = np.diff(graph.indptr)
    best = 0
    for v in range(graph.num_vertices):
        nbrs = graph.neighbors_array(v)
        if nbrs.size <= best:
            continue
        order = nbrs[np.argsort(degrees[nbrs], kind="stable")]
        if rng is not None:
            order = rng.permutation(nbrs)
        chosen: list[int] = []
        chosen_set: set[int] = set()
        for u in order:
            u = int(u)
            if all(not graph.has_edge(u, w) for w in chosen):
                chosen.append(u)
                chosen_set.add(u)
        best = max(best, len(chosen))
    return best


def neighborhood_independence_upper(graph: AdjacencyArrayGraph) -> int:
    """Clique-cover upper bound on β(G).

    Inside each neighborhood, greedily covers the vertices by cliques; the
    number of cliques used upper-bounds the independence number of that
    neighborhood (each clique contributes at most one independent vertex),
    hence the maximum over vertices upper-bounds β(G).
    """
    best = 0
    for v in range(graph.num_vertices):
        nbrs = [int(u) for u in graph.neighbors_array(v)]
        if len(nbrs) <= best:
            continue
        remaining = set(nbrs)
        cliques = 0
        while remaining:
            seed = remaining.pop()
            clique = [seed]
            for u in list(remaining):
                if all(graph.has_edge(u, w) for w in clique):
                    clique.append(u)
                    remaining.remove(u)
            cliques += 1
        best = max(best, cliques)
    return best


def neighborhood_independence_sampled(
    graph: AdjacencyArrayGraph,
    rng: np.random.Generator | None = None,
    vertex_samples: int = 32,
    max_neighborhood: int = 256,
    *,
    seed: int | None = None,
) -> int:
    """Sublinear-style lower-bound estimate of β(G) by vertex sampling.

    Runs the exact per-neighborhood branch-and-bound on a random sample
    of (high-degree-biased) vertices.  Always a valid lower bound on
    β(G); with the bias toward large neighborhoods it finds the true β
    on all our generator families in practice.  Useful when a caller
    needs a β to feed :mod:`repro.core.delta` but does not know the
    family certificate — underestimating β risks quality, so pair it
    with a safety factor.
    """
    from repro.instrument.rng import resolve_rng

    gen = resolve_rng(seed=seed, rng=rng,
                      owner="neighborhood_independence_sampled")
    n = graph.num_vertices
    if n == 0:
        return 0
    degrees = np.diff(graph.indptr).astype(np.float64)
    total = degrees.sum()
    if total == 0:
        return 0
    k = min(vertex_samples, n)
    # Degree-biased sample plus the top-degree vertex for good measure.
    probs = degrees / total
    chosen = set(int(v) for v in gen.choice(n, size=k, replace=True, p=probs))
    chosen.add(int(np.argmax(degrees)))
    beta = 0
    for v in chosen:
        deg = int(degrees[v])
        if deg <= beta:
            continue
        if deg > max_neighborhood:
            raise ValueError(
                f"sampled vertex {v} has degree {deg} > max_neighborhood="
                f"{max_neighborhood}"
            )
        adj, size = _neighborhood_subgraph_bitsets(graph, v)
        beta = max(beta, _independence_number_bitset(adj, size))
    return beta


def is_beta_at_most(graph: AdjacencyArrayGraph, beta: int,
                    max_neighborhood: int = 64) -> bool:
    """Check β(G) ≤ beta exactly (early-exits on the first violation)."""
    for v in range(graph.num_vertices):
        deg = int(graph.indptr[v + 1] - graph.indptr[v])
        if deg <= beta:
            continue
        if deg > max_neighborhood:
            raise ValueError(
                f"vertex {v} has degree {deg} > max_neighborhood={max_neighborhood}"
            )
        adj, k = _neighborhood_subgraph_bitsets(graph, v)
        if _independence_number_bitset(adj, k) > beta:
            return False
    return True
