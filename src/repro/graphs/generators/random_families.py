"""Random families: G(n, p), bipartite, and β-controlled unions.

``erdos_renyi`` and ``random_bipartite`` serve as *control* workloads —
they do **not** have bounded β, and experiment E1 uses them to show where
the sparsifier's guarantee genuinely depends on β.
``beta_controlled_graph`` plants a target β by overlaying an independent
"spoiler" set into clique neighborhoods.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument.rng import resolve_rng


def erdos_renyi(
    n: int,
    p: float,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> AdjacencyArrayGraph:
    """G(n, p).  β is typically Θ(log n / log(1/(1−p))) — *not* bounded."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p out of range: {p}")
    gen = resolve_rng(seed=seed, rng=rng, owner="erdos_renyi")
    idx = np.arange(n, dtype=np.int64)
    u, v = np.meshgrid(idx, idx, indexing="ij")
    mask = u < v
    pairs = np.column_stack((u[mask], v[mask]))
    keep = gen.random(pairs.shape[0]) < p
    return from_edges(n, pairs[keep])


def random_bipartite(
    left: int,
    right: int,
    p: float,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> AdjacencyArrayGraph:
    """Random bipartite graph: left vertices 0..left−1, right after.

    Bipartite graphs have β equal to the maximum degree side structure —
    unbounded in general; used to exercise the Hopcroft–Karp matcher.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p out of range: {p}")
    gen = resolve_rng(seed=seed, rng=rng, owner="random_bipartite")
    li = np.arange(left, dtype=np.int64)
    ri = np.arange(right, dtype=np.int64) + left
    u, v = np.meshgrid(li, ri, indexing="ij")
    pairs = np.column_stack((u.ravel(), v.ravel()))
    keep = gen.random(pairs.shape[0]) < p
    return from_edges(left + right, pairs[keep])


def claw_free_complement(
    n: int,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> AdjacencyArrayGraph:
    """A dense claw-free graph: the complement of a random bipartite graph.

    If H is triangle-free, its complement is claw-free (β ≤ 2): a claw
    center's independent 3-set in the complement would be a triangle in
    H.  We take H to be a random balanced bipartite graph (triangle-free
    by construction), so the complement has ~n²/4 + noise edges — a
    dense bounded-β family structurally unlike clique unions.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    gen = resolve_rng(seed=seed, rng=rng, owner="claw_free_complement")
    half = n // 2
    idx = np.arange(n, dtype=np.int64)
    u, v = np.meshgrid(idx, idx, indexing="ij")
    mask = u < v
    pairs = np.column_stack((u[mask], v[mask]))
    # H-edge iff endpoints straddle the bipartition AND a coin lands.
    straddles = (pairs[:, 0] < half) != (pairs[:, 1] < half)
    in_h = straddles & (gen.random(pairs.shape[0]) < 0.5)
    return from_edges(n, pairs[~in_h])


def beta_controlled_graph(
    num_blocks: int,
    block_size: int,
    beta: int,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> AdjacencyArrayGraph:
    """Dense graph engineered to have β exactly equal to ``beta``.

    Construction: ``num_blocks`` disjoint cliques of ``block_size``
    vertices (β = 1 so far), plus — for beta ≥ 2 — one *hub* vertex per
    block adjacent to ``beta`` vertices chosen from distinct cliques,
    giving the hub an independent neighborhood of size exactly ``beta``.
    Each clique vertex is targeted by at most one hub, so no other
    neighborhood's independence exceeds ``beta``.  Requires
    num_blocks ≥ beta ≥ 1 and block_size ≥ max(2, beta).
    """
    if beta < 1 or num_blocks < beta or block_size < max(2, beta):
        raise ValueError(
            "need num_blocks >= beta >= 1 and block_size >= max(2, beta)"
        )
    gen = resolve_rng(seed=seed, rng=rng, owner="beta_controlled_graph")
    n_core = num_blocks * block_size
    edges: list[tuple[int, int]] = []
    for c in range(num_blocks):
        base = c * block_size
        for i in range(block_size):
            for j in range(i + 1, block_size):
                edges.append((base + i, base + j))
    if beta == 1:
        return from_edges(n_core, edges)
    # Hubs: one per block, wired into `beta` distinct blocks; unique targets.
    targeted: set[int] = set()
    for h in range(num_blocks):
        hub = n_core + h
        blocks = gen.choice(num_blocks, size=beta, replace=False)
        for b in blocks:
            base = int(b) * block_size
            candidates = [base + i for i in range(block_size)
                          if base + i not in targeted]
            if not candidates:
                continue
            target = candidates[int(gen.integers(len(candidates)))]
            targeted.add(target)
            edges.append((hub, target))
    return from_edges(n_core + num_blocks, edges)
