"""Greedy maximal matching — the classic O(m) 2-approximation.

This is both the baseline the paper's (1+ε) results improve on, and the
warm start for the approximate matcher's augmentation sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.rng import resolve_rng
from repro.matching.matching import Matching


def greedy_maximal_matching(
    graph: AdjacencyArrayGraph,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> Matching:
    """Scan edges once, matching any edge whose endpoints are both free.

    Parameters
    ----------
    graph:
        Input graph.
    rng:
        If given, edges are scanned in a random order (useful for the
        randomized distributed baseline and for averaging experiments);
        otherwise in the deterministic CSR order.

    Returns
    -------
    Matching
        A maximal matching; size ≥ |MCM|/2.
    """
    mate = np.full(graph.num_vertices, -1, dtype=np.int64)
    edge_arr = graph.edge_array()
    if rng is not None or seed is not None:
        gen = resolve_rng(seed=seed, rng=rng, owner="greedy_maximal_matching")
        edge_arr = edge_arr[gen.permutation(edge_arr.shape[0])]
    for u, v in edge_arr:
        if mate[u] == -1 and mate[v] == -1:
            mate[u], mate[v] = v, u
    return Matching(mate)
