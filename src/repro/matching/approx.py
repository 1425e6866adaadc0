"""(1+ε)-approximate maximum matching via phase-limited augmentation.

The paper's sequential pipeline (§3.1) invokes the classic
Hopcroft–Karp / Micali–Vazirani (1+ε)-matcher [51, 70, 83] as a black box.
We implement the same *phase paradigm*: start from a greedy maximal
matching (already a 2-approximation), then run sweeps of blossom-based
augmentation; sweep k eliminates the augmenting paths the search finds at
that stage, and the classical phase analysis says ⌈1/ε⌉ shortest-path
phases suffice for a (1+ε) factor.  Our search is the simple blossom BFS
(which explores in breadth-first order and therefore finds short paths
first from each root) rather than Micali–Vazirani's strict
shortest-path machinery — see DESIGN.md §4(1).  Consequently:

* the returned matching is always maximal, hence at worst a
  2-approximation, and converges to exact as sweeps increase;
* the (1+ε) factor is validated *empirically* (tests and experiment E1/E7
  compare against :func:`~repro.matching.blossom.mcm_exact`);
* with ``sweeps=None`` the matcher runs to exhaustion and is exact — the
  sequential pipeline's default on the sparsifier, where exactness is
  affordable because the sparsifier has only O(n·Δ) edges.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.rng import resolve_rng
from repro.matching.blossom import _BlossomSearch
from repro.matching.greedy import greedy_maximal_matching
from repro.matching.matching import Matching


def sweeps_for_epsilon(epsilon: float) -> int:
    """The phase budget ⌈1/ε⌉ + 1 used for a target factor of 1+ε."""
    if not 0 < epsilon:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return math.ceil(1.0 / epsilon) + 1


def mcm_approx(
    graph: AdjacencyArrayGraph,
    epsilon: float | None = None,
    sweeps: int | None = None,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> Matching:
    """Approximate MCM by greedy warm start + bounded augmentation sweeps.

    Parameters
    ----------
    graph:
        Input graph.
    epsilon:
        Target approximation slack; translated to a sweep budget via
        :func:`sweeps_for_epsilon`.  Exactly one of ``epsilon`` / ``sweeps``
        may be given; if neither is, the matcher runs to exhaustion
        (exact).
    sweeps:
        Explicit sweep budget (each sweep tries one augmentation search
        from every currently-free vertex).
    rng:
        Optional randomness for the greedy warm start's edge order.

    Returns
    -------
    Matching
        A maximal matching of size ≥ |MCM|/2 always; empirically within
        1+ε of |MCM| for the sweep budget implied by ``epsilon``.
    """
    if epsilon is not None and sweeps is not None:
        raise ValueError("give at most one of epsilon / sweeps")
    budget = None
    if epsilon is not None:
        budget = sweeps_for_epsilon(epsilon)
    elif sweeps is not None:
        if sweeps < 0:
            raise ValueError(f"sweeps must be non-negative, got {sweeps}")
        budget = sweeps

    warm_rng = None
    if rng is not None or seed is not None:
        warm_rng = resolve_rng(seed=seed, rng=rng, owner="mcm_approx")
    matching = greedy_maximal_matching(graph, rng=warm_rng)
    mate = matching.mate.copy()
    search = _BlossomSearch(graph, mate)
    sweep = 0
    while budget is None or sweep < budget:
        sweep += 1
        augmented = False
        for root in np.flatnonzero(mate < 0):
            root = int(root)
            if mate[root] != -1:
                continue  # matched by an earlier augmentation this sweep
            end = search.find_augmenting_path(root)
            if end != -1:
                search.augment(end)
                augmented = True
        if not augmented:
            break  # exhaustion: matching is exactly maximum (Berge)
    return Matching(mate)
