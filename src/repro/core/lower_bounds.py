"""The paper's negative results, made executable (Section 2.2.3).

* Lemma 2.13 — *randomization is necessary*: any deterministic marker can
  be fooled into an approximation no better than n/(2Δ).  We realize the
  adversary's strategy concretely: against the canonical deterministic
  marker "mark your first Δ adjacency entries", the adversary presents
  adjacency arrays that list a fixed Δ-vertex decoy set D first.  Every
  marked edge then touches D, so the sparsifier's MCM is ≤ |D| while the
  graph (a clique, β ≤ 2 even after removing the adaptively chosen
  non-edge) has a perfect matching.

* Observation 2.14 — *exactness is impossible*: on two odd cliques joined
  by a bridge, the bridge must be in every MCM, yet it is marked with
  probability exactly 1 − (1 − 2Δ/n)² ≤ 4Δ/n.  We provide the closed form
  and an empirical estimator (experiment E6 overlays the two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.graphs.generators.cliques import two_cliques_with_bridge
from repro.instrument.rng import resolve_rng
from repro.matching.blossom import mcm_exact


# --------------------------------------------------------------------- #
# Lemma 2.13: deterministic marking fails                                #
# --------------------------------------------------------------------- #
def adversarial_clique_ordering(n: int, delta: int) -> list[np.ndarray]:
    """Adjacency arrays for K_n with the decoy set D = {0..Δ−1} listed first.

    Returns per-vertex neighbor arrays in the adversary's order.  Any
    marker that inspects/marks only the first Δ entries of each array
    (the canonical deterministic strategy) sees only edges into D.
    """
    if delta >= n / 2:
        raise ValueError("Lemma 2.13 requires delta < n/2")
    arrays: list[np.ndarray] = []
    decoys = np.arange(delta, dtype=np.int64)
    for v in range(n):
        d = decoys[decoys != v]
        rest = np.array([u for u in range(n) if u != v and u >= delta], dtype=np.int64)
        arrays.append(np.concatenate((d, rest)))
    return arrays


def deterministic_first_delta_sparsifier(
    n: int, delta: int
) -> AdjacencyArrayGraph:
    """The sparsifier a first-Δ deterministic marker builds on the
    adversarial clique ordering; all its edges touch D = {0..Δ−1}."""
    arrays = adversarial_clique_ordering(n, delta)
    edges: set[tuple[int, int]] = set()
    for v, arr in enumerate(arrays):
        for u in arr[:delta]:
            u = int(u)
            edges.add((v, u) if v < u else (u, v))
    return from_edges(n, sorted(edges))


@dataclass(frozen=True)
class DeterministicLowerBoundReport:
    """Measured outcome of the Lemma 2.13 game.

    Attributes
    ----------
    mcm_graph:
        |MCM(K_n)| = ⌊n/2⌋.
    mcm_sparsifier:
        MCM size of the deterministically marked sparsifier (≤ Δ).
    paper_bound:
        The lemma's lower bound n/(2Δ) on the approximation ratio.
    """

    mcm_graph: int
    mcm_sparsifier: int
    paper_bound: float

    @property
    def ratio(self) -> float:
        return self.mcm_graph / max(1, self.mcm_sparsifier)


def run_deterministic_lower_bound(n: int, delta: int) -> DeterministicLowerBoundReport:
    """Play the Lemma 2.13 game and measure the resulting ratio."""
    sparsifier = deterministic_first_delta_sparsifier(n, delta)
    return DeterministicLowerBoundReport(
        mcm_graph=n // 2,
        mcm_sparsifier=mcm_exact(sparsifier).size,
        paper_bound=n / (2.0 * delta),
    )


# --------------------------------------------------------------------- #
# Observation 2.14: exact preservation needs Δ = Ω(n)                    #
# --------------------------------------------------------------------- #
def exact_preservation_probability(half: int, delta: int) -> float:
    """Closed form for P[G_Δ preserves the exact MCM] on the bridge instance.

    Equation (5): the bridge (a, b) survives iff a or b marks it;
    P = 1 − (1 − 2Δ/n)² with n = 2·half, i.e. 1 − (1 − Δ/half)².
    """
    if half < 1 or half % 2 == 0:
        raise ValueError(f"half must be a positive odd integer, got {half}")
    q = max(0.0, 1.0 - delta / half)
    return 1.0 - q * q


def empirical_exact_preservation(
    half: int,
    delta: int,
    trials: int,
    rng: np.random.Generator | None = None,
    check_full_mcm: bool = False,
    *,
    seed: int | None = None,
) -> float:
    """Empirical frequency with which G_Δ preserves the exact MCM size
    on :func:`two_cliques_with_bridge`.

    By default measures bridge survival, which *upper-bounds* exact
    preservation (Observation 2.14's argument: exact ⇒ the bridge was
    marked) and is exactly the closed form of
    :func:`exact_preservation_probability`.  With ``check_full_mcm=True``
    the estimator instead computes |MCM(G_Δ)| per trial (exact but
    slower); tests verify the two agree up to the within-clique matching
    slack on small instances.
    """
    from repro.core.sparsifier import build_sparsifier

    graph = two_cliques_with_bridge(half)
    gen = resolve_rng(seed=seed, rng=rng,
                      owner="empirical_exact_preservation")
    hits = 0
    for _ in range(trials):
        result = build_sparsifier(graph, delta, rng=gen.spawn(1)[0])
        if check_full_mcm:
            if mcm_exact(result.subgraph).size == half:
                hits += 1
        elif result.subgraph.has_edge(0, half):
            hits += 1
    return hits / trials
