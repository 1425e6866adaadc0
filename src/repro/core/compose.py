"""The composed bounded-degree sparsifier G̃_Δ of Section 3.2.

Round 1: build the random sparsifier G_Δ — a (1+ε)-sparsifier with
arboricity ≤ 2Δ (Theorem 2.1 + Observation 2.12).
Round 2: run Solomon's bounded-degree sparsifier on G_Δ with α = 2Δ —
another (1+ε) factor, and maximum degree O(Δ/ε) = O((β/ε²)·log(1/ε)).

Total quality: (1+ε)² ≤ 1+3ε for ε < 1; the paper folds this back to 1+ε
by a scaling argument, which :func:`composed_sparsifier` applies when
``rescale=True`` (it runs both stages at ε/3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounded_degree import solomon_degree_bound, solomon_sparsifier
from repro.core.delta import DeltaPolicy
from repro.core.sparsifier import build_sparsifier
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.rng import resolve_rng


@dataclass(frozen=True)
class ComposedSparsifier:
    """Output of the two-round composition.

    Attributes
    ----------
    subgraph:
        G̃_Δ, the final bounded-degree sparsifier.
    intermediate:
        G_Δ from round 1.
    delta:
        Δ used in round 1.
    degree_bound:
        Δ_α, the guaranteed maximum degree of ``subgraph``.
    """

    subgraph: AdjacencyArrayGraph
    intermediate: AdjacencyArrayGraph
    delta: int
    degree_bound: int


def composed_sparsifier(
    graph: AdjacencyArrayGraph,
    beta: int,
    epsilon: float,
    rng: np.random.Generator | None = None,
    policy: DeltaPolicy | None = None,
    rescale: bool = True,
    *,
    seed: int | None = None,
) -> ComposedSparsifier:
    """Build G̃_Δ = Solomon(G_Δ), the two-round bounded-degree sparsifier.

    Parameters
    ----------
    graph:
        Input graph with neighborhood independence ≤ ``beta``.
    beta, epsilon:
        Structure and quality parameters.
    rng:
        Seed or generator for round 1's randomness.
    policy:
        Δ policy (default: the practical policy).
    rescale:
        Run both stages at ε/3 so the composition is a genuine
        (1+ε)-sparsifier (the paper's scaling argument).

    Returns
    -------
    ComposedSparsifier
    """
    stage_eps = epsilon / 3.0 if rescale else epsilon
    pol = policy or DeltaPolicy.practical()
    delta = pol.delta(beta, stage_eps, graph.num_vertices)
    gen = resolve_rng(seed=seed, rng=rng, owner="composed_sparsifier")
    g_delta = build_sparsifier(graph, delta, rng=gen).subgraph
    arboricity = 2 * delta  # Observation 2.12
    tilde = solomon_sparsifier(g_delta, arboricity, stage_eps)
    return ComposedSparsifier(
        subgraph=tilde,
        intermediate=g_delta,
        delta=delta,
        degree_bound=solomon_degree_bound(arboricity, stage_eps),
    )
