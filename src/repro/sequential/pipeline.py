"""The centralized sequential pipeline of Theorem 3.1.

Sparsify-then-match: build G_Δ in O(n·Δ) adjacency-array probes
(deterministically, via the pos-array sampler), then run a matcher on the
materialized sparsifier.  Total cost O(n·(β/ε²)·log(1/ε)) — *sublinear* in
m for dense bounded-β graphs — and, by Observation 2.10, the sharper
output-sensitive bound O(|MCM|·(β/ε²)·log(1/ε)).

The input graph is touched **only** through probe-counted O(1) accessors;
:class:`SequentialResult` reports the probe count so experiments E7/E12
can certify sublinearity (probes ≪ 2m), which is the model-level content
of the theorem independent of Python constant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.delta import DeltaPolicy
from repro.core.sparsifier import SamplerName, build_sparsifier
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.counters import Counter
from repro.instrument.rng import resolve_rng
from repro.matching.approx import mcm_approx
from repro.matching.blossom import mcm_exact
from repro.matching.matching import Matching

MatcherName = Literal["exact", "phases"]


@dataclass(frozen=True)
class SequentialResult:
    """Everything the sequential pipeline produced and measured.

    Attributes
    ----------
    matching:
        The (1+ε)-approximate matching of the *input* graph (all its
        edges exist in G and in G_Δ).
    delta:
        The Δ used for the sparsifier.
    probes:
        Adjacency-array probes charged to the input graph during
        sparsification — the quantity Theorem 3.1 bounds by O(n·Δ).
    sparsifier_edges:
        |E(G_Δ)|; Observation 2.10 bounds it by 2·|MCM|·(Δ+β).
    """

    matching: Matching
    delta: int
    probes: int
    sparsifier_edges: int


def approximate_matching(
    graph: AdjacencyArrayGraph,
    beta: int,
    epsilon: float,
    rng: np.random.Generator | None = None,
    policy: DeltaPolicy | None = None,
    matcher: MatcherName = "exact",
    sampler: SamplerName = "pos_array",
    *,
    seed: int | None = None,
) -> SequentialResult:
    """Compute a (1+ε)-approximate MCM in sublinear probes (Theorem 3.1).

    Parameters
    ----------
    graph:
        Input graph with neighborhood independence ≤ ``beta``.
    beta, epsilon:
        Structure and quality parameters; Δ is derived via ``policy``.
    rng, seed:
        Uniform randomness keywords for the sparsifier — an existing
        generator via ``rng=`` or an integer via ``seed=`` (not both).
    policy:
        Δ policy; defaults to :meth:`DeltaPolicy.practical`.
    matcher:
        ``"exact"`` runs the blossom algorithm on G_Δ (default; G_Δ is
        small, so this is cheap and the output inherits exactly the
        sparsifier's (1+ε) factor).  ``"phases"`` runs the phase-limited
        approximate matcher at ε/2 (with the sparsifier also at ε/2, the
        composition stays within 1+ε up to second-order terms).
    sampler:
        Sparsifier sampler; ``"pos_array"`` keeps the probe bound
        deterministic, per §3.1.

    Returns
    -------
    SequentialResult
    """
    pol = policy or DeltaPolicy.practical()
    stage_eps = epsilon if matcher == "exact" else epsilon / 2.0
    delta = pol.delta(beta, stage_eps, graph.num_vertices)
    counter = Counter("probes")
    gen = resolve_rng(seed=seed, rng=rng, owner="approximate_matching")
    result = build_sparsifier(
        graph, delta, rng=gen, sampler=sampler, probe_counter=counter
    )
    if matcher == "exact":
        matching = mcm_exact(result.subgraph)
    elif matcher == "phases":
        matching = mcm_approx(result.subgraph, epsilon=stage_eps)
    else:
        raise ValueError(f"unknown matcher {matcher!r}")
    return SequentialResult(
        matching=matching,
        delta=delta,
        probes=counter.value,
        sparsifier_edges=result.subgraph.num_edges,
    )


def sublinearity_certificate(
    graph: AdjacencyArrayGraph, result: SequentialResult
) -> dict[str, float]:
    """Summarize how sublinear the run was.

    Returns a dict with the probe count, the input size 2m (the cost of
    *reading* the graph, which a linear-time algorithm must pay), and
    their ratio — the headline number of experiment E7.
    """
    input_size = 2 * graph.num_edges
    return {
        "probes": float(result.probes),
        "input_size": float(input_size),
        "probe_fraction": result.probes / input_size if input_size else 0.0,
        "delta": float(result.delta),
    }
