"""Semi-streaming matching: the sparsifier pass vs the greedy baseline.

``streaming_greedy_matching`` is the folklore one-pass 2-approximation
(keep an edge iff both endpoints are currently free) using O(n) memory.
``streaming_approx_matching`` is the sparsifier application: one pass of
per-vertex reservoir sampling (O(n·Δ) memory) followed by offline
matching on the retained subgraph — (1+ε)-approximate on bounded-β
inputs by Theorem 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.delta import DeltaPolicy
from repro.instrument.rng import resolve_rng
from repro.matching.blossom import mcm_exact
from repro.matching.matching import Matching
from repro.streaming.reservoir import streaming_sparsifier
from repro.streaming.stream import EdgeStream


@dataclass(frozen=True)
class StreamingResult:
    """Outcome of a streaming matching run.

    Attributes
    ----------
    matching:
        The computed matching.
    passes:
        Stream passes consumed.
    memory:
        Peak words of edge storage (reservoir slots, or matched pairs
        for the greedy baseline).
    delta:
        Δ used (0 for the baseline).
    """

    matching: Matching
    passes: int
    memory: int
    delta: int


def streaming_greedy_matching(stream: EdgeStream) -> StreamingResult:
    """One-pass greedy maximal matching (2-approx, O(n) memory)."""
    mate = np.full(stream.num_vertices, -1, dtype=np.int64)
    passes_before = stream.passes
    for u, v in stream:
        if mate[u] == -1 and mate[v] == -1:
            mate[u], mate[v] = v, u
    matching = Matching(mate)
    return StreamingResult(
        matching=matching,
        passes=stream.passes - passes_before,
        memory=matching.size,
        delta=0,
    )


def streaming_approx_matching(
    stream: EdgeStream,
    beta: int,
    epsilon: float,
    rng: np.random.Generator | None = None,
    policy: DeltaPolicy | None = None,
    *,
    seed: int | None = None,
) -> StreamingResult:
    """One-pass (1+ε)-approximate matching for bounded-β streams.

    Pass 1 builds G_Δ by per-vertex reservoir sampling; the matching is
    then computed offline on the retained O(n·Δ)-edge subgraph.
    Randomness follows the uniform convention: a generator via ``rng=``
    or an integer via ``seed=`` (not both).
    """
    pol = policy or DeltaPolicy.practical()
    delta = pol.delta(beta, epsilon, stream.num_vertices)
    passes_before = stream.passes
    gen = resolve_rng(seed=seed, rng=rng, owner="streaming_approx_matching")
    sparsifier, memory = streaming_sparsifier(stream, delta, rng=gen)
    matching = mcm_exact(sparsifier)
    return StreamingResult(
        matching=matching,
        passes=stream.passes - passes_before,
        memory=memory,
        delta=delta,
    )
