"""Per-vertex reservoir sampling: G_Δ in one streaming pass.

Classic reservoir sampling (Vitter's Algorithm R): keep the first Δ
items; the t-th item (t > Δ) replaces a uniform slot with probability
Δ/t.  The reservoir is then a uniform Δ-subset *without replacement* of
the items seen — for a vertex's incident edges, exactly the marking
distribution of the sparsifier's Section 2 definition.  Hence after one
pass the union of all vertex reservoirs is distributed identically to
G_Δ, and Theorem 2.1 applies verbatim.

Memory: Σ_v min(Δ, deg v) ≤ n·Δ edge slots — and, via Observation 2.10,
at most 2·|MCM|·(Δ+β) of them are distinct edges.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.builder import from_edges
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.rng import resolve_rng
from repro.streaming.stream import EdgeStream


class VertexReservoir:
    """A Δ-slot uniform reservoir of one vertex's incident edges.

    Parameters
    ----------
    capacity:
        Δ, the reservoir size.
    rng, seed:
        Uniform randomness keywords: this vertex's private generator via
        ``rng=`` (per-vertex independence is what Observation 2.9 needs —
        :func:`streaming_sparsifier` spawns one child per vertex), or an
        integer ``seed=`` for standalone use.
    """

    __slots__ = ("capacity", "_rng", "_items", "_seen")

    def __init__(
        self,
        capacity: int,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = resolve_rng(seed=seed, rng=rng, owner="VertexReservoir")
        self._items: list[int] = []
        self._seen = 0

    def offer(self, neighbor: int) -> None:
        """Present the next incident edge (identified by its far end)."""
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(neighbor)
            return
        j = int(self._rng.integers(self._seen))
        if j < self.capacity:
            self._items[j] = neighbor

    @property
    def seen(self) -> int:
        """Number of incident edges offered so far (= current degree)."""
        return self._seen

    def sample(self) -> list[int]:
        """The current reservoir contents (min(Δ, deg) distinct ends)."""
        return list(self._items)


def streaming_sparsifier(
    stream: EdgeStream,
    delta: int,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> tuple[AdjacencyArrayGraph, int]:
    """One-pass construction of G_Δ from an edge stream.

    Returns
    -------
    (sparsifier, peak_memory):
        ``sparsifier`` is distributed as G_Δ; ``peak_memory`` is the
        total number of occupied reservoir slots (the algorithm's word
        memory up to constants), which the E13 experiment compares
        against the stream length m.
    """
    gen = resolve_rng(seed=seed, rng=rng, owner="streaming_sparsifier")
    vertex_rngs = gen.spawn(stream.num_vertices)
    reservoirs = [
        VertexReservoir(delta, vertex_rngs[v]) for v in range(stream.num_vertices)
    ]
    for u, v in stream:
        reservoirs[u].offer(v)
        reservoirs[v].offer(u)
    edges: set[tuple[int, int]] = set()
    peak_memory = 0
    for v, reservoir in enumerate(reservoirs):
        sample = reservoir.sample()
        peak_memory += len(sample)
        for u in sample:
            edges.add((v, u) if v < u else (u, v))
    return from_edges(stream.num_vertices, sorted(edges)), peak_memory
