"""Edge-stream abstraction with pass and length accounting."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.rng import resolve_rng


class EdgeStream:
    """A replayable stream of undirected edges.

    Wraps a fixed edge list (optionally shuffled once at construction —
    the *arbitrary order* adversary of streaming lower bounds) and counts
    how many passes consumers take, so algorithms can honestly report
    their pass complexity.

    Parameters
    ----------
    num_vertices:
        Vertex universe size.
    edges:
        The underlying edge list.
    rng:
        If given, the arrival order is a random permutation; otherwise
        the given order is kept.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        self.num_vertices = num_vertices
        order = [(min(u, v), max(u, v)) for u, v in edges]
        if rng is not None or seed is not None:
            gen = resolve_rng(seed=seed, rng=rng, owner="EdgeStream")
            order = [order[i] for i in gen.permutation(len(order))]
        self._edges = order
        self.passes = 0

    @classmethod
    def from_graph(
        cls,
        graph: AdjacencyArrayGraph,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> "EdgeStream":
        """Stream the edges of a materialized graph."""
        return cls(graph.num_vertices, graph.edges(), rng=rng, seed=seed)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        self.passes += 1
        return iter(self._edges)
