"""The fully dynamic graph substrate.

Standard model (Section 3.3): fixed vertex set, single-edge insertions
and deletions.  Per-vertex adjacency is a dynamic array plus a position
map, giving O(1) insert, O(1) delete (swap-with-last), O(1) degree, and
O(k) uniform k-neighbor sampling — exactly the operations the dynamic
sparsifier maintenance and the windowed rebuilds need.  Beside each
neighbour array sits an aligned array of the canonical ``(min, max)``
edge tuples (one tuple object per edge, shared by both endpoints), so a
sample can be read out as neighbours or as ready-made edge keys.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument import workmeter

#: Above ``deg > _KEY_SAMPLE_MAX_RATIO * k`` the O(deg) random-key draw
#: would cost more than numpy's O(k) ``choice`` (the same ratio numpy
#: uses to pick its own algorithm), so the sampler switches to it.
_KEY_SAMPLE_MAX_RATIO = 50


class DynamicGraph:
    """A mutable undirected graph over a fixed vertex set ``0..n-1``.

    All mutators are O(1); :meth:`snapshot` (O(n+m)) materializes the
    current graph as an immutable :class:`AdjacencyArrayGraph` for
    verification and exact-matching oracles in experiments.
    """

    __slots__ = ("_adj", "_edges", "_pos", "_num_edges", "_non_isolated")

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        self._adj: list[list[int]] = [[] for _ in range(num_vertices)]
        #: ``_edges[v][i]`` is the canonical tuple of {v, _adj[v][i]}.
        self._edges: list[list[tuple[int, int]]] = [
            [] for _ in range(num_vertices)
        ]
        self._pos: list[dict[int, int]] = [{} for _ in range(num_vertices)]
        self._num_edges = 0
        self._non_isolated: set[int] = set()

    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def degree(self, v: int) -> int:
        """Current degree of vertex ``v``."""
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge {u, v} is currently present."""
        return v in self._pos[u]

    def neighbors(self, v: int) -> list[int]:
        """A copy of v's current neighbor list."""
        return list(self._adj[v])

    @property
    def position_index(self) -> list[dict[int, int]]:
        """The live position maps: ``v in position_index[u]`` iff {u, v}
        is present.

        Not a copy: it follows every later mutation, so a rebuild held
        across updates can probe edges without a method call per probe.
        Callers must not mutate it.
        """
        return self._pos

    def _sample(self, rows: list[list], v: int, k: int,
                rng: np.random.Generator) -> list:
        """The one sampler draw: ``rows[v]`` at min(k, deg) uniform picks.

        ``rows`` is ``_adj`` or the aligned ``_edges``, so both
        projections draw the same picks and count the same work.
        """
        row = rows[v]
        deg = len(row)
        meter = workmeter.active()
        if meter is not None:
            meter.count("vertex-scan", "DynamicGraph.sample_neighbors")
        if deg == 0:
            return []
        if k >= deg:
            if meter is not None:
                meter.count("edge-touch", "DynamicGraph.sample_neighbors",
                            deg)
                meter.count("allocation", "DynamicGraph.sample_neighbors")
            return list(row)
        if meter is not None:
            meter.count("rng-draw", "DynamicGraph.sample_neighbors")
            meter.count("edge-touch", "DynamicGraph.sample_neighbors", k)
            meter.count("allocation", "DynamicGraph.sample_neighbors")
        if deg > _KEY_SAMPLE_MAX_RATIO * k:
            picks = rng.choice(deg, size=k, replace=False)
        else:
            picks = rng.random(deg).argpartition(k - 1)[:k]
        return [row[i] for i in picks.tolist()]

    # Hot-loop primitives on the update path (Theorem 3.5's per-update
    # budget): callers thread one long-lived generator through many calls,
    # so a per-call seed= resolution would add overhead and mislead.
    def sample_neighbors(  # repro-lint: ignore[R4]
        self, v: int, k: int, rng: np.random.Generator
    ) -> list[int]:
        """min(k, deg) distinct uniform random neighbors of v, O(k) time.

        ``deg <= k`` returns the whole list without a draw.  Otherwise the
        k smallest of ``deg`` uniform keys pick a uniform k-subset in one
        ``random`` draw plus an O(deg) ``argpartition``, which is O(k)
        while ``deg <= 50·k``; above that (numpy's own ``choice``
        cutoff) one O(k) ``choice`` draw is used instead.
        """
        return self._sample(self._adj, v, k, rng)

    def sample_edges(  # repro-lint: ignore[R4]
        self, v: int, k: int, rng: np.random.Generator
    ) -> list[tuple[int, int]]:
        """The :meth:`sample_neighbors` draw as canonical edge tuples.

        Same picks, same draws and same counted work; the i-th entry is
        ``(min(v, u), max(v, u))`` for the i-th sampled neighbour u.
        """
        return self._sample(self._edges, v, k, rng)

    # ------------------------------------------------------------------ #
    def insert(self, u: int, v: int) -> None:
        """Insert edge {u, v}.

        Raises
        ------
        ValueError
            On self-loops or if the edge already exists.
        """
        if u == v:
            raise ValueError(f"self-loop ({u}, {v})")
        if v in self._pos[u]:
            raise ValueError(f"edge ({u}, {v}) already present")
        edge = (u, v) if u < v else (v, u)
        for a, b in ((u, v), (v, u)):
            self._pos[a][b] = len(self._adj[a])
            self._adj[a].append(b)
            self._edges[a].append(edge)
        self._non_isolated.add(u)
        self._non_isolated.add(v)
        self._num_edges += 1
        meter = workmeter.active()
        if meter is not None:
            meter.count("edge-touch", "DynamicGraph.insert")

    def delete(self, u: int, v: int) -> None:
        """Delete edge {u, v} (swap-with-last, O(1)).

        Raises
        ------
        ValueError
            If the edge is not present.
        """
        if v not in self._pos[u]:
            raise ValueError(f"edge ({u}, {v}) not present")
        for a, b in ((u, v), (v, u)):
            i = self._pos[a].pop(b)
            nbrs, edges = self._adj[a], self._edges[a]
            last = nbrs[-1]
            nbrs[i] = last
            nbrs.pop()
            edges[i] = edges[-1]
            edges.pop()
            if last != b:
                self._pos[a][last] = i
        for w in (u, v):
            if not self._adj[w]:
                self._non_isolated.discard(w)
        self._num_edges -= 1
        meter = workmeter.active()
        if meter is not None:
            meter.count("edge-touch", "DynamicGraph.delete")

    def apply(self, op: str, u: int, v: int) -> None:
        """Apply an ``("insert"|"delete", u, v)`` update."""
        if op == "insert":
            self.insert(u, v)
        elif op == "delete":
            self.delete(u, v)
        else:
            raise ValueError(f"unknown update op {op!r}")

    # ------------------------------------------------------------------ #
    def non_isolated_vertices(self) -> list[int]:
        """Vertices with degree ≥ 1 (a copy; O(n') to produce).

        The windowed rebuild samples only these, which is what makes its
        total cost output-sensitive (Lemma 2.2: n' ≤ (β+2)·|MCM|).
        """
        return sorted(self._non_isolated)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate current edges once each as (u, v) with u < v."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def snapshot(self) -> AdjacencyArrayGraph:
        """Immutable copy of the current graph (O(n+m))."""
        return from_edges(self.num_vertices, list(self.edges()))
