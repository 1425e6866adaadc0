"""Dynamic maintenance of G_Δ with O(Δ) worst-case update time.

The oblivious-adversary warm-up at the start of Section 3.3: after every
update touching (u, v), discard the ≤ 2Δ edges currently marked *due to*
u and due to v, and re-mark Δ fresh random incident edges for each.  The
marks of all other vertices are untouched, so the joint distribution of
per-vertex marks stays "fresh uniform" at all times — against an
oblivious adversary, the proof of Theorem 2.1 applies verbatim to the
maintained sparsifier.

Edges are reference-counted (an edge is in G_Δ while at least one
endpoint marks it), so membership updates are O(1) per mark.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument import workmeter
from repro.instrument.rng import resolve_rng


class DynamicSparsifier:
    """Maintains G_Δ of a :class:`DynamicGraph` under edge updates.

    Parameters
    ----------
    num_vertices:
        Fixed vertex set size.
    delta:
        Marks per vertex.
    rng:
        Seed or generator.

    Attributes
    ----------
    graph:
        The live graph (mutated via :meth:`update`).
    work_log:
        Elementary mark operations per update (≤ ~4Δ each; experiment
        E10's sparsifier-maintenance panel plots the maximum).
    """

    def __init__(
        self,
        num_vertices: int,
        delta: int,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        self.graph = DynamicGraph(num_vertices)
        self.delta = delta
        self._rng = resolve_rng(seed=seed, rng=rng, owner="DynamicSparsifier")
        self._marks: list[set[int]] = [set() for _ in range(num_vertices)]
        self._edge_refs: dict[tuple[int, int], int] = {}
        self.work_log: list[int] = []

    # ------------------------------------------------------------------ #
    def _edge(self, u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def _unmark_all(self, v: int) -> int:
        ops = 0
        for u in self._marks[v]:
            ops += 1
            e = self._edge(v, u)
            self._edge_refs[e] -= 1
            if self._edge_refs[e] == 0:
                del self._edge_refs[e]
        self._marks[v].clear()
        meter = workmeter.active()
        if meter is not None:
            meter.count("vertex-scan", "DynamicSparsifier._unmark_all")
            meter.count("edge-touch", "DynamicSparsifier._unmark_all",
                        max(ops, 1))
        return ops

    def _remark(self, v: int) -> int:
        ops = 0
        fresh = self.graph.sample_neighbors(v, self.delta, self._rng)
        for u in fresh:
            ops += 1
            self._marks[v].add(u)
            e = self._edge(v, u)
            self._edge_refs[e] = self._edge_refs.get(e, 0) + 1
        meter = workmeter.active()
        if meter is not None:
            meter.count("vertex-scan", "DynamicSparsifier._remark")
            meter.count("edge-touch", "DynamicSparsifier._remark",
                        max(ops, 1))
        return max(1, ops)

    # ------------------------------------------------------------------ #
    def update(self, op: str, u: int, v: int) -> None:
        """Apply one update; resample marks of both endpoints (O(Δ))."""
        self.graph.apply(op, u, v)
        ops = self._unmark_all(u) + self._unmark_all(v)
        ops += self._remark(u) + self._remark(v)
        self.work_log.append(ops)

    def insert(self, u: int, v: int) -> None:
        """Insert edge {u, v}."""
        self.update("insert", u, v)

    def delete(self, u: int, v: int) -> None:
        """Delete edge {u, v}."""
        self.update("delete", u, v)

    # ------------------------------------------------------------------ #
    def marks(self, v: int) -> frozenset[int]:
        """The neighbors currently marked due to v."""
        return frozenset(self._marks[v])

    def edges(self) -> set[tuple[int, int]]:
        """Current E(G_Δ) as normalized pairs."""
        return set(self._edge_refs)

    def edge_array(self) -> np.ndarray:
        """Current E(G_Δ) as an ``(m, 2)`` int64 array of normalized
        pairs in lexicographic order (the order of ``sorted(edges())``).

        The pairs are ordered by the int64 key ``u·n + v``, one
        ``argsort`` instead of a sort over Python tuples.
        """
        m = len(self._edge_refs)
        pairs = np.fromiter(chain.from_iterable(self._edge_refs),
                            dtype=np.int64, count=2 * m).reshape(m, 2)
        keys = pairs[:, 0] * self.graph.num_vertices + pairs[:, 1]
        return pairs[np.argsort(keys)]

    def sparsifier(self) -> AdjacencyArrayGraph:
        """Materialize the current G_Δ (O(n + |E_Δ|))."""
        return from_edges(self.graph.num_vertices, self.edge_array())

    def max_work_per_update(self) -> int:
        """Maximum mark operations in any single update."""
        return max(self.work_log, default=0)
