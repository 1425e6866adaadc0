"""Maintaining G_Δ in a dynamically changing distributed network.

The third setting named in Section 3's opening: "the dynamic distributed
model (where some graph structure has to be maintained in a dynamically
changing distributed network using low local memory at processors,
cf. [7, 27, 56, 75])".  The structure we maintain is the sparsifier
itself, and the protocol is the distributed twin of
:class:`~repro.dynamic.dynamic_sparsifier.DynamicSparsifier`:

* When edge (u, v) is inserted or deleted, only the two endpoint
  processors act: each discards its current marks (sending a 1-bit
  *unmark* along each), resamples Δ random incident edges from its new
  neighborhood, and sends a 1-bit *mark* along each.
* Every processor stores only its own marks (≤ Δ ids) and the set of
  neighbors that marked it — low local memory, measured exactly.
* Message cost per update is ≤ 2·(Δ_old + Δ_new) + O(1) ≤ 4Δ + O(1)
  1-bit messages, independent of n and of the graph's density.

Against an oblivious adversary the maintained edge set is distributed
exactly as a fresh G_Δ (only the updated endpoints' marks are resampled;
all marks remain independent and uniform), so Theorem 2.1 applies at
every time step.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument.counters import CounterSet
from repro.instrument.rng import resolve_rng


class DynamicDistributedSparsifier:
    """Distributed maintenance of G_Δ under topology changes.

    Parameters
    ----------
    num_vertices:
        Number of processors.
    delta:
        Marks per processor.
    rng:
        Seed or generator (split per processor).

    Attributes
    ----------
    graph:
        The live communication topology.
    metrics:
        ``messages`` / ``bits`` counters plus per-update ``messages``
        history in :attr:`messages_per_update`.
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
        self._rng = resolve_rng(
            seed=seed, rng=rng, owner="DynamicDistributedSparsifier"
        )
        self._vertex_rngs = self._rng.spawn(num_vertices)
        #: marks_by_me[v]: neighbors v currently marks (v's local memory).
        self.marks_by_me: list[set[int]] = [set() for _ in range(num_vertices)]
        #: marked_me[v]: neighbors that currently mark v (v's local memory).
        self.marked_me: list[set[int]] = [set() for _ in range(num_vertices)]
        self.metrics = CounterSet()
        self.messages_per_update: list[int] = []

    # ------------------------------------------------------------------ #
    def _send_bit(self, src: int, dst: int, kind: str) -> None:
        """Deliver one 1-bit message; receivers update their local sets."""
        self.metrics["messages"].increment()
        self.metrics["bits"].increment()
        if kind == "mark":
            self.marked_me[dst].add(src)
        else:  # unmark
            self.marked_me[dst].discard(src)

    def _resample(self, v: int) -> int:
        """Processor v discards and resamples its marks; returns messages."""
        sent = 0
        for u in self.marks_by_me[v]:
            self._send_bit(v, u, "unmark")
            sent += 1
        self.marks_by_me[v].clear()
        fresh = self.graph.sample_neighbors(v, self.delta, self._vertex_rngs[v])
        for u in fresh:
            self.marks_by_me[v].add(u)
            self._send_bit(v, u, "mark")
            sent += 1
        return sent

    # ------------------------------------------------------------------ #
    def update(self, op: str, u: int, v: int) -> None:
        """Apply a topology change; only u and v act."""
        if op == "delete":
            # The vanishing link carries no further messages; endpoints
            # drop each other from their local sets first.
            self.marks_by_me[u].discard(v)
            self.marks_by_me[v].discard(u)
            self.marked_me[u].discard(v)
            self.marked_me[v].discard(u)
        self.graph.apply(op, u, v)
        sent = self._resample(u) + self._resample(v)
        self.messages_per_update.append(sent)

    def insert(self, u: int, v: int) -> None:
        """Insert link {u, v}."""
        self.update("insert", u, v)

    def delete(self, u: int, v: int) -> None:
        """Delete link {u, v}."""
        self.update("delete", u, v)

    # ------------------------------------------------------------------ #
    def local_memory(self, v: int) -> int:
        """Words of state held by processor v (own + received marks)."""
        return len(self.marks_by_me[v]) + len(self.marked_me[v])

    def max_local_memory(self) -> int:
        """Largest processor memory right now."""
        return max(
            (self.local_memory(v) for v in range(self.graph.num_vertices)),
            default=0,
        )

    def max_messages_per_update(self) -> int:
        """Worst per-update message count so far (≤ 4Δ + O(1))."""
        return max(self.messages_per_update, default=0)

    def sparsifier_edges(self) -> set[tuple[int, int]]:
        """E(G_Δ) reconstructed from processors' local views."""
        edges: set[tuple[int, int]] = set()
        for v in range(self.graph.num_vertices):
            for u in self.marks_by_me[v]:
                edges.add((v, u) if v < u else (u, v))
        return edges

    def sparsifier(self) -> AdjacencyArrayGraph:
        """Materialize the maintained G_Δ (analysis-side only)."""
        return from_edges(self.graph.num_vertices, sorted(self.sparsifier_edges()))

    def local_view_consistent(self) -> bool:
        """Invariant: marked_me is exactly the transpose of marks_by_me."""
        for v in range(self.graph.num_vertices):
            for u in self.marks_by_me[v]:
                if v not in self.marked_me[u]:
                    return False
        for v in range(self.graph.num_vertices):
            for u in self.marked_me[v]:
                if v not in self.marks_by_me[u]:
                    return False
        return True
