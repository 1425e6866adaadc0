"""The one-round distributed construction of G_Δ (Section 3.2).

**Unicast mode** (:class:`SparsifierProtocol`, the default): each
processor locally marks Δ random incident edges and sends a **1-bit**
message along each marked edge; an edge belongs to G_Δ iff at least one
of its endpoints marked it.  After the single round, both endpoints of
every sparsifier edge know it (they marked it or received the bit).
Total messages = Σ_v min(Δ, deg v) ≤ n·Δ — the sublinear message bound
of Theorem 3.3's first stage.

**Broadcast mode** (:class:`BroadcastSparsifierProtocol`): §3.2's second
paragraph notes that if transmissions are broadcast (every message
reaches *all* neighbors), a single round still suffices but each message
must carry the list of marked ports — O(Δ·log n) bits — and every edge
carries a message.  Implemented for the contrast: same output
distribution, 2m messages, Δ·⌈log₂ n⌉ bits each.

Identifiers are not needed for the sampling (the KT₀ remark in §3.2):
a node marks *ports*, not ids.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributed.network import Message, Protocol, SyncNetwork
from repro.instrument.rng import resolve_rng


class SparsifierProtocol(Protocol):
    """One-round protocol computing G_Δ.

    After :meth:`SyncNetwork.run` completes, :attr:`edges` holds E(G_Δ)
    and :attr:`known_by` maps each vertex to the sparsifier edges it knows
    about locally (its own marks plus received marks).

    Parameters
    ----------
    delta:
        Marks per vertex.
    rng:
        Seed or generator; split per vertex for independence
        (Observation 2.9).
    """

    def __init__(
        self,
        delta: int,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        self.delta = delta
        self._rng = resolve_rng(
            seed=seed, rng=rng, owner="SparsifierProtocol"
        )
        self._sent = False
        self.edges: set[tuple[int, int]] = set()
        self.known_by: dict[int, set[int]] = {}

    def setup(self, network: SyncNetwork) -> None:
        self._sent = False
        self.edges = set()
        self.known_by = {v: set() for v in range(network.graph.num_vertices)}
        self._vertex_rngs = self._rng.spawn(network.graph.num_vertices)

    def round(self, network: SyncNetwork, v: int, inbox: list[Message]) -> list[Message]:
        deg = network.degree(v)
        k = min(self.delta, deg)
        if k == 0:
            return []
        ports = self._vertex_rngs[v].choice(deg, size=k, replace=False)
        out: list[Message] = []
        for port in ports:
            u = int(network.graph.neighbor(v, int(port)))
            self.edges.add((v, u) if v < u else (u, v))
            self.known_by[v].add(u)
            out.append(Message(src=v, dst=u, payload="mark", bits=1))
        return out

    def finished(self, network: SyncNetwork) -> bool:
        if not self._sent:
            self._sent = True
            return False
        return True

    def finalize(self, network: SyncNetwork, v: int, inbox: list[Message]) -> None:
        # Receiving the final-round marks is free; v learns which incident
        # edges its neighbors marked.
        for msg in inbox:
            self.known_by[v].add(msg.src)


class BroadcastSparsifierProtocol(Protocol):
    """One-round G_Δ under broadcast transmissions (§3.2, paragraph 2).

    Every vertex broadcasts its full list of marked ports to *all*
    neighbors: 2m messages of Δ·⌈log₂ n⌉ bits each, versus unicast's
    ≤ n·Δ one-bit messages.  The computed edge set has exactly the same
    distribution as :class:`SparsifierProtocol`'s; only the communication
    cost differs — experiment tables use the pair to reproduce the
    paper's unicast-vs-broadcast cost contrast.

    Parameters
    ----------
    delta:
        Marks per vertex.
    rng:
        Seed or generator (split per vertex).
    """

    def __init__(
        self,
        delta: int,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        self.delta = delta
        self._rng = resolve_rng(
            seed=seed, rng=rng, owner="BroadcastSparsifierProtocol"
        )
        self._sent = False
        self.edges: set[tuple[int, int]] = set()

    def setup(self, network: SyncNetwork) -> None:
        self._sent = False
        self.edges = set()
        self._vertex_rngs = self._rng.spawn(network.graph.num_vertices)
        n = max(2, network.graph.num_vertices)
        self._id_bits = math.ceil(math.log2(n))

    def round(self, network: SyncNetwork, v: int, inbox: list[Message]) -> list[Message]:
        deg = network.degree(v)
        k = min(self.delta, deg)
        if k == 0:
            return []
        ports = self._vertex_rngs[v].choice(deg, size=k, replace=False)
        marked = sorted(int(network.graph.neighbor(v, int(p))) for p in ports)
        for u in marked:
            self.edges.add((v, u) if v < u else (u, v))
        # Broadcast: the same (port-list) payload goes to EVERY neighbor,
        # marked or not — that is what broadcast means, and why the cost
        # is 2m messages of Delta*log(n) bits.
        payload = tuple(marked)
        bits = max(1, len(marked)) * self._id_bits
        return [
            Message(src=v, dst=u, payload=payload, bits=bits)
            for u in network.neighbors(v)
        ]

    def finished(self, network: SyncNetwork) -> bool:
        if not self._sent:
            self._sent = True
            return False
        return True

    def finalize(self, network: SyncNetwork, v: int, inbox: list[Message]) -> None:
        for msg in inbox:
            if v in msg.payload:
                a, b = msg.src, v
                self.edges.add((a, b) if a < b else (b, a))
