"""Randomized distributed maximal matching (Israeli–Itai style [53]).

Repeated three-round phases on the communication graph:

1. **Propose** — every free vertex flips a fair coin; heads become
   *senders* and send a 1-bit proposal to one uniformly random neighbor
   they believe to be free.
2. **Accept** — free *receivers* (tails) pick one incoming proposal
   uniformly and send back a 1-bit accept; a (sender, receiver) pair with
   a delivered accept is matched.  Accepts of distinct receivers go to
   distinct senders, so the matched pairs are vertex-disjoint.
3. **Announce** — newly matched vertices tell all their neighbors, who
   prune them from their free-neighbor lists.

Each phase removes a constant fraction of the "live" edges in
expectation, so O(log n) phases suffice with high probability — this is
the O(log n)-round randomized stand-in for the deterministic log*-round
machinery of Even et al. [34] (DESIGN.md §4(2)).  Run on a sparsifier of
maximum degree D, each phase costs O(n·D) messages.

Termination is detected by the simulator's global view (a real network
would piggyback a convergecast; we exclude that bookkeeping from the
counts, as is conventional).
"""

from __future__ import annotations

import numpy as np

from repro.distributed.network import Message, Protocol, SyncNetwork
from repro.instrument.rng import resolve_rng
from repro.matching.matching import Matching


class RandomizedMatchingProtocol(Protocol):
    """Distributed maximal matching; result in :attr:`matching` after run.

    Parameters
    ----------
    rng:
        Seed or generator (split per vertex).
    """

    _PROPOSE, _ACCEPT, _ANNOUNCE = 0, 1, 2

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        self._rng = resolve_rng(
            seed=seed, rng=rng, owner="RandomizedMatchingProtocol"
        )
        self.mate: dict[int, int] = {}
        self.phase_count = 0

    def setup(self, network: SyncNetwork) -> None:
        n = network.graph.num_vertices
        self._vertex_rngs = self._rng.spawn(n)
        self.mate = {v: -1 for v in range(n)}
        self._free_nbrs: dict[int, set[int]] = {
            v: set(network.neighbors(v)) for v in range(n)
        }
        self._stage = self._PROPOSE
        self._is_sender: dict[int, bool] = {}
        self._just_matched: set[int] = set()
        self.phase_count = 0

    # ------------------------------------------------------------------ #
    def _live(self, v: int) -> bool:
        """Free with at least one free neighbor — still has work to do."""
        return self.mate[v] == -1 and bool(self._free_nbrs[v])

    def round(self, network: SyncNetwork, v: int, inbox: list[Message]) -> list[Message]:
        if self._stage == self._PROPOSE:
            if not self._live(v):
                return []
            rng = self._vertex_rngs[v]
            sender = bool(rng.integers(2))
            self._is_sender[v] = sender
            if not sender:
                return []
            target = int(rng.choice(sorted(self._free_nbrs[v])))
            return [Message(src=v, dst=target, payload="propose", bits=1)]

        if self._stage == self._ACCEPT:
            # Only free receivers respond; proposals to matched/sender
            # vertices are dropped.
            if self.mate[v] != -1 or self._is_sender.get(v, False):
                return []
            proposals = [m.src for m in inbox if self.mate[m.src] == -1]
            if not proposals:
                return []
            chosen = int(self._vertex_rngs[v].choice(sorted(proposals)))
            # The accept seals the match; both sides record it here (the
            # sender learns via the delivered accept in the next stage).
            self.mate[v] = chosen
            self.mate[chosen] = v
            self._just_matched.update((v, chosen))
            return [Message(src=v, dst=chosen, payload="accept", bits=1)]

        # _ANNOUNCE stage: newly matched vertices notify neighbors.
        if v in self._just_matched:
            return [
                Message(src=v, dst=u, payload="matched", bits=1)
                for u in network.neighbors(v)
            ]
        return []

    def finished(self, network: SyncNetwork) -> bool:
        if self._stage == self._PROPOSE:
            if not any(self._live(v) for v in self.mate):
                return True
            self._stage = self._ACCEPT
            return False
        if self._stage == self._ACCEPT:
            self._stage = self._ANNOUNCE
            return False
        # End of announce: apply prunes (receivers of "matched" messages
        # do it in finalize/next inbox; we prune from the global state the
        # simulator keeps since the messages were genuinely sent).
        for w in self._just_matched:
            for u in list(self._free_nbrs):
                self._free_nbrs[u].discard(w)
        self._just_matched.clear()
        self._is_sender.clear()
        self._stage = self._PROPOSE
        self.phase_count += 1
        return False

    @property
    def matching(self) -> Matching:
        """The computed matching as a :class:`Matching`."""
        n = len(self.mate)
        mate = np.full(n, -1, dtype=np.int64)
        for v, u in self.mate.items():
            mate[v] = u
        return Matching(mate)
