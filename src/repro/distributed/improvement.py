"""Distributed elimination of short augmenting paths → (1+1/k)-approx MCM.

This is the improvement engine standing in for Even–Medina–Ron [34]
(DESIGN.md §4(2)).  Given a maximal matching on a bounded-degree graph, it
repeatedly finds and applies a vertex-disjoint set of augmenting paths of
length ≤ 2k−1, until none exist.  By the Hopcroft–Karp lemma, a matching
with no augmenting path shorter than 2k+1 is a (1+1/k)-approximation, so
running with k = ⌈1/ε⌉ yields (1+ε).

Each outer *iteration* is a genuinely local computation:

1. **Ball flooding** (L = 2k−1 rounds): every vertex repeatedly sends its
   accumulated (edge, matched?) knowledge to all neighbors; afterwards
   each vertex knows its radius-L ball and the matching inside it.
2. **Candidate paths**: every free vertex locally and *exhaustively*
   enumerates alternating simple paths of length ≤ L from itself to
   another free vertex in its ball, keeps the first one found, and tags
   it with a random priority.  Exhaustive bounded-length search is exact,
   which is what certifies termination ⇒ no short augmenting path.
3. **Candidate flooding** (2L rounds): candidate descriptors travel far
   enough that any two vertex-sharing candidates see each other.
4. **Resolution + announce** (1 round): a candidate wins iff its
   (priority, initiator) pair is strictly smallest among all candidates
   it shares a vertex with; winners are vertex-disjoint by construction
   and are augmented; endpoints announce their new matched status.

The globally smallest candidate always wins, so every iteration makes
progress and the loop terminates within |MCM| iterations (far fewer in
practice — geometrically many disjoint winners per iteration).
"""

from __future__ import annotations

import numpy as np

from repro.distributed.network import Message, Protocol, SyncNetwork
from repro.instrument.rng import resolve_rng
from repro.matching.matching import Matching

Edge = tuple[int, int]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def find_short_augmenting_path(
    edges_matched: dict[Edge, bool],
    start: int,
    mate: dict[int, int],
    max_len: int,
) -> list[int] | None:
    """Exhaustive DFS for an alternating simple path of length ≤ max_len
    from free vertex ``start`` to a different free vertex.

    ``edges_matched`` maps each known edge to whether it is matched.
    Exactness for bounded length: the search explores *all* alternating
    simple paths up to the bound, so it returns None iff none exists
    within the known ball.
    """
    adjacency: dict[int, list[int]] = {}
    for (a, b) in edges_matched:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    path = [start]
    on_path = {start}

    def dfs(v: int, need_matched: bool, length: int) -> list[int] | None:
        if length >= max_len:
            return None
        for u in adjacency.get(v, ()):
            if u in on_path:
                continue
            if edges_matched[_norm(v, u)] != need_matched:
                continue
            path.append(u)
            on_path.add(u)
            if not need_matched and mate.get(u, -1) == -1 and u != start:
                return list(path)  # ends free via an unmatched edge
            result = dfs(u, not need_matched, length + 1)
            if result is not None:
                return result
            path.pop()
            on_path.remove(u)
        return None

    return dfs(start, need_matched=False, length=0)


class AugmentingPathEliminationProtocol(Protocol):
    """The iterative short-augmenting-path eliminator described above.

    Parameters
    ----------
    k:
        Path-length parameter; eliminates augmenting paths of length
        ≤ 2k−1, yielding a (1+1/k)-approximate MCM.
    initial_mate:
        Mate dict of the starting (maximal) matching on the network graph.
    rng:
        Seed or generator for candidate priorities.
    """

    def __init__(
        self,
        k: int,
        initial_mate: dict[int, int],
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.max_len = 2 * k - 1
        self.mate = dict(initial_mate)
        self._rng = resolve_rng(
            seed=seed, rng=rng, owner="AugmentingPathEliminationProtocol"
        )
        self.iterations = 0

    # -- per-iteration state ------------------------------------------- #
    def setup(self, network: SyncNetwork) -> None:
        self._begin_iteration(network)
        self._done = False
        self._awaiting_first = True
        self.iterations = 0

    def _begin_iteration(self, network: SyncNetwork) -> None:
        n = network.graph.num_vertices
        self._step = 0
        # knowledge[v]: edge -> matched flag, seeded with own incident edges.
        self._knowledge: list[dict[Edge, bool]] = [dict() for _ in range(n)]
        for v in range(n):
            for u in network.neighbors(v):
                e = _norm(v, u)
                self._knowledge[v][e] = self.mate.get(v, -1) == u
        # candidates[v]: (priority, initiator, path) known to v.
        self._candidates: list[dict[int, tuple[float, int, tuple[int, ...]]]] = [
            dict() for _ in range(n)
        ]
        self._progress = False

    def round(self, network: SyncNetwork, v: int, inbox: list[Message]) -> list[Message]:
        L = self.max_len
        step = self._step
        if step < L:
            # Ball flooding: merge inbox, forward current knowledge.
            # (Round 0 may also see stray "changed" announcements from the
            # previous iteration's last round; ignore non-dict payloads.)
            for msg in inbox:
                if isinstance(msg.payload, dict):
                    self._knowledge[v].update(msg.payload)
            payload = dict(self._knowledge[v])
            return [
                Message(src=v, dst=u, payload=payload, bits=32 * max(1, len(payload)))
                for u in network.neighbors(v)
            ]
        if step == L:
            # Merge the final flood round, then compute own candidate.
            for msg in inbox:
                if isinstance(msg.payload, dict):
                    self._knowledge[v].update(msg.payload)
            if self.mate.get(v, -1) == -1:
                found = find_short_augmenting_path(
                    self._knowledge[v], v, self.mate, self.max_len
                )
                if found is not None:
                    priority = float(self._rng.random())
                    self._candidates[v][v] = (priority, v, tuple(found))
            # fall through to flooding candidates (first candidate round).
        if L <= step < 3 * L:
            for msg in inbox:
                if isinstance(msg.payload, dict) and step > L:
                    self._candidates[v].update(msg.payload)
            payload = dict(self._candidates[v])
            if not payload:
                return []
            return [
                Message(src=v, dst=u, payload=payload, bits=64 * len(payload))
                for u in network.neighbors(v)
            ]
        # step == 3L: final merge; winners resolve and announce.
        for msg in inbox:
            if isinstance(msg.payload, dict):
                self._candidates[v].update(msg.payload)
        out: list[Message] = []
        cand = self._candidates[v].get(v)
        if cand is not None and self._wins(v, cand):
            self._augment(cand[2])
            self._progress = True
            out = [
                Message(src=v, dst=u, payload="changed", bits=1)
                for u in network.neighbors(v)
            ]
        return out

    def _wins(self, initiator: int, cand: tuple[float, int, tuple[int, ...]]) -> bool:
        """Strictly-smallest (priority, initiator) among vertex-sharing
        candidates the initiator knows; flooding radius guarantees it
        knows every conflicting candidate."""
        _, _, path = cand
        mine = (cand[0], cand[1])
        path_set = set(path)
        for known in self._candidates[initiator].values():
            if known[1] == initiator:
                continue
            if path_set & set(known[2]) and (known[0], known[1]) < mine:
                return False
        return True

    def _augment(self, path: tuple[int, ...]) -> None:
        """Flip edges along the (odd-length, free-ended) augmenting path.

        Every path vertex gets a new mate, and vertices off the path never
        pointed at path vertices (interior old mates lie on the path and
        endpoints were free), so pairwise reassignment is consistent.
        """
        for i in range(1, len(path), 2):
            a, b = path[i - 1], path[i]
            self.mate[a] = b
            self.mate[b] = a

    def finished(self, network: SyncNetwork) -> bool:
        if self._done:
            return True
        if self._awaiting_first:
            self._awaiting_first = False
            return False  # run round 0
        if self._step < 3 * self.max_len:
            self._step += 1
            return False
        # The resolution round (step 3L) just executed: iteration boundary.
        self.iterations += 1
        if not self._progress:
            self._done = True
            return True
        self._begin_iteration(network)
        return False

    @property
    def matching(self) -> Matching:
        """Current matching as a :class:`Matching` (n inferred from mate)."""
        n = max(self.mate) + 1 if self.mate else 0
        arr = np.full(n, -1, dtype=np.int64)
        for v, u in self.mate.items():
            arr[v] = u
        return Matching(arr)
