"""The fully dynamic (1+ε)-approximate matching of Theorem 3.5.

Scheme (Section 3.3, after Gupta–Peng [44]): maintain an output matching
M computed by a recent static run; re-use it across a *time window* of
1 + ⌊(ε/4)·|M|⌋ updates (Lemma 3.4 keeps it (1+ε)-approximate, pruning
deleted edges); meanwhile, simulate the next static computation a bounded
number of work chunks per update, and swap it in when it completes.

Key properties reproduced and measured:

* **Deterministic worst-case update work.**  Every update performs O(1)
  bookkeeping plus at most ``chunks_per_update`` chunks of the simulated
  rebuild; the exact chunk count is recorded per update
  (:attr:`work_log`), and experiment E10 reports its maximum.
* **Adaptive-adversary safety.**  The output matching visible to the
  adversary is always a *finished, deterministic-from-here* object; the
  randomness of the in-progress rebuild never influences the output
  until the swap, and Lemma 3.4's guarantee is deterministic.  The
  adversary can therefore adapt all it wants — experiment E10 runs one
  that targets matched edges.

The per-update chunk budget is self-tuned: each completed rebuild records
its total chunk cost T and the next window's budget is ⌈T / W⌉ with
W = 1 + ⌊(ε/4)·|M|⌋ — the paper's "simulate T/W steps per update",
with T estimated by the previous run instead of an a-priori bound.

That window/budget/pump/swap/prune machinery is :class:`WindowedRebuild`,
shared with :class:`~repro.dynamic.oblivious.ObliviousDynamicMatching`;
each matcher supplies only its rebuild generator and its graph upkeep.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.delta import DeltaPolicy
from repro.dynamic.graph import DynamicGraph
from repro.dynamic.incremental import incremental_rebuild
from repro.instrument import workmeter
from repro.instrument.rng import resolve_rng
from repro.matching.matching import Matching


class WindowedRebuild:
    """The Gupta–Peng windowed-rebuild engine of Section 3.3.

    Holds the output matching of the last completed static run and
    re-uses it for a window of W = 1 + ⌊(ε/4)·|M|⌋ updates, while the
    next run is simulated ⌈T/W⌉ chunks per update (T: the previous
    run's chunk cost), optionally capped at ``max_chunks_per_update``.
    A completed run is swapped in after pruning the edges deleted while
    it was in flight.

    Subclasses provide ``graph`` (the live :class:`DynamicGraph` the
    prune probes), ``_rebuild_generator()`` (yields once per chunk and
    returns a mate array), and an ``update`` that keeps their graph
    current, calls :meth:`_advance` and logs the update's work with
    :meth:`_log_work`.  They call :meth:`_start_rebuild` once their own
    state exists.
    """

    def __init__(
        self,
        num_vertices: int,
        epsilon: float,
        max_chunks_per_update: int | None = None,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        if max_chunks_per_update is not None and max_chunks_per_update < 1:
            raise ValueError("max_chunks_per_update must be >= 1")
        self.epsilon = epsilon
        self._max_chunks = max_chunks_per_update
        self._mate = np.full(num_vertices, -1, dtype=np.int64)
        self._rebuild = None
        self._rebuild_chunks = 0
        self._last_rebuild_cost = 1
        self._budget = 1
        self.work_log: list[int] = []
        self._max_work = 0
        self.rebuilds_completed = 0

    # ------------------------------------------------------------------ #
    @property
    def matching(self) -> Matching:
        """The currently maintained matching (always valid in the graph)."""
        return Matching(self._mate.copy())

    # The read accessors below answer from the served mate array itself:
    # no copy and no involution check.  Every array they can see is an
    # involution by construction (a swap prunes a rebuild's matching,
    # ``_advance`` clears both ends of a deleted edge), and a session
    # re-checks each swapped-in array through :attr:`matching` before
    # any read is answered (``Session._advance_certificate``).
    @property
    def matching_size(self) -> int:
        """Number of matched edges of the served matching."""
        return int(np.count_nonzero(self._mate >= 0)) // 2

    def matched_pairs(self) -> list[list[int]]:
        """The matched pairs ``[u, mate[u]]`` with ``u < mate[u]``,
        ascending in ``u`` (a fresh list; the caller may keep it)."""
        return [[u, v] for u, v in enumerate(self._mate.tolist()) if u < v]

    def _window(self) -> int:
        return 1 + int(math.floor((self.epsilon / 4.0) * self.matching_size))

    def _start_rebuild(self) -> None:
        self._rebuild = self._rebuild_generator()
        self._rebuild_chunks = 0
        self._budget = max(1, math.ceil(self._last_rebuild_cost / self._window()))
        if self._max_chunks is not None:
            self._budget = min(self._budget, self._max_chunks)

    def _pump(self) -> int:
        """Advance the in-progress rebuild by ≤ budget chunks; swap on
        completion.  Returns chunks consumed."""
        consumed = 0
        while consumed < self._budget:
            try:
                next(self._rebuild)
                consumed += 1
                self._rebuild_chunks += 1
            except StopIteration as stop:
                # Runs once per *completed rebuild* (amortized over the
                # whole update window), not per pumped chunk.
                new_mate = np.asarray(
                    stop.value, dtype=np.int64
                )
                # Prune edges deleted while the rebuild was in flight.
                # Candidate endpoints are selected vectorized (one pass
                # over the mate array); only the surviving lower
                # endpoints hit the O(1) has_edge probe.
                matched = np.flatnonzero(new_mate >= 0)
                lower = matched[matched < new_mate[matched]]
                partners = new_mate[lower]
                for v, u in zip(lower.tolist(), partners.tolist()):
                    if not self.graph.has_edge(v, u):
                        new_mate[v] = -1
                        new_mate[u] = -1
                meter = workmeter.active()
                if meter is not None:
                    meter.count("edge-touch", "WindowedRebuild.prune",
                                max(int(lower.size), 1))
                self._mate = new_mate
                self.rebuilds_completed += 1
                self._last_rebuild_cost = max(1, self._rebuild_chunks)
                self._start_rebuild()
                break
        return consumed

    def _advance(self, op: str, u: int, v: int) -> int:
        """Drop a deleted matched edge, then pump; returns chunks consumed.

        Called by ``update`` after the subclass has applied the edge
        update to its graph.
        """
        if op == "delete" and self._mate[u] == v:
            self._mate[u] = -1
            self._mate[v] = -1
        return self._pump()

    def _log_work(self, work: int) -> None:
        """Record one update's work in :attr:`work_log` and the maximum."""
        self.work_log.append(work)
        if work > self._max_work:
            self._max_work = work

    # ------------------------------------------------------------------ #
    def insert(self, u: int, v: int) -> None:
        """Insert edge {u, v}."""
        self.update("insert", u, v)

    def delete(self, u: int, v: int) -> None:
        """Delete edge {u, v}."""
        self.update("delete", u, v)

    def max_work_per_update(self) -> int:
        """Maximum work of any single update so far, kept as updates are
        logged (O(1); clearing :attr:`work_log` does not reset it)."""
        return self._max_work


class LazyRebuildMatching(WindowedRebuild):
    """Maintains a (1+ε)-approximate MCM under fully dynamic updates.

    Parameters
    ----------
    num_vertices:
        Size of the fixed vertex set.
    beta:
        Neighborhood-independence bound the update stream promises.
    epsilon:
        Target approximation slack (the static runs use ε/4 per the
        paper's scaling argument).
    rng:
        Seed or generator for the sparsifier sampling inside rebuilds.
    policy:
        Δ policy (default practical).
    max_chunks_per_update:
        Optional *hard* cap on per-update work, enforcing the theorem's
        budget literally.  With a cap, a rebuild that would need more
        than cap·window chunks simply finishes later; the matching
        quality degrades gracefully (Lemma 3.4's guarantee stretches)
        and is measured, never assumed.  Default: uncapped (the
        self-tuned ⌈T/W⌉ budget only).

    Attributes
    ----------
    graph:
        The live :class:`DynamicGraph` (mutated by :meth:`update`).
    work_log:
        Chunks of rebuild work performed at each update — the quantity
        whose maximum Theorem 3.5 bounds.
    rebuilds_completed:
        Number of static rebuilds swapped in so far.
    """

    def __init__(
        self,
        num_vertices: int,
        beta: int,
        epsilon: float,
        rng: np.random.Generator | None = None,
        policy: DeltaPolicy | None = None,
        max_chunks_per_update: int | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        super().__init__(num_vertices, epsilon, max_chunks_per_update)
        self.graph = DynamicGraph(num_vertices)
        self.beta = beta
        self._static_eps = epsilon / 4.0
        self._policy = policy or DeltaPolicy.practical()
        self.delta = self._policy.delta(beta, self._static_eps, num_vertices)
        self._sweeps = math.ceil(1.0 / self._static_eps) + 1
        self._rng = resolve_rng(seed=seed, rng=rng, owner="LazyRebuildMatching")
        self._start_rebuild()

    # ------------------------------------------------------------------ #
    def _rebuild_generator(self):
        """A fresh Theorem 3.5 static run: new Δ-samples every rebuild."""
        return incremental_rebuild(
            self.graph,
            self.delta,
            self._sweeps,
            self._rng.spawn(1)[0],
        )

    # ------------------------------------------------------------------ #
    def update(self, op: str, u: int, v: int) -> None:
        """Apply one edge update and do the bounded per-update work."""
        self.graph.apply(op, u, v)
        self._log_work(self._advance(op, u, v))

    def current_ratio(self) -> float:
        """Exact approximation ratio right now (oracle; for experiments).

        Computes |MCM(G)| on a snapshot — expensive, test/bench use only.
        """
        from repro.matching.blossom import mcm_exact

        opt = mcm_exact(self.graph.snapshot()).size
        size = self.matching.size
        if opt == 0:
            return 1.0
        if size == 0:
            return float("inf")
        return opt / size
