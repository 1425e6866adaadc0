"""The oblivious-adversary dynamic matcher — §3.3's first route.

Section 3.3 opens with the simple scheme that works against an
*oblivious* adversary: maintain the sparsifier G_Δ itself under updates
(resample the two touched endpoints, O(Δ) worst-case —
:class:`~repro.dynamic.dynamic_sparsifier.DynamicSparsifier`), and run a
dynamic (1+ε)-matching algorithm on top of it (the paper plugs in
Peleg–Solomon [77]; we substitute the same Gupta–Peng windowed-rebuild
engine used by Theorem 3.5, with the static rebuild reading the
*maintained* sparsifier instead of resampling — that reuse of stale
randomness is exactly why this variant is only oblivious-safe, the
contrast Theorem 3.5 then removes).

Update cost: O(Δ) sparsifier maintenance + a bounded number of rebuild
chunks, all recorded in :attr:`work_log`.
"""

from __future__ import annotations

import numpy as np

from repro.core.delta import DeltaPolicy
from repro.dynamic.dynamic_sparsifier import DynamicSparsifier
from repro.dynamic.incremental import DEFAULT_CHUNK
from repro.dynamic.lazy_rebuild import WindowedRebuild
from repro.instrument.rng import resolve_rng


class ObliviousDynamicMatching(WindowedRebuild):
    """Dynamic (1+ε)-matching via a maintained sparsifier (oblivious only).

    Parameters are those of
    :class:`~repro.dynamic.lazy_rebuild.LazyRebuildMatching` without its
    Δ policy and work cap (Δ is the practical policy's); the difference
    is that rebuilds *read the maintained G_Δ* rather than drawing fresh
    per-rebuild samples, chunked every ``DEFAULT_CHUNK`` edges scanned.

    Attributes
    ----------
    sparsifier:
        The incrementally maintained :class:`DynamicSparsifier`.
    work_log:
        Per-update work: sparsifier mark operations + rebuild steps.
    """

    def __init__(
        self,
        num_vertices: int,
        beta: int,
        epsilon: float,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        super().__init__(num_vertices, epsilon)
        self.beta = beta
        self.delta = DeltaPolicy.practical().delta(
            beta, epsilon / 4.0, num_vertices)
        self.sparsifier = DynamicSparsifier(
            num_vertices,
            self.delta,
            rng=resolve_rng(seed=seed, rng=rng, owner="ObliviousDynamicMatching"),
        )
        self._start_rebuild()

    # ------------------------------------------------------------------ #
    @property
    def graph(self):
        """The live dynamic graph (owned by the sparsifier)."""
        return self.sparsifier.graph

    def _rebuild_generator(self):
        """Greedy matching over the *maintained* sparsifier edge set,
        chunked by edges scanned.

        The edges are snapshotted in lexicographic order before the
        first yield, as one O(|E_Δ| log |E_Δ|) step that no work-meter
        site counts.  ``live`` is the graph's live position map, so the
        scan sees every deletion that races the rebuild.
        """
        mate = [-1] * self._mate.size
        live = self.graph.position_index
        flat = iter(self.sparsifier.edge_array().ravel().tolist())
        scanned = 0
        for u, v in zip(flat, flat):
            scanned += 1
            if mate[u] == -1 and mate[v] == -1 and v in live[u]:
                mate[u], mate[v] = v, u
            if scanned % DEFAULT_CHUNK == 0:
                yield 1
        yield 1
        return np.asarray(mate, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def update(self, op: str, u: int, v: int) -> None:
        """Apply one update: O(Δ) sparsifier maintenance + bounded rebuild."""
        self.sparsifier.update(op, u, v)
        spars_ops = self.sparsifier.work_log[-1]
        self._log_work(spars_ops + self._advance(op, u, v))
