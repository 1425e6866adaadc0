"""Fully dynamic (1+ε)-approximate matching (Theorem 3.5) and baselines.

* :mod:`repro.dynamic.graph` — the dynamic adjacency substrate (O(1)
  insert / delete / uniform neighbor sample).
* :mod:`repro.dynamic.stability` — Lemma 3.4 (Gupta–Peng stability).
* :mod:`repro.dynamic.lazy_rebuild` — the Theorem 3.5 algorithm: windowed
  rebuilds, work spread per update for a deterministic worst-case bound,
  correct against an adaptive adversary; its ``WindowedRebuild`` core is
  shared with :mod:`repro.dynamic.oblivious`, the maintained-G_Δ matcher.
* :mod:`repro.dynamic.dynamic_sparsifier` — O(Δ)-update maintenance of
  G_Δ itself (the oblivious-adversary warm-up of §3.3).
* :mod:`repro.dynamic.baseline` — deterministic 2-approximation baseline
  (Barenboim–Maimon surrogate, DESIGN.md §4(3)).
* :mod:`repro.dynamic.adversaries` — oblivious and adaptive update
  generators for experiment E10.
"""

from repro._lazy import attach

#: Public names and their defining modules, each imported on first
#: access (:mod:`repro._lazy`).
_EXPORTS = {
    "AdaptiveAdversary": "repro.dynamic.adversaries",
    "DynamicGraph": "repro.dynamic.graph",
    "DynamicMaximalMatching": "repro.dynamic.baseline",
    "DynamicSparsifier": "repro.dynamic.dynamic_sparsifier",
    "LazyRebuildMatching": "repro.dynamic.lazy_rebuild",
    "ObliviousAdversary": "repro.dynamic.adversaries",
    "ObliviousDynamicMatching": "repro.dynamic.oblivious",
    "StabilityTracker": "repro.dynamic.stability",
    "Update": "repro.dynamic.adversaries",
    "stability_factor": "repro.dynamic.stability",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
