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

from repro.dynamic.graph import DynamicGraph
from repro.dynamic.stability import stability_factor, StabilityTracker
from repro.dynamic.lazy_rebuild import LazyRebuildMatching
from repro.dynamic.oblivious import ObliviousDynamicMatching
from repro.dynamic.dynamic_sparsifier import DynamicSparsifier
from repro.dynamic.baseline import DynamicMaximalMatching
from repro.dynamic.adversaries import (
    AdaptiveAdversary,
    ObliviousAdversary,
    Update,
)

__all__ = [
    "AdaptiveAdversary",
    "DynamicGraph",
    "DynamicMaximalMatching",
    "DynamicSparsifier",
    "LazyRebuildMatching",
    "ObliviousAdversary",
    "ObliviousDynamicMatching",
    "StabilityTracker",
    "Update",
    "stability_factor",
]
