"""The paper's primary contribution: the random matching sparsifier G_Δ.

* :mod:`repro.core.delta` — the Δ(β, ε) policy (Theorem 2.1's constant and
  a calibrated practical one).
* :mod:`repro.core.sparsifier` — G_Δ itself, with both samplers from §3.1.
* :mod:`repro.core.bounded_degree` — Solomon's ITCS'18 bounded-degree
  sparsifier for bounded-arboricity graphs.
* :mod:`repro.core.compose` — the two-round composition G̃_Δ of §3.2.
* :mod:`repro.core.properties` — checkers for Obs 2.10/2.12 and quality.
* :mod:`repro.core.lower_bounds` — Lemma 2.13 / Obs 2.14 constructions.
"""

from repro._lazy import attach

#: Public names and their defining modules, each imported on first
#: access (:mod:`repro._lazy`).
_EXPORTS = {
    "DeltaPolicy": "repro.core.delta",
    "PAPER_CONSTANT": "repro.core.delta",
    "PRACTICAL_CONSTANT": "repro.core.delta",
    "PaperBounds": "repro.core.bounds",
    "RandomSparsifier": "repro.core.sparsifier",
    "SparsifierResult": "repro.core.sparsifier",
    "arboricity_bound_holds": "repro.core.properties",
    "beta_regime_ok": "repro.core.delta",
    "build_sparsifier": "repro.core.sparsifier",
    "composed_sparsifier": "repro.core.compose",
    "delta_paper": "repro.core.delta",
    "delta_practical": "repro.core.delta",
    "size_bound_holds": "repro.core.properties",
    "solomon_sparsifier": "repro.core.bounded_degree",
    "sparsifier_quality": "repro.core.properties",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
