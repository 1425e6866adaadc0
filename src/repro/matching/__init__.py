"""Matching algorithms: containers, greedy, Hopcroft–Karp, blossom, (1+ε).

All matchers operate on :class:`~repro.graphs.adjacency.AdjacencyArrayGraph`
and return a :class:`~repro.matching.matching.Matching`.  ``mcm_exact``
(the blossom algorithm) is the ground truth every approximation experiment
is measured against; it is itself validated against NetworkX in tests.
"""

from repro._lazy import attach

# ``hopcroft_karp`` names a submodule and its function: importing the
# submodule rebinds the package attribute to the module, after which
# ``__getattr__`` is never asked.  Bind the function eagerly instead.
from repro.matching.hopcroft_karp import hopcroft_karp

#: Public names and their defining modules, each imported on first
#: access (:mod:`repro._lazy`).
_EXPORTS = {
    "GallaiEdmonds": "repro.matching.gallai_edmonds",
    "Matching": "repro.matching.matching",
    "bipartition": "repro.matching.hopcroft_karp",
    "gallai_edmonds_decomposition": "repro.matching.gallai_edmonds",
    "greedy_maximal_matching": "repro.matching.greedy",
    "hopcroft_karp": "repro.matching.hopcroft_karp",
    "is_maximum_matching": "repro.matching.gallai_edmonds",
    "mcm_approx": "repro.matching.approx",
    "mcm_exact": "repro.matching.blossom",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
