"""repro — matching sparsifiers for graphs of bounded neighborhood independence.

A full reproduction of Milenković & Solomon, *"A Unified Sparsification
Approach for Matching Problems in Graphs of Bounded Neighborhood
Independence"* (SPAA 2020).  The core object is the random sparsifier
G_Δ: every vertex marks Δ = Θ((β/ε)·log(1/ε)) random incident edges and
G_Δ is the union of the marks — a (1+ε)-matching sparsifier w.h.p.
(Theorem 2.1).  On top of it the package provides the paper's three
applications: a sublinear-probe sequential (1+ε)-matcher (Theorem 3.1),
distributed pipelines with round/message accounting (Theorems 3.2/3.3),
and a fully dynamic matcher with worst-case bounded update work that is
safe against adaptive adversaries (Theorem 3.5).

Quickstart
----------
>>> from repro import approx_mcm, mcm_exact, sparsify
>>> from repro.graphs.generators import clique_union
>>> g = clique_union(10, 40)                 # dense, beta = 1
>>> result = sparsify(g, beta=1, epsilon=0.2, seed=0)
>>> mcm_exact(result.subgraph).size >= mcm_exact(g).size / 1.2
True
>>> approx_mcm(g, beta=1, epsilon=0.2, seed=0).backend
'sequential'

The facade (:mod:`repro.api`) fronts the per-model subpackages; the
model-specific entry points below remain available for full control.
"""

from repro._lazy import attach

#: Every public name and the module that defines it; a name's module is
#: imported on first access (:mod:`repro._lazy`).
_EXPORTS = {
    "AdaptiveAdversary": "repro.dynamic.adversaries",
    "AdjacencyArrayGraph": "repro.graphs.adjacency",
    "ApproxMatchingResult": "repro.api",
    "ContractViolation": "repro.contracts",
    "DeltaPolicy": "repro.core.delta",
    "DynamicMaximalMatching": "repro.dynamic.baseline",
    "DynamicSparsifier": "repro.dynamic.dynamic_sparsifier",
    "EdgeStream": "repro.streaming.stream",
    "LazyRebuildMatching": "repro.dynamic.lazy_rebuild",
    "Matching": "repro.matching.matching",
    "ObliviousAdversary": "repro.dynamic.adversaries",
    "Pipeline": "repro.api",
    "RandomSparsifier": "repro.core.sparsifier",
    "SparsifierResult": "repro.core.sparsifier",
    "approx_mcm": "repro.api",
    "approximate_matching": "repro.sequential.pipeline",
    "build_sparsifier": "repro.core.sparsifier",
    "check_matching": "repro.contracts",
    "check_sparsifier_degree": "repro.contracts",
    "check_subgraph": "repro.contracts",
    "composed_sparsifier": "repro.core.compose",
    "contracts_enabled": "repro.contracts",
    "delta_paper": "repro.core.delta",
    "delta_practical": "repro.core.delta",
    "distributed_approx_matching": "repro.distributed.pipeline",
    "distributed_baseline_matching": "repro.distributed.pipeline",
    "from_edges": "repro.graphs.builder",
    "from_networkx": "repro.graphs.builder",
    "greedy_maximal_matching": "repro.matching.greedy",
    "hopcroft_karp": "repro.matching.hopcroft_karp",
    "mcm_approx": "repro.matching.approx",
    "mcm_exact": "repro.matching.blossom",
    "mpc_approx_matching": "repro.mpc.matching",
    "neighborhood_independence_exact": "repro.graphs.neighborhood",
    "solomon_sparsifier": "repro.core.bounded_degree",
    "sparsifier_quality": "repro.core.properties",
    "sparsify": "repro.api",
    "streaming_approx_matching": "repro.streaming.matching",
    "streaming_greedy_matching": "repro.streaming.matching",
    "to_networkx": "repro.graphs.builder",
}

__all__ = sorted(_EXPORTS)

_export, __dir__ = attach(__name__, _EXPORTS)


def __getattr__(name: str) -> object:
    """Resolve a public name, or ``__version__``, on first access."""
    if name == "__version__":
        from repro._version import package_version

        globals()[name] = version = package_version()
        return version
    return _export(name)
