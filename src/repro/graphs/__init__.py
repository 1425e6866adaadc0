"""Graph substrate: adjacency-array graphs, structural parameters, generators.

The paper's sublinear-time results are stated in the *adjacency array*
model (Section 3.1): the algorithm has O(1) access to ``deg(v)`` and to the
``i``-th neighbor of ``v``, and read-only access otherwise.
:class:`~repro.graphs.adjacency.AdjacencyArrayGraph` implements exactly
that model, with an optional probe counter so experiments can certify
sublinearity.
"""

from repro._lazy import attach

#: Public names and their defining modules, each imported on first
#: access (:mod:`repro._lazy`).
_EXPORTS = {
    "AdjacencyArrayGraph": "repro.graphs.adjacency",
    "SparseArray": "repro.graphs.sparse_array",
    "arboricity_exact_small": "repro.graphs.arboricity",
    "arboricity_lower_bound": "repro.graphs.arboricity",
    "arboricity_upper_bound": "repro.graphs.arboricity",
    "degeneracy": "repro.graphs.arboricity",
    "from_edges": "repro.graphs.builder",
    "from_networkx": "repro.graphs.builder",
    "neighborhood_independence_exact": "repro.graphs.neighborhood",
    "neighborhood_independence_greedy": "repro.graphs.neighborhood",
    "neighborhood_independence_sampled": "repro.graphs.neighborhood",
    "neighborhood_independence_upper": "repro.graphs.neighborhood",
    "to_networkx": "repro.graphs.builder",
    "validate_edge_list": "repro.graphs.builder",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
