"""Constructing :class:`AdjacencyArrayGraph` instances and NetworkX interop.

The builder is the single validated entry point: it rejects self-loops,
deduplicates parallel edges, symmetrizes, and sorts neighbor lists so that
:meth:`AdjacencyArrayGraph.has_edge` can binary-search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph

if TYPE_CHECKING:
    import networkx as nx

EdgeList = Sequence[tuple[int, int]] | np.ndarray


def validate_edge_list(edges: EdgeList, num_vertices: int) -> np.ndarray:
    """Normalize ``edges`` to a deduplicated ``(m, 2)`` array with u < v.

    Raises
    ------
    ValueError
        On self-loops or endpoints outside ``[0, num_vertices)``.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2)-shaped, got {arr.shape}")
    if np.any(arr < 0) or np.any(arr >= num_vertices):
        raise ValueError("edge endpoint out of range")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise ValueError("self-loops are not allowed")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if num_vertices and num_vertices < 3_000_000_000:
        # Composite-key dedup: ~10x faster than np.unique(axis=0).  The
        # sort and adjacent-difference mask are what np.unique does on a
        # 1-D key, without its lazy import of numpy.ma (~10 ms inside
        # the first request a server builds a graph for).
        key = np.sort(lo * np.int64(num_vertices) + hi)
        keep = np.empty(key.shape, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        return np.column_stack((key // num_vertices, key % num_vertices))
    return np.unique(np.column_stack((lo, hi)), axis=0)


def from_edges(num_vertices: int, edges: EdgeList) -> AdjacencyArrayGraph:
    """Build a graph on ``num_vertices`` vertices from an edge list.

    Parallel edges are silently deduplicated; self-loops raise.

    Examples
    --------
    >>> g = from_edges(3, [(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    """
    if num_vertices < 0:
        raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
    normalized = validate_edge_list(edges, num_vertices)
    if normalized.shape[0] == 0:
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        return AdjacencyArrayGraph(indptr, np.empty(0, dtype=np.int64))
    # Symmetrize, then bucket by source with a counting sort (vectorized).
    src = np.concatenate((normalized[:, 0], normalized[:, 1]))
    dst = np.concatenate((normalized[:, 1], normalized[:, 0]))
    if num_vertices < 3_000_000_000:
        order = np.argsort(src * np.int64(num_vertices) + dst)
    else:  # pragma: no cover - beyond composite-key range
        order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return AdjacencyArrayGraph(indptr, dst)


def from_networkx(graph: nx.Graph) -> tuple[AdjacencyArrayGraph, dict]:
    """Convert a NetworkX graph; returns (graph, node→index mapping)."""
    nodes = list(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in graph.edges() if u != v]
    return from_edges(len(nodes), edges), index


def to_networkx(graph: AdjacencyArrayGraph) -> nx.Graph:
    """Convert to a NetworkX graph on nodes ``0..n-1`` (isolated included)."""
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.num_vertices))
    nxg.add_edges_from(graph.edges())
    return nxg


def subgraph_from_edges(
    parent: AdjacencyArrayGraph, edges: Iterable[tuple[int, int]]
) -> AdjacencyArrayGraph:
    """Build the subgraph of ``parent`` consisting of ``edges``.

    The vertex set is preserved (same ``n``); this is how sparsifiers are
    materialized.  Each edge must exist in ``parent``.
    """
    edge_list = list(edges)
    for u, v in edge_list:
        if not parent.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present in parent graph")
    return from_edges(parent.num_vertices, edge_list)
