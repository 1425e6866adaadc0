"""Line graphs: β ≤ 2, the central family in distributed matching.

The line graph L(H) has a vertex per edge of H and an edge between two
H-edges that share an endpoint.  An independent set inside the
neighborhood of an H-edge e = (u, v) corresponds to a set of pairwise
non-adjacent H-edges all touching u or v — at most one per endpoint —
hence β(L(H)) ≤ 2 (Section 1.1).  Matchings in L(H) model *edge*
scheduling in H, the motivating application of example
``examples/job_scheduling_line_graph.py``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument.rng import resolve_rng


def line_graph(
    num_vertices: int, edges: list[tuple[int, int]]
) -> tuple[AdjacencyArrayGraph, list[tuple[int, int]]]:
    """The line graph of the host graph H = (num_vertices, edges).

    Returns
    -------
    (graph, edge_labels):
        ``graph`` is L(H); vertex ``i`` of L(H) corresponds to host edge
        ``edge_labels[i]``.
    """
    labels = sorted({(min(u, v), max(u, v)) for u, v in edges})
    incident: list[list[int]] = [[] for _ in range(num_vertices)]
    for i, (u, v) in enumerate(labels):
        incident[u].append(i)
        incident[v].append(i)
    lg_edges: list[tuple[int, int]] = []
    for bucket in incident:
        for a in range(len(bucket)):
            for b in range(a + 1, len(bucket)):
                lg_edges.append((bucket[a], bucket[b]))
    return from_edges(len(labels), lg_edges), labels


def random_line_graph(
    host_vertices: int,
    host_edge_probability: float,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> AdjacencyArrayGraph:
    """Line graph of a G(n, p) host graph; β ≤ 2.

    Dense hosts give line graphs with Θ(n·d) edges where d is the host's
    average degree, so this family stresses the sparsifier on irregular
    degree distributions.
    """
    if not 0.0 <= host_edge_probability <= 1.0:
        raise ValueError(f"probability out of range: {host_edge_probability}")
    gen = resolve_rng(seed=seed, rng=rng, owner="random_line_graph")
    idx = np.arange(host_vertices, dtype=np.int64)
    u, v = np.meshgrid(idx, idx, indexing="ij")
    mask = u < v
    pairs = np.column_stack((u[mask], v[mask]))
    keep = gen.random(pairs.shape[0]) < host_edge_probability
    host_edges = [tuple(int(x) for x in row) for row in pairs[keep]]
    graph, _ = line_graph(host_vertices, host_edges)
    return graph
