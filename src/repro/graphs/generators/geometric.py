"""Geometric intersection families: unit-disk and quasi-unit-disk graphs.

Unit-disk graphs are bounded-growth (Section 1.1): two points at distance
≤ 1 are adjacent, and a packing argument bounds the number of pairwise
independent neighbors of any vertex by a constant (≤ 5 in the plane), so
β ≤ 5.  They model wireless networks — the workload behind
``examples/wireless_scheduling.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument.rng import resolve_rng


def unit_disk_graph(
    num_points: int,
    area_side: float,
    radius: float = 1.0,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> tuple[AdjacencyArrayGraph, np.ndarray]:
    """Random unit-disk graph on uniform points in an ``area_side`` square.

    β ≤ 5 by the planar packing bound.  Density is controlled by the point
    rate num_points / area_side²: shrinking the area with n fixed densifies
    the graph toward a clique while β stays bounded.

    Returns
    -------
    (graph, points):
        ``points`` is the ``(n, 2)`` coordinate array (useful for plotting
        and for the wireless example).
    """
    if num_points < 0:
        raise ValueError(f"num_points must be non-negative, got {num_points}")
    if area_side <= 0 or radius <= 0:
        raise ValueError("area_side and radius must be positive")
    gen = resolve_rng(seed=seed, rng=rng, owner="unit_disk_graph")
    points = gen.random((num_points, 2)) * area_side
    tree = cKDTree(points)
    pairs = tree.query_pairs(r=radius, output_type="ndarray")
    return from_edges(num_points, pairs), points


def quasi_unit_disk_graph(
    num_points: int,
    area_side: float,
    inner_radius: float,
    outer_radius: float,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
) -> tuple[AdjacencyArrayGraph, np.ndarray]:
    """Quasi-unit-disk graph [62]: certain edges below ``inner_radius``,
    impossible above ``outer_radius``, random in between.

    Still bounded-growth, with β bounded by a packing constant depending on
    outer_radius / inner_radius.
    """
    if not 0 < inner_radius <= outer_radius:
        raise ValueError("need 0 < inner_radius <= outer_radius")
    gen = resolve_rng(seed=seed, rng=rng, owner="quasi_unit_disk_graph")
    points = gen.random((num_points, 2)) * area_side
    tree = cKDTree(points)
    pairs = tree.query_pairs(r=outer_radius, output_type="ndarray")
    if pairs.shape[0] == 0:
        return from_edges(num_points, pairs), points
    dist = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    keep = (dist <= inner_radius) | (gen.random(pairs.shape[0]) < 0.5)
    return from_edges(num_points, pairs[keep]), points
