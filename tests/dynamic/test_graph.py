"""Tests for the dynamic graph substrate, incl. a reference-model property."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic.graph import DynamicGraph
from repro.instrument import workmeter
from repro.instrument.rng import sanitize_rng


class TestBasics:
    def test_insert_delete(self):
        g = DynamicGraph(4)
        g.insert(0, 1)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.degree(0) == 1
        g.delete(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 0

    def test_duplicate_insert_rejected(self):
        g = DynamicGraph(3)
        g.insert(0, 1)
        with pytest.raises(ValueError, match="already present"):
            g.insert(1, 0)

    def test_missing_delete_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(ValueError, match="not present"):
            g.delete(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DynamicGraph(3).insert(1, 1)

    def test_apply_dispatch(self):
        g = DynamicGraph(3)
        g.apply("insert", 0, 2)
        assert g.has_edge(0, 2)
        g.apply("delete", 0, 2)
        assert not g.has_edge(0, 2)
        with pytest.raises(ValueError, match="unknown update"):
            g.apply("toggle", 0, 1)

    def test_swap_delete_keeps_positions_consistent(self):
        g = DynamicGraph(5)
        for v in (1, 2, 3, 4):
            g.insert(0, v)
        g.delete(0, 2)  # swap-with-last path
        assert sorted(g.neighbors(0)) == [1, 3, 4]
        g.delete(0, 4)
        assert sorted(g.neighbors(0)) == [1, 3]

    def test_non_isolated_tracking(self):
        g = DynamicGraph(5)
        assert g.non_isolated_vertices() == []
        g.insert(1, 3)
        assert g.non_isolated_vertices() == [1, 3]
        g.delete(1, 3)
        assert g.non_isolated_vertices() == []

    def test_sample_neighbors(self, rng):
        g = DynamicGraph(10)
        for v in range(1, 10):
            g.insert(0, v)
        sample = g.sample_neighbors(0, 4, rng)
        assert len(sample) == 4
        assert len(set(sample)) == 4
        assert all(g.has_edge(0, u) for u in sample)
        assert g.sample_neighbors(5, 4, rng) == [0]
        assert g.sample_neighbors(1, 0, rng) == []
        g2 = DynamicGraph(2)
        assert g2.sample_neighbors(0, 3, rng) == []

    def test_snapshot(self):
        g = DynamicGraph(4)
        g.insert(0, 1)
        g.insert(2, 3)
        snap = g.snapshot()
        assert sorted(snap.edges()) == [(0, 1), (2, 3)]
        assert snap.num_vertices == 4

    def test_negative_vertices(self):
        with pytest.raises(ValueError):
            DynamicGraph(-1)

    def test_position_index_is_live(self):
        g = DynamicGraph(3)
        index = g.position_index
        g.insert(0, 1)
        assert 1 in index[0] and 0 in index[1]
        g.delete(0, 1)
        assert 1 not in index[0]


def _star(degree: int) -> DynamicGraph:
    g = DynamicGraph(degree + 1)
    for v in range(1, degree + 1):
        g.insert(0, v)
    return g


@pytest.mark.fast
class TestSamplerLaw:
    """``sample_neighbors`` draws a uniform k-subset with one draw."""

    #: (deg, k): the random-key path at the matcher's Δ and at a small
    #: k/deg, and the O(k) ``choice`` path above deg = 50·k.
    CASES = [(63, 48), (20, 3), (200, 3)]
    TRIALS = 2000

    @pytest.mark.parametrize("deg,k", CASES)
    def test_inclusion_frequency_is_k_over_deg(self, deg, k):
        g = _star(deg)
        rng = np.random.default_rng(20260101 + deg)
        hits = np.zeros(deg + 1, dtype=np.int64)
        neighbours = set(range(1, deg + 1))
        for _ in range(self.TRIALS):
            sample = g.sample_neighbors(0, k, rng)
            assert len(sample) == len(set(sample)) == k
            assert set(sample) <= neighbours
            hits[sample] += 1
        p = k / deg
        # Each neighbour's count is Binomial(TRIALS, k/deg); six standard
        # deviations bound all of them with room to spare.
        bound = 6 * math.sqrt(self.TRIALS * p * (1 - p))
        assert np.all(np.abs(hits[1:] - self.TRIALS * p) <= bound)
        assert hits[0] == 0

    @pytest.mark.parametrize("deg,k", CASES)
    def test_one_draw_per_sample(self, deg, k):
        g = _star(deg)
        rng = sanitize_rng(np.random.default_rng(1))
        for calls in range(1, 4):
            g.sample_neighbors(0, k, rng)
            assert rng.draws == calls

    @pytest.mark.parametrize("k", [5, 6, 50])
    def test_no_draw_when_degree_at_most_k(self, k):
        g = _star(5)
        rng = sanitize_rng(np.random.default_rng(1))
        assert sorted(g.sample_neighbors(0, k, rng)) == [1, 2, 3, 4, 5]
        assert g.sample_neighbors(1, k, rng) == [0]
        assert DynamicGraph(3).sample_neighbors(0, k, rng) == []
        assert rng.draws == 0

    def test_large_star_returns_k_distinct_neighbours(self):
        g = _star(20_000)
        rng = sanitize_rng(np.random.default_rng(2))
        sample = g.sample_neighbors(0, 48, rng)
        assert len(sample) == len(set(sample)) == 48
        assert all(1 <= u <= 20_000 for u in sample)
        assert rng.draws == 1


def _assert_edge_rows_aligned(g: DynamicGraph) -> None:
    """``_edges[v][i]`` is the canonical tuple of {v, ``_adj[v][i]``},
    one object shared by both endpoints' rows."""
    pos = g.position_index
    for v, (nbrs, edges) in enumerate(zip(g._adj, g._edges)):
        assert edges == [(min(v, u), max(v, u)) for u in nbrs]
        for i, u in enumerate(nbrs):
            assert edges[i] is g._edges[u][pos[u][v]]


def _assert_projections_agree(g: DynamicGraph, v: int, k: int,
                              seed: int) -> None:
    """Both sampler projections draw the same picks and count the same
    work from equal generators."""
    with workmeter.audit() as nbr_meter:
        nbrs = g.sample_neighbors(v, k, np.random.default_rng(seed))
    with workmeter.audit() as edge_meter:
        edges = g.sample_edges(v, k, np.random.default_rng(seed))
    assert edges == [(min(v, u), max(v, u)) for u in nbrs]
    assert edge_meter.sites == nbr_meter.sites


@pytest.mark.fast
class TestSamplerProjections:
    """``sample_edges`` is ``sample_neighbors`` read out as edge tuples."""

    #: (deg, k): deg <= k (no draw), the random-key path, and the O(k)
    #: ``choice`` path above deg = 50·k.
    CASES = [(5, 5), (5, 48), (63, 48), (20, 3), (200, 3)]

    @pytest.mark.parametrize("deg,k", CASES)
    def test_same_picks_and_counted_work(self, deg, k):
        g = _star(deg)
        for seed in range(5):
            _assert_projections_agree(g, 0, k, seed)
            _assert_projections_agree(g, deg, k, seed)

    def test_rows_stay_aligned_through_swap_deletes(self):
        g = _star(6)
        g.insert(1, 2)
        g.delete(0, 3)
        g.delete(0, 1)
        _assert_edge_rows_aligned(g)
        # Two swap-with-last deletes: [1..6] -> [1, 2, 6, 4, 5] -> [5, 2, 6, 4].
        assert g.sample_edges(0, 10, np.random.default_rng(0)) == [
            (0, 5), (0, 2), (0, 6), (0, 4)
        ]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    ops=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=80
    ),
)
def test_matches_networkx_reference(n, ops):
    """Random toggle sequences agree with a NetworkX reference model."""
    ours = DynamicGraph(n)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    for a, b in ops:
        u, v = a % n, b % n
        if u == v:
            continue
        if ref.has_edge(u, v):
            ref.remove_edge(u, v)
            ours.delete(u, v)
        else:
            ref.add_edge(u, v)
            ours.insert(u, v)
        assert ours.num_edges == ref.number_of_edges()
        _assert_edge_rows_aligned(ours)
    assert sorted(ours.edges()) == sorted(
        (min(u, v), max(u, v)) for u, v in ref.edges()
    )
    for v in range(n):
        assert ours.degree(v) == ref.degree(v)
        assert sorted(ours.neighbors(v)) == sorted(ref.neighbors(v))
        # k = 1 and 2 take the random-key path once deg > k; k = deg
        # returns the whole row without a draw.
        for k in {1, 2, max(1, ours.degree(v))}:
            _assert_projections_agree(ours, v, k, seed=v)
    assert set(ours.non_isolated_vertices()) == {
        v for v in range(n) if ref.degree(v) > 0
    }
