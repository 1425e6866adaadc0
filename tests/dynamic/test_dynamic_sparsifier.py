"""Tests for O(Δ)-update dynamic maintenance of G_Δ."""

import pytest

from repro.dynamic.adversaries import ObliviousAdversary
from repro.dynamic.dynamic_sparsifier import DynamicSparsifier
from repro.graphs.generators import clique_union


class TestDynamicSparsifier:
    def test_marks_track_degree(self):
        ds = DynamicSparsifier(6, delta=2, seed=0)
        ds.insert(0, 1)
        ds.insert(0, 2)
        ds.insert(0, 3)
        assert len(ds.marks(0)) == 2
        assert len(ds.marks(1)) == 1

    def test_edges_subset_of_graph(self):
        host = clique_union(2, 8)
        ds = DynamicSparsifier(host.num_vertices, delta=3, seed=1)
        adv = ObliviousAdversary(list(host.edges()), 0.3, seed=2)
        for _ in range(300):
            upd = adv.next_update()
            if upd is None:
                break
            ds.update(upd.op, upd.u, upd.v)
        live = ds.graph.snapshot()
        for u, v in ds.edges():
            assert live.has_edge(u, v)

    def test_refcount_consistency(self):
        """E(G_Δ) always equals the union of per-vertex marks."""
        host = clique_union(2, 6)
        ds = DynamicSparsifier(host.num_vertices, delta=2, seed=3)
        adv = ObliviousAdversary(list(host.edges()), 0.4, seed=4)
        for _ in range(200):
            upd = adv.next_update()
            if upd is None:
                break
            ds.update(upd.op, upd.u, upd.v)
            recomputed = set()
            for v in range(ds.graph.num_vertices):
                for u in ds.marks(v):
                    recomputed.add((min(u, v), max(u, v)))
            assert recomputed == ds.edges()

    def test_work_bounded_by_4delta_ish(self):
        host = clique_union(2, 20)
        delta = 5
        ds = DynamicSparsifier(host.num_vertices, delta=delta, seed=5)
        adv = ObliviousAdversary(list(host.edges()), 0.3, seed=6)
        for _ in range(400):
            upd = adv.next_update()
            if upd is None:
                break
            ds.update(upd.op, upd.u, upd.v)
        assert ds.max_work_per_update() <= 4 * delta + 4

    def test_marks_fresh_after_update(self):
        """After an update touching v, marks(v) = min(delta, deg(v))
        distinct current neighbors."""
        host = clique_union(1, 10)
        ds = DynamicSparsifier(10, delta=3, seed=7)
        for u, v in host.edges():
            ds.insert(u, v)
            for w in (u, v):
                marks = ds.marks(w)
                assert len(marks) == min(3, ds.graph.degree(w))
                assert all(ds.graph.has_edge(w, x) for x in marks)

    def test_sparsifier_materialization(self):
        ds = DynamicSparsifier(4, delta=1, seed=8)
        ds.insert(0, 1)
        ds.insert(2, 3)
        sp = ds.sparsifier()
        assert sp.num_edges == 2

    def test_edge_array_is_the_sorted_edge_set(self):
        assert DynamicSparsifier(3, delta=1, seed=0).edge_array().shape == (0, 2)
        host = clique_union(3, 9)
        ds = DynamicSparsifier(host.num_vertices, delta=3, seed=9)
        adv = ObliviousAdversary(list(host.edges()), 0.3, seed=10)
        for upd in adv.stream(250):
            ds.update(upd.op, upd.u, upd.v)
        edges = ds.edge_array()
        assert edges.dtype == "int64"
        assert [tuple(e) for e in edges.tolist()] == sorted(ds.edges())
        assert sorted(ds.sparsifier().edges()) == sorted(ds.edges())

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            DynamicSparsifier(4, delta=0)
