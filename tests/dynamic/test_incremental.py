"""Tests for the work-chunked incremental rebuild generator."""

import numpy as np
import pytest

from repro.dynamic.graph import DynamicGraph
from repro.dynamic.incremental import incremental_rebuild
from repro.graphs.generators import clique_union
from repro.instrument import workmeter
from repro.matching.blossom import mcm_exact
from repro.matching.matching import Matching


def _loaded(host):
    g = DynamicGraph(host.num_vertices)
    for u, v in host.edges():
        g.insert(u, v)
    return g


def _drain(gen):
    chunks = 0
    while True:
        try:
            next(gen)
            chunks += 1
        except StopIteration as stop:
            return stop.value, chunks


class TestRebuild:
    def test_produces_valid_matching(self, rng):
        host = clique_union(3, 12)
        g = _loaded(host)
        mate, chunks = _drain(incremental_rebuild(g, 5, 4, rng))
        m = Matching(np.asarray(mate))
        assert m.is_valid_for(g.snapshot())
        assert chunks >= 1

    def test_quality_near_exact(self, rng):
        host = clique_union(3, 20)
        g = _loaded(host)
        mate, _ = _drain(incremental_rebuild(g, 8, 6, rng))
        opt = mcm_exact(g.snapshot()).size
        assert opt <= 1.3 * Matching(np.asarray(mate)).size

    def test_empty_graph(self, rng):
        g = DynamicGraph(5)
        mate, chunks = _drain(incremental_rebuild(g, 3, 2, rng))
        assert Matching(np.asarray(mate)).size == 0

    def test_survives_concurrent_deletions(self, rng):
        """Delete edges between chunks; the final matching must only use
        surviving edges after the driver-side prune (simulated here)."""
        host = clique_union(2, 14)
        g = _loaded(host)
        gen = incremental_rebuild(g, 4, 3, rng, chunk=32)
        edges = list(g.edges())
        i = 0
        while True:
            try:
                next(gen)
                if i < len(edges):
                    u, v = edges[i]
                    if g.has_edge(u, v):
                        g.delete(u, v)
                    i += 1
            except StopIteration as stop:
                mate = np.asarray(stop.value)
                break
        # Driver-side prune (as LazyRebuildMatching does).
        for v in np.flatnonzero(mate >= 0):
            v = int(v)
            u = int(mate[v])
            if v < u and not g.has_edge(v, u):
                mate[v] = -1
                mate[u] = -1
        assert Matching(mate).is_valid_for(g.snapshot())

    def test_chunk_scaling(self, rng):
        """Smaller chunks => more yields, same result quality."""
        host = clique_union(2, 16)
        g = _loaded(host)
        _, chunks_small = _drain(
            incremental_rebuild(g, 4, 3, np.random.default_rng(0), chunk=16)
        )
        _, chunks_big = _drain(
            incremental_rebuild(g, 4, 3, np.random.default_rng(0), chunk=4096)
        )
        assert chunks_small > chunks_big


@pytest.mark.fast
class TestAccountingOracle:
    """Per-stage meter counts of one rebuild follow closed forms."""

    #: Matcher Δ of a β = 1, ε = 0.8 session (Δ(1, 0.2)) and its sweeps.
    DELTA, SWEEPS = 48, 6

    @pytest.mark.parametrize("clique_size", [64, 40])
    def test_stage_counts(self, clique_size):
        g = _loaded(clique_union(2, clique_size))
        n, deg = g.num_vertices, clique_size - 1
        with workmeter.audit() as meter:
            mate, _ = _drain(incremental_rebuild(
                g, self.DELTA, self.SWEEPS, np.random.default_rng(3)))
        counts = meter.sites
        # E_Δ: the union of the same per-vertex samples, redrawn from
        # the same seed in the rebuild's vertex order.
        replay = np.random.default_rng(3)
        e_delta = {tuple(sorted((v, u)))
                   for v in g.non_isolated_vertices()
                   for u in g.sample_neighbors(v, self.DELTA, replay)}
        sample_site = "DynamicGraph.sample_neighbors"
        assert counts[("edge-touch", sample_site)] == n * min(deg, self.DELTA)
        assert counts[("vertex-scan", sample_site)] == n
        assert counts.get(("rng-draw", sample_site), 0) == (
            n if deg > self.DELTA else 0)
        assert counts[("vertex-scan", "incremental_rebuild.sample")] == n
        assert counts[("edge-touch", "incremental_rebuild.build_adj")] == \
            len(e_delta)
        assert counts[("allocation", "incremental_rebuild.build_adj")] == 1
        assert counts[("allocation", "incremental_rebuild.greedy")] == 1
        assert counts[("vertex-scan", "incremental_rebuild.greedy")] == n
        assert counts[("edge-touch", "incremental_rebuild.greedy")] <= \
            2 * len(e_delta)
        sweeps_run, rest = divmod(
            counts[("vertex-scan", "incremental_rebuild.augment")], n)
        assert rest == 0 and 1 <= sweeps_run <= self.SWEEPS
        assert isinstance(mate, np.ndarray) and mate.dtype == np.int64
        assert Matching(mate).is_valid_for(g.snapshot())
