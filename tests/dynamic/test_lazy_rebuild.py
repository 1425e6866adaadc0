"""Tests for the Theorem 3.5 windowed-rebuild dynamic matcher."""

import pytest

from repro.dynamic.adversaries import AdaptiveAdversary, ObliviousAdversary
from repro.dynamic.lazy_rebuild import LazyRebuildMatching
from repro.dynamic.oblivious import ObliviousDynamicMatching
from repro.graphs.generators import clique_union


@pytest.fixture
def host():
    return clique_union(3, 10)


class TestInvariantsUnderUpdates:
    def test_matching_always_valid(self, host):
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=0)
        adv = ObliviousAdversary(list(host.edges()), 0.3, seed=1)
        for step in range(300):
            upd = adv.next_update()
            if upd is None:
                break
            alg.update(upd.op, upd.u, upd.v)
            if step % 50 == 0:
                assert alg.matching.is_valid_for(alg.graph.snapshot())
        assert alg.matching.is_valid_for(alg.graph.snapshot())

    def test_work_logged_every_update(self, host):
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=2)
        adv = ObliviousAdversary(list(host.edges()), 0.3, seed=3)
        steps = 0
        for _ in range(100):
            upd = adv.next_update()
            if upd is None:
                break
            alg.update(upd.op, upd.u, upd.v)
            steps += 1
        assert len(alg.work_log) == steps
        assert alg.max_work_per_update() >= 1

    def test_quality_after_stream(self, host):
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=4)
        adv = ObliviousAdversary(list(host.edges()), 0.25, seed=5)
        for _ in range(600):
            upd = adv.next_update()
            if upd is None:
                break
            alg.update(upd.op, upd.u, upd.v)
        assert alg.current_ratio() <= 1.4 + 0.15  # eps + small slack

    def test_rebuilds_happen(self, host):
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=6)
        adv = ObliviousAdversary(list(host.edges()), 0.3, seed=7)
        for _ in range(200):
            upd = adv.next_update()
            if upd is None:
                break
            alg.update(upd.op, upd.u, upd.v)
        assert alg.rebuilds_completed > 0

    def test_adaptive_adversary_quality(self, host):
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=8)
        adv = AdaptiveAdversary(list(host.edges()),
                                observe=lambda: alg.matching,
                                attack_probability=0.5, seed=9)
        for _ in range(600):
            upd = adv.next_update()
            if upd is None:
                break
            alg.update(upd.op, upd.u, upd.v)
        assert adv.attacks > 0
        assert alg.matching.is_valid_for(alg.graph.snapshot())
        assert alg.current_ratio() <= 1.4 + 0.25

    def test_deleting_matched_edge_prunes_output(self, host):
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=10)
        for u, v in host.edges():
            alg.insert(u, v)
        matched = next(iter(alg.matching.edges()), None)
        if matched is None:
            pytest.skip("no matched edge yet")
        u, v = matched
        alg.delete(u, v)
        assert alg.matching.partner(u) != v
        assert alg.matching.is_valid_for(alg.graph.snapshot())


@pytest.mark.fast
@pytest.mark.parametrize("matcher", [LazyRebuildMatching,
                                     ObliviousDynamicMatching])
def test_running_max_work_equals_the_log_maximum(host, matcher):
    """``max_work_per_update`` is kept as work is logged, not rescanned."""
    alg = matcher(host.num_vertices, 1, 0.4, seed=8)
    assert alg.max_work_per_update() == 0
    adv = ObliviousAdversary(list(host.edges()), 0.3, seed=9)
    for update in adv.stream(400):
        alg.update(update.op, update.u, update.v)
        assert alg.max_work_per_update() == max(alg.work_log)
    assert alg.rebuilds_completed > 0


class TestHardWorkCap:
    def test_cap_enforced(self, host):
        cap = 3
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=20,
                                  max_chunks_per_update=cap)
        adv = ObliviousAdversary(list(host.edges()), 0.3, seed=21)
        for _ in range(300):
            upd = adv.next_update()
            if upd is None:
                break
            alg.update(upd.op, upd.u, upd.v)
        assert alg.max_work_per_update() <= cap
        assert alg.matching.is_valid_for(alg.graph.snapshot())

    def test_quality_degrades_gracefully_under_cap(self, host):
        alg = LazyRebuildMatching(host.num_vertices, 1, 0.4, seed=22,
                                  max_chunks_per_update=2)
        adv = ObliviousAdversary(list(host.edges()), 0.25, seed=23)
        for _ in range(600):
            upd = adv.next_update()
            if upd is None:
                break
            alg.update(upd.op, upd.u, upd.v)
        # Still a sane matching (never invalid; size bounded below by
        # what the stale-but-pruned rebuilds maintain).
        assert alg.matching.is_valid_for(alg.graph.snapshot())
        assert alg.current_ratio() < 3.0

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            LazyRebuildMatching(4, 1, 0.5, max_chunks_per_update=0)


class TestConfiguration:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            LazyRebuildMatching(10, 1, 0.0)
        with pytest.raises(ValueError):
            LazyRebuildMatching(10, 1, 1.0)

    def test_insert_delete_shorthand(self):
        alg = LazyRebuildMatching(4, 1, 0.5, seed=11)
        alg.insert(0, 1)
        assert alg.graph.has_edge(0, 1)
        alg.delete(0, 1)
        assert not alg.graph.has_edge(0, 1)

    def test_empty_start_ratio(self):
        alg = LazyRebuildMatching(4, 1, 0.5, seed=12)
        assert alg.current_ratio() == 1.0

    def test_current_ratio_oracle(self):
        alg = LazyRebuildMatching(4, 1, 0.5, seed=13)
        alg.insert(0, 1)
        # Force rebuild progress until the single edge is matched.
        for _ in range(20):
            alg.insert(2, 3)
            alg.delete(2, 3)
        assert alg.current_ratio() < float("inf")
