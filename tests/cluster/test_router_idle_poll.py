"""A warm router poll with nothing new merges nothing per shard.

Each :class:`SampleMirror` keeps the union of its shard's samples and
rebuilds it only when a tail brings samples or the session set changes,
so an idle ``cluster_stats`` merges once (the cluster-wide union), not
once per shard more, and repeats the previous reply's bytes.  The
harness is the mirror oracle's: a real :class:`ClusterRouter` over two
in-loop :class:`MatchingService` shards.
"""

import asyncio

import pytest

from repro.cluster import metrics as cluster_metrics
from repro.cluster.metrics import SampleMirror
from tests.cluster.test_router_stats_mirror import (
    SHARDS,
    _call,
    _line,
    _names_on,
    _with_cluster,
)

pytestmark = pytest.mark.fast


def test_an_idle_poll_merges_once_and_repeats_its_bytes(monkeypatch):
    merges = []
    merge = cluster_metrics.merge_sorted_samples

    def counted(per_shard):
        merges.append(len(per_shard))
        return merge(per_shard)

    monkeypatch.setattr(cluster_metrics, "merge_sorted_samples", counted)

    async def body(router, services):
        for shard in range(SHARDS):
            name = _names_on(shard, 1)[0]
            await _call(router, {"op": "create", "session": name,
                                 "num_vertices": 8, "beta": 1,
                                 "epsilon": 0.5, "journal": False})
            latency = services[shard].sessions[name].metrics.latency
            for k in range(100):
                latency.record((k * 37 % 101 + shard) / 1e4)
        polls = []
        for _ in range(3):
            merges.clear()
            polls.append(await router._respond(_line({"op": "cluster_stats"})))
        return polls

    cold, warm, idle = asyncio.run(asyncio.wait_for(_with_cluster(body), 30))
    assert merges == [SHARDS]  # the cluster union only
    assert idle == warm == cold


def test_a_refused_tail_leaves_the_mirror_cold():
    mirror = SampleMirror()
    latency = {"over_budget": 0, "budget_ms": 50.0}
    mirror.fold({"ok": True, "latency": {
        **latency, "tails": {"7": [0, [2.0, 1.0]], "8": [0, [5.0]]}}})
    with pytest.raises(ValueError, match="starts at 3"):
        mirror.fold({"ok": True, "latency": {
            **latency, "tails": {"8": [1, [6.0]], "7": [3, [4.0]]}}})
    assert mirror.request()["since"] == {}
    full = mirror.fold({"ok": True, "latency": {
        **latency, "tails": {"7": [0, [2.0, 1.0, 4.0]]}}})
    assert full["latency"]["samples_sorted_ms"] == [1.0, 2.0, 4.0]


def test_a_restarted_session_is_merged_again():
    mirror = SampleMirror()
    latency = {"over_budget": 0, "budget_ms": 50.0}
    mirror.fold({"ok": True, "latency": {
        **latency, "tails": {"7": [0, [2.0, 1.0]]}}})
    full = mirror.fold({"ok": True, "latency": {
        **latency, "tails": {"7": [0, []]}}})
    assert full["latency"]["samples_sorted_ms"] == []
