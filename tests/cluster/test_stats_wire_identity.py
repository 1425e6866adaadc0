"""Oracle: the latency block of every stats reply is byte-identical to 6.0.0.

Since 6.1.0 a latency sample is rounded to 1e-4 ms once, when it is
recorded, and reads sort the live sample list in place; before, every
read sorted a copy of the raw samples and rounded per sample, and the
cluster merge was a ``heapq.merge``.  Rounding is monotone and
idempotent and a nearest-rank percentile picks a sample, so the replies
must not move a byte.  This test keeps the 6.0.0 definitions as the
reference and drives one seeded stream of raw samples through both,
interleaving ``stats``, ``shard_stats`` and ``cluster_stats`` reads.
"""

import asyncio
from heapq import merge as heapq_merge

import numpy as np
import pytest

from repro.cluster import metrics as cluster_metrics
from repro.cluster.metrics import aggregate_cluster_stats
from repro.service.metrics import LatencyRecorder, percentile_sorted
from repro.service.protocol import encode, ok_response
from repro.service.server import MatchingService

pytestmark = pytest.mark.fast

#: The server-wide budget every shard reports (6.0.0's default, fixed
#: since 7.0.0).
BUDGET_MS = 50.0
#: (session, shard) placement: three sessions on shard 0, two on shard 1.
SESSIONS = (("a", 0), ("b", 0), ("c", 0), ("d", 1), ("e", 1))


class _RecorderV600(LatencyRecorder):
    """``LatencyRecorder`` as of 6.0.0: raw samples, round on every read."""

    def record(self, seconds: float) -> None:
        ms = seconds * 1000.0
        self.samples_ms.append(ms)
        if ms > self.budget_ms:
            self.over_budget += 1

    def snapshot(self) -> dict:
        ordered = sorted(self.samples_ms)
        if not ordered:
            p50 = p95 = p99 = peak = 0.0
        else:
            p50 = percentile_sorted(ordered, 50.0)
            p95 = percentile_sorted(ordered, 95.0)
            p99 = percentile_sorted(ordered, 99.0)
            peak = ordered[-1]
        return {
            "count": len(ordered),
            "p50_ms": round(p50, 4),
            "p95_ms": round(p95, 4),
            "p99_ms": round(p99, 4),
            "max_ms": round(peak, 4),
            "budget_ms": self.budget_ms,
            "over_budget": self.over_budget,
        }


def _shard_stats_v600(service: MatchingService) -> dict:
    """``MatchingService.shard_stats_payload`` as of 6.0.0."""
    counters: dict[str, int] = {}
    samples: list[float] = []
    over_budget = 0
    queue_depth = 0
    max_queue_depth = 0
    for name in sorted(service.sessions):
        session = service.sessions[name]
        for counter, value in session.metrics.counters.snapshot().items():
            counters[counter] = counters.get(counter, 0) + value
        samples.extend(session.metrics.latency.samples_ms)
        over_budget += session.metrics.latency.over_budget
        queue_depth += session.metrics.queue_depth
        max_queue_depth = max(max_queue_depth, session.metrics.max_queue_depth)
    samples.sort()
    return {
        "sessions": sorted(service.sessions),
        "counters": counters,
        "latency": {
            "samples_sorted_ms": [round(s, 4) for s in samples],
            "over_budget": over_budget,
            "budget_ms": BUDGET_MS,
        },
        "queue": {"depth": queue_depth, "max_depth": max_queue_depth},
    }


def _merge_v600(per_shard):
    """``merge_sorted_samples`` as of 6.0.0: a Python-level k-way merge."""
    return list(heapq_merge(*per_shard))


def _raw_ms(rng: np.random.Generator, seen: list[float]) -> float:
    """One raw latency (ms) drawn to exercise every rounding edge."""
    kind = int(rng.integers(8))
    if kind == 0 and seen:
        return seen[int(rng.integers(len(seen)))]       # exact duplicate
    if kind == 1:
        return 0.0
    if kind == 2:                                       # 5e-5 half-point
        return int(rng.integers(200_000)) * 1e-4 + 5e-5
    if kind == 3:                                       # at/just past budget
        return BUDGET_MS + (0.0, 4e-5, 5e-5, 6e-5, 1e-9)[int(rng.integers(5))]
    if kind == 4:
        return BUDGET_MS - (4e-5, 5e-5, 1e-9)[int(rng.integers(3))]
    return float(rng.lognormal(0.0, 1.5))


def _services():
    """(shards under test, reference shards), every session created on both."""
    async def build():
        pairs = []
        for _ in range(2):
            pairs.append((MatchingService(), MatchingService()))
        for name, shard in SESSIONS:
            for service in pairs[shard]:
                await service.handle_request({
                    "op": "create", "session": name, "num_vertices": 8,
                    "beta": 1, "epsilon": 0.5, "seed": 0, "journal": False,
                })
        return pairs

    pairs = asyncio.run(build())
    for _, reference in pairs:
        reference.shard_stats_payload = (
            lambda service=reference: _shard_stats_v600(service))
        for session in reference.sessions.values():
            session.metrics.latency = _RecorderV600(budget_ms=BUDGET_MS)
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _replies(shards, placement, name, merge=None):
    """Encoded replies: ``stats`` of ``name``, its shard's ``shard_stats``,
    and ``cluster_stats`` as the router (all shards) and as a plain
    server (that shard alone) answer it."""
    shard = shards[placement[name]]
    original = cluster_metrics.merge_sorted_samples
    if merge is not None:
        cluster_metrics.merge_sorted_samples = merge
    try:
        return (
            encode(ok_response(**shard.sessions[name].stats_payload())),
            encode(ok_response(**shard.shard_stats_payload())),
            encode(ok_response(**aggregate_cluster_stats(
                [s.shard_stats_payload() for s in shards]))),
            encode(ok_response(**aggregate_cluster_stats(
                [shard.shard_stats_payload()]))),
        )
    finally:
        cluster_metrics.merge_sorted_samples = original


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stats_replies_match_the_600_definitions(seed):
    rng = np.random.default_rng(seed)
    placement = dict(SESSIONS)
    names = sorted(placement)
    shards, reference = _services()
    seen: list[float] = []
    # Read empty sessions first, then interleave bursts with reads.
    for round_no in range(40):
        for _ in range(int(rng.integers(60)) if round_no else 0):
            name = names[int(rng.integers(len(names)))]
            ms = _raw_ms(rng, seen)
            seen.append(ms)
            for shard_set in (shards, reference):
                latency = shard_set[placement[name]].sessions[name].metrics.latency
                latency.record(ms / 1000.0)
        name = names[int(rng.integers(len(names)))]
        got = _replies(shards, placement, name)
        want = _replies(reference, placement, name, merge=_merge_v600)
        assert got == want, f"round {round_no}, session {name!r}"
    counts = [len(shards[k].sessions[name].metrics.latency.samples_ms)
              for name, k in SESSIONS]
    assert sum(counts) == len(seen) and min(counts) > 0
    # The budget-edge draws must have produced misses that round to 50.0.
    assert any(BUDGET_MS < ms < BUDGET_MS + 5e-5 for ms in seen)
    assert sum(shards[k].sessions[name].metrics.latency.over_budget
               for name, k in SESSIONS) > 0
