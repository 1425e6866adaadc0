"""Oracle: the read replies are byte-identical to their 8.0.0 definitions.

Since 8.1.0 the read ops answer from the served state: ``query_matching``
and ``stats.matching_size`` read the matcher's mate array in place (no
copy, no involution re-check, no numpy-scalar walk), a lone session's
sorted latency view is not sorted again for ``shard_stats``, and a lone
shard's run is not merged again for ``cluster_stats``.  This test keeps
the 8.0.0 definitions as the reference and compares the encoded
``query_matching``, ``stats``, ``shard_stats`` and ``cluster_stats``
replies of a one-session plain server with them after every update of
two seeded streams:

* ``dense`` — a 2×64-clique session at ε = 0.8, whose degree 63 exceeds
  the matcher's Δ = 48, so every rebuild really samples;
* ``adaptive`` — a 4×16-clique session whose stream deletes matched
  edges, crossing many rebuild swaps.

A second test checks that no payload handed out changes afterwards.
"""

import asyncio
import copy
from itertools import chain

import numpy as np
import pytest

from repro.cluster.metrics import aggregate_cluster_stats
from repro.contracts import ContractViolation
from repro.graphs.generators import clique_union
from repro.instrument.workmeter import work_audit_enabled
from repro.matching.matching import Matching
from repro.service.metrics import percentile_sorted
from repro.service.protocol import encode, ok_response
from repro.service.server import MatchingService

pytestmark = pytest.mark.fast

SESSION = "s"

#: Stream name → (cliques, clique size, ε, session seed, stream seed,
#: updates after the shuffled prefill of every clique edge).
STREAMS = {
    "dense": (2, 64, 0.8, 3, 17, 300),
    "adaptive": (4, 16, 0.5, 5, 11, 600),
}


def _query_v800(mate: np.ndarray) -> dict:
    """``Session.matching_payload`` as of 8.0.0."""
    matching = Matching(mate.copy())
    return {
        "size": matching.size,
        "edges": [[int(u), int(v)] for u, v in sorted(matching.edges())],
    }


def _merge_latency_v800(per_shard) -> dict:
    """``cluster.metrics.merge_latency`` as of 8.0.0."""
    merged = sorted(chain.from_iterable(
        shard.get("samples_sorted_ms", ()) for shard in per_shard))
    budgets = [float(shard["budget_ms"])
               for shard in per_shard if "budget_ms" in shard]
    if merged:
        p50 = percentile_sorted(merged, 50.0)
        p95 = percentile_sorted(merged, 95.0)
        p99 = percentile_sorted(merged, 99.0)
        peak = merged[-1]
    else:
        p50 = p95 = p99 = peak = 0.0
    return {
        "count": len(merged),
        "p50_ms": round(p50, 4),
        "p95_ms": round(p95, 4),
        "p99_ms": round(p99, 4),
        "max_ms": round(peak, 4),
        "budget_ms": min(budgets) if budgets else 0.0,
        "over_budget": sum(int(shard.get("over_budget", 0))
                           for shard in per_shard),
    }


def _stats_replies_v800(service: MatchingService, shard: dict) -> tuple:
    """8.0.0's ``shard_stats`` and ``cluster_stats`` replies: the sorted
    views concatenated and a copy sorted, then merged once more."""
    samples: list[float] = []
    for name in sorted(service.sessions):
        samples.extend(service.sessions[name].metrics.latency.sorted_ms())
    samples.sort()
    shard = {**shard, "latency": {**shard["latency"],
                                  "samples_sorted_ms": samples}}
    cluster = {**aggregate_cluster_stats([shard]),
               "latency": _merge_latency_v800([shard["latency"]])}
    return ok_response(**shard), ok_response(**cluster)


def _without_samples(reply: dict) -> bytes:
    latency = {k: v for k, v in reply["latency"].items()
               if k != "samples_sorted_ms"}
    return encode({**reply, "latency": latency})


async def _call(service: MatchingService, request: dict) -> dict:
    reply = await service.handle_request(request)
    assert reply["ok"], reply
    return reply


async def _create(service: MatchingService, cliques: int, size: int,
                  epsilon: float, seed: int) -> None:
    await _call(service, {"op": "create", "session": SESSION,
                          "num_vertices": cliques * size, "beta": 1,
                          "epsilon": epsilon, "seed": seed, "journal": False})


async def _check_reads(service: MatchingService, whole: bool = False) -> dict:
    """Assert every read reply equals its 8.0.0 definition; return the
    reference matching payload.

    The ``shard_stats`` sample list is compared by value, and as bytes
    only when ``whole`` (at the end of a stream): encoding thousands of
    samples at every update would make the stream quadratic.
    """
    session = service.sessions[SESSION]
    mate = session.matcher._mate
    want = _query_v800(mate)
    query = await _call(service, {"op": "query_matching", "session": SESSION})
    assert encode(query) == encode(ok_response(**want))
    stats = await _call(service, {"op": "stats", "session": SESSION})
    assert encode(stats) == encode(
        {**stats, "matching_size": Matching(mate.copy()).size})
    shard = await _call(service, {"op": "shard_stats"})
    cluster = await _call(service, {"op": "cluster_stats"})
    want_shard, want_cluster = _stats_replies_v800(
        service, {k: v for k, v in shard.items() if k != "ok"})
    assert encode(cluster) == encode(want_cluster)
    assert _without_samples(shard) == _without_samples(want_shard)
    assert (shard["latency"]["samples_sorted_ms"]
            == want_shard["latency"]["samples_sorted_ms"])
    if whole:
        assert encode(shard) == encode(want_shard)
    return want


async def _drive(stream: str) -> tuple[int, int, int]:
    cliques, size, epsilon, seed, stream_seed, steps = STREAMS[stream]
    universe = [(int(u), int(v))
                for u, v in clique_union(cliques, size).edge_array()]
    rng = np.random.default_rng(stream_seed)
    service = MatchingService()
    await _create(service, cliques, size, epsilon, seed)
    live: set[tuple[int, int]] = set()

    async def update(op: str, edge: tuple[int, int]) -> dict:
        await _call(service, {"op": op, "session": SESSION,
                              "u": edge[0], "v": edge[1]})
        (live.add if op == "insert" else live.discard)(edge)
        return await _check_reads(service)

    await _check_reads(service)
    for i in rng.permutation(len(universe)).tolist():
        matching = await update("insert", universe[i])
    matched_deletes = 0
    for _ in range(steps):
        if stream == "adaptive" and matching["edges"] and rng.random() < 0.6:
            edges = matching["edges"]
            edge = tuple(edges[int(rng.integers(len(edges)))])
            matched_deletes += 1
            matching = await update("delete", edge)
        elif len(live) == len(universe) or (live and rng.random() < 0.5):
            ordered = sorted(live)
            matching = await update(
                "delete", ordered[int(rng.integers(len(ordered)))])
        else:
            absent = sorted(set(universe) - live)
            matching = await update(
                "insert", absent[int(rng.integers(len(absent)))])
    await _check_reads(service, whole=True)
    session = service.sessions[SESSION]
    counts = (session.matcher.rebuilds_completed, matched_deletes,
              len(session.metrics.latency.samples_ms))
    await service.close_all()
    return counts


#: The dense stream's prefill trips the Theorem 3.5 work-cap contract
#: under ``REPRO_WORK_AUDIT=1`` (a known defect of the update path,
#: ROADMAP item 2; perfbench's smoke pins it too).  Strict: once the cap
#: holds, this marker must go.
_WORK_CAP_DEFECT = pytest.mark.xfail(
    work_audit_enabled(), raises=ContractViolation, strict=True,
    reason="ROADMAP item 2: the Theorem 3.5 work cap does not hold yet")


@pytest.mark.parametrize("stream", [
    pytest.param("adaptive"),
    pytest.param("dense", marks=_WORK_CAP_DEFECT),
])
def test_read_replies_match_the_800_definitions(stream):
    rebuilds, matched_deletes, samples = asyncio.run(_drive(stream))
    cliques, size, _, _, _, steps = STREAMS[stream]
    assert samples == cliques * size * (size - 1) // 2 + steps
    assert rebuilds >= 20
    if stream == "adaptive":
        assert matched_deletes >= 100


def test_a_handed_out_payload_never_changes():
    async def body():
        service = MatchingService()
        await _create(service, 4, 16, 0.5, 0)
        universe = [(int(u), int(v))
                    for u, v in clique_union(4, 16).edge_array()]
        for u, v in universe[:40]:
            await _call(service, {"op": "insert", "session": SESSION,
                                  "u": u, "v": v})
        handed = [service.shard_stats_payload(),
                  await _call(service, {"op": "cluster_stats"}),
                  await _call(service, {"op": "query_matching",
                                        "session": SESSION})]
        kept = copy.deepcopy(handed)
        for u, v in universe[40:]:
            await _call(service, {"op": "insert", "session": SESSION,
                                  "u": u, "v": v})
        for u, v in universe[:40]:
            await _call(service, {"op": "delete", "session": SESSION,
                                  "u": u, "v": v})
        # A later read sorts the grown view; the earlier payloads stay.
        service.shard_stats_payload()
        await _call(service, {"op": "cluster_stats"})
        await service.close_all()
        return handed, kept

    handed, kept = asyncio.run(body())
    assert handed == kept
    assert len(kept[0]["latency"]["samples_sorted_ms"]) == 40
