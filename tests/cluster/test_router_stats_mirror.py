"""Oracle: the router's sample mirror answers exactly like a full fetch.

Since 7.1.0 the router keeps, per shard and per session, the latency
samples it has already received and polls ``shard_stats`` with
``since`` cursors, so a shard ships only the samples recorded since the
previous poll.  Every ``cluster_stats`` and router-form ``shard_stats``
reply must still be the bytes the full merge gives: here a real
:class:`ClusterRouter` serves two in-loop :class:`MatchingService`
shards, and each reply is compared with the encoding built from the
shards' full ``shard_stats_payload()`` at that moment.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.cluster.hashing import place
from repro.cluster.metrics import SampleMirror, aggregate_cluster_stats
from repro.cluster.router import ClusterRouter
from repro.service.protocol import encode, ok_response
from repro.service.server import MatchingService

pytestmark = pytest.mark.fast

SHARDS = 2


def _names_on(shard, count):
    """The first ``count`` names ``s-<i>`` placed on ``shard``."""
    names = (f"s-{i}" for i in range(1000))
    return [name for name in names if place(name, SHARDS) == shard][:count]


def _expected(services, op):
    """``op``'s reply as the router built it from full fetches."""
    payloads = [service.shard_stats_payload() for service in services]
    if op == "shard_stats":
        return encode(ok_response(
            shards=[{"shard": k, **ok_response(**payload)}
                    for k, payload in enumerate(payloads)],
            unreachable=[],
        ))
    merged = aggregate_cluster_stats(payloads)
    merged["shards"] = SHARDS
    merged["unreachable"] = []
    return encode(ok_response(**merged))


async def _with_cluster(body):
    """Run ``body(router, services)`` against two in-loop shards."""
    services = [MatchingService() for _ in range(SHARDS)]
    servers = [await asyncio.start_server(service.handle_connection,
                                          "127.0.0.1", 0)
               for service in services]
    router = ClusterRouter([server.sockets[0].getsockname()[:2]
                            for server in servers])
    await router.connect()
    try:
        return await body(router, services)
    finally:
        for link in router.links:
            await link.close()
        for server in servers:
            server.close()
            await server.wait_closed()
        for service in services:
            await service.close_all()


def _line(request):
    """One request line as a client sends it."""
    return encode(request).decode()


async def _call(router, request):
    return json.loads(await router._respond(_line(request)))


def test_polls_equal_the_full_merge():
    rng = np.random.default_rng(7)
    on_0, on_1 = _names_on(0, 2), _names_on(1, 2)

    async def create(router, name):
        reply = await _call(router, {
            "op": "create", "session": name, "num_vertices": 16,
            "beta": 1, "epsilon": 0.5, "seed": 1, "journal": False})
        assert reply["ok"], reply

    async def churn(router, services, name, batches):
        for _ in range(batches):
            u, v = sorted(int(x) for x in rng.choice(16, 2, replace=False))
            op = "insert" if rng.random() < 0.7 else "delete"
            await _call(router, {"op": "batch", "session": name,
                                 "updates": [[op, u, v]] * 3})
        # Spread values the batch timings alone would not give.
        shard = services[place(name, SHARDS)]
        for seconds in rng.lognormal(-7.0, 1.0, int(rng.integers(1, 40))):
            shard.sessions[name].metrics.latency.record(float(seconds))

    async def body(router, services):
        replies = []

        async def poll_both(concurrent=False):
            ops = ("cluster_stats", "shard_stats")
            if concurrent:
                got = await asyncio.gather(
                    *(router._respond(_line({"op": op}))
                      for op in ops + ops))
            else:
                got = [await router._respond(_line({"op": op}))
                       for op in ops]
            want = [_expected(services, op) for op in ops]
            assert got == want * (len(got) // len(want))
            replies.append(got[0])

        await poll_both()                       # cold and empty
        for name in on_0:
            await create(router, name)
            await churn(router, services, name, 4)
        await poll_both()                       # shard 1 still empty
        await poll_both()                       # warm, nothing new
        await create(router, on_1[0])
        for round_no in range(6):
            for name in on_0 + on_1[:1]:
                await churn(router, services, name, int(rng.integers(4)))
            await poll_both(concurrent=round_no % 2 == 1)
        # Close one session and re-create it under the same name with
        # more samples than the mirror held for the old one.
        held = len(services[0].sessions[on_0[0]].metrics.latency.samples_ms)
        await _call(router, {"op": "close", "session": on_0[0]})
        await create(router, on_0[0])
        await churn(router, services, on_0[0], 2)
        fresh = services[0].sessions[on_0[0]].metrics.latency
        while len(fresh.samples_ms) <= held:
            fresh.record(float(rng.lognormal(-7.0, 1.0)))
        await poll_both()
        # Close one for good, and open the last name.
        await _call(router, {"op": "close", "session": on_0[1]})
        await create(router, on_1[1])
        await churn(router, services, on_1[1], 3)
        await poll_both(concurrent=True)
        await poll_both()
        return replies

    replies = asyncio.run(asyncio.wait_for(_with_cluster(body), 60))
    counts = [json.loads(reply)["latency"]["count"] for reply in replies]
    assert counts[0] == 0 and max(counts) > 200


def test_warm_polls_ship_only_new_samples():
    name = _names_on(0, 1)[0]

    async def body(router, services):
        await _call(router, {"op": "create", "session": name,
                             "num_vertices": 8, "beta": 1, "epsilon": 0.5,
                             "journal": False})
        latency = services[0].sessions[name].metrics.latency
        for k in range(50):
            latency.record(k / 1e4)
        first = await _call(router, {"op": "cluster_stats"})
        latency.record(0.0123)
        request = router._mirrors[0].request()
        tails = services[0].shard_stats_since(request["since"])
        second = await _call(router, {"op": "cluster_stats"})
        return first, tails["latency"]["tails"], second

    first, tails, second = asyncio.run(
        asyncio.wait_for(_with_cluster(body), 30))
    assert first["latency"]["count"] == 50
    assert list(tails.values()) == [[50, [12.3]]]
    assert second["latency"]["count"] == 51
    assert second["latency"]["max_ms"] == 12.3


def test_since_restarts_an_unknown_cursor():
    async def body():
        service = MatchingService()
        await service.handle_request({
            "op": "create", "session": "a", "num_vertices": 8, "beta": 1,
            "epsilon": 0.5, "journal": False})
        latency = service.sessions["a"].metrics.latency
        for ms in (3.0, 1.0, 2.0):
            latency.record(ms / 1e3)
        uid = str(latency.uid)
        got = [service.shard_stats_since(since)["latency"]["tails"]
               for since in ({}, {uid: 2}, {uid: 4}, {"other": 1})]
        await service.close_all()
        return uid, got

    uid, got = asyncio.run(body())
    assert got == [{uid: [0, [3.0, 1.0, 2.0]]}, {uid: [2, [2.0]]},
                   {uid: [0, [3.0, 1.0, 2.0]]}, {uid: [0, [3.0, 1.0, 2.0]]}]


@pytest.mark.parametrize("since", [
    [], "1", None, {"1": -1}, {"1": "2"}, {"1": True}, {"1": 1.5},
])
def test_ill_typed_since_is_a_bad_request(since):
    request = _line({"op": "shard_stats", "since": since})

    async def body(router, services):
        return (json.loads(await router._respond(request)),
                await services[0]._respond(request))

    routed, direct = asyncio.run(asyncio.wait_for(_with_cluster(body), 30))
    assert routed["ok"] is False and routed["error"] == "bad-request"
    assert direct["ok"] is False and direct["error"] == "bad-request"


def test_mirror_refuses_a_tail_that_skips_samples():
    mirror = SampleMirror()
    reply = {"ok": True, "latency": {"tails": {"7": [0, [2.0, 1.0]]},
                                     "over_budget": 0, "budget_ms": 50.0}}
    assert mirror.fold(reply)["latency"]["samples_sorted_ms"] == [1.0, 2.0]
    assert mirror.request()["since"] == {"7": 2}
    reply["latency"]["tails"] = {"7": [3, [4.0]]}
    with pytest.raises(ValueError, match="starts at 3"):
        mirror.fold(reply)
