"""End-to-end cluster tests: routing, cluster ops, failure surfacing.

These spawn real shard worker processes (no ``fast`` marker); the
happy-path tests share one module-scoped cluster to amortize startup.
The over-limit reply and dead-shard ``sessions`` tests run the router
against in-loop fake shards, the long request line test against in-loop
shards; all three are ``fast``.
"""

import asyncio
import json
import signal

import pytest

from repro.cluster.hashing import place
from repro.cluster.router import ClusterRouter
from repro.cluster.runner import BackgroundCluster
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL, encode, ok_response
from repro.service.server import BackgroundServer, MatchingService

SHARDS = 2


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    journal_root = tmp_path_factory.mktemp("cluster-journals")
    with BackgroundCluster(shards=SHARDS, journal_dir=journal_root) as cl:
        yield cl


@pytest.fixture
def client(cluster):
    with ServiceClient(cluster.host, cluster.port) as cli:
        yield cli


def _spread_names(prefix, count=16):
    """Session names that land on both shards (deterministic)."""
    names = [f"{prefix}-{i}" for i in range(count)]
    assert {place(name, SHARDS) for name in names} == set(range(SHARDS))
    return names


class TestRouting:
    def test_ping_carries_the_cluster_banner(self, client):
        response = client.ping()
        assert response["protocol"] == PROTOCOL
        assert response["cluster"] == {"shards": SHARDS}

    def test_create_update_query_through_the_router(self, client):
        names = _spread_names("route", 4)
        for name in names:
            client.create(name, num_vertices=16, beta=1, epsilon=0.4, seed=0)
            client.insert(name, 0, 1)
            client.insert(name, 2, 3)
        payloads = [client.query_matching(name) for name in names]
        for payload in payloads:
            assert payload["size"] == len(payload["edges"])
        # Same stream + same seed => same served state on every shard.
        assert len({str(p["edges"]) for p in payloads}) == 1

    def test_id_echo_passes_through_verbatim(self, client):
        client.create("echo-check", num_vertices=8, beta=1, epsilon=0.4,
                      seed=0)
        response = client.call({"op": "stats", "session": "echo-check",
                                "id": "req-77"})
        assert response["id"] == "req-77"

    def test_shard_error_codes_pass_through(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query_matching("never-created")
        assert excinfo.value.code == "no-such-session"

    def test_router_local_protocol_errors(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call({"op": "frobnicate"})
        assert excinfo.value.code == "unknown-op"
        with pytest.raises(ServiceError) as excinfo:
            client.call({"op": "insert"})  # missing session
        assert excinfo.value.code == "bad-request"

    def test_sessions_merges_all_shards_sorted(self, client):
        names = _spread_names("merge", 6)
        for name in names:
            client.create(name, num_vertices=8, beta=1, epsilon=0.4, seed=0)
        listed = client.sessions()
        assert [n for n in listed if n.startswith("merge-")] == sorted(names)

    def test_routed_session_matches_single_server_byte_for_byte(
        self, client
    ):
        # The determinism anchor: the same update stream with the same
        # seed produces the identical fingerprint whether it flows
        # through the router or straight into a single-process server.
        updates = [("insert", i, i + 1) for i in range(0, 30, 2)]
        updates += [("delete", i, i + 1) for i in range(0, 10, 2)]
        client.create("ordered", num_vertices=32, beta=1, epsilon=0.4, seed=5)
        for op, u, v in updates:
            client.call({"op": op, "session": "ordered", "u": u, "v": v})
        routed = client.snapshot("ordered")["fingerprint"]

        with BackgroundServer() as server:
            with ServiceClient(server.host, server.port) as direct:
                direct.create("ordered", num_vertices=32, beta=1,
                              epsilon=0.4, seed=5)
                for op, u, v in updates:
                    direct.call({"op": op, "session": "ordered",
                                 "u": u, "v": v})
                assert direct.snapshot("ordered")["fingerprint"] == routed


class TestClusterStats:
    def test_shard_stats_reports_every_shard(self, client):
        response = client.shard_stats()
        assert [entry["shard"] for entry in response["shards"]] == [0, 1]
        assert response["unreachable"] == []
        for entry in response["shards"]:
            assert "counters" in entry
            assert "samples_sorted_ms" in entry["latency"]

    def test_cluster_stats_counters_sum_over_shards(self, client):
        names = _spread_names("stats", 6)
        for name in names:
            client.create(name, num_vertices=8, beta=1, epsilon=0.4, seed=0)
            client.insert(name, 0, 1)
        per_shard = client.shard_stats()["shards"]
        merged = client.cluster_stats()
        assert merged["shards"] == SHARDS
        total = sum(entry["counters"].get("updates", 0)
                    for entry in per_shard)
        assert merged["counters"]["updates"] == total
        assert merged["latency"]["count"] == sum(
            len(entry["latency"]["samples_sorted_ms"]) for entry in per_shard
        )
        assert len(merged["per_shard_sessions"]) == SHARDS

    def test_single_server_answers_cluster_stats_as_one_shard(self, cluster):
        # Shape parity: the same op straight at a shard worker reports
        # a one-shard cluster, so `stats` tooling works against either.
        host, port = cluster.supervisor.addresses()[0]
        with ServiceClient(host, port) as direct:
            merged = direct.cluster_stats()
        assert merged["shards"] == 1
        assert set(merged) >= {"sessions", "counters", "latency", "queue"}


class TestShardFailure:
    def test_dead_shard_surfaces_as_shard_unavailable(self, tmp_path):
        with BackgroundCluster(shards=2, journal_dir=tmp_path) as cl:
            with ServiceClient(cl.host, cl.port) as cli:
                names = [f"fail-{i}" for i in range(8)]
                on_zero = [n for n in names if place(n, 2) == 0]
                on_one = [n for n in names if place(n, 2) == 1]
                assert on_zero and on_one
                for name in names:
                    cli.create(name, num_vertices=8, beta=1, epsilon=0.4,
                               seed=0)
                victim = cl.supervisor.workers[0]
                victim.process.send_signal(signal.SIGKILL)
                victim.process.wait(timeout=10)
                assert cl.supervisor.dead_shards() == [0]
                with pytest.raises((ServiceError, ConnectionError)) as exc:
                    for name in on_zero:
                        cli.query_matching(name)
                if isinstance(exc.value, ServiceError):
                    assert exc.value.code == "shard-unavailable"
            # The surviving shard keeps serving on a fresh connection.
            with ServiceClient(cl.host, cl.port) as cli2:
                for name in on_one:
                    assert cli2.query_matching(name)["size"] == 0


class _FakeShard:
    """An in-loop stand-in for a shard worker.

    Answers every request line with ``reply``; ``hung_up`` is set once
    the router closes its end of the connection.
    """

    def __init__(self, reply: bytes) -> None:
        self.reply = reply
        self.hung_up = asyncio.Event()
        self.writer: asyncio.StreamWriter | None = None

    def hang_up(self) -> None:
        """Close the shard's end, as a dying shard process would."""
        self.writer.close()

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        try:
            while await reader.readline():
                writer.write(self.reply)
                await writer.drain()
        except ConnectionError:
            pass
        self.hung_up.set()
        writer.close()


@pytest.mark.fast
class TestSessionsWithADeadShard:
    """``sessions`` names the shards it could not list, like the stats ops."""

    def test_unreachable_shard_is_named(self):
        async def scenario():
            fakes = [_FakeShard(encode(ok_response(sessions=["a"]))),
                     _FakeShard(encode(ok_response(sessions=["c", "b"])))]
            shard_servers = [
                await asyncio.start_server(fake.handle, "127.0.0.1", 0)
                for fake in fakes
            ]
            router = ClusterRouter([server.sockets[0].getsockname()[:2]
                                    for server in shard_servers])
            await router.connect()
            both = await router.handle_cluster_op({"op": "sessions"})
            fakes[0].hang_up()
            while router.links[0].alive:
                await asyncio.sleep(0.01)
            one = await router.handle_cluster_op({"op": "sessions"})
            for link in router.links:
                await link.close()
            for server in shard_servers:
                server.close()
                await server.wait_closed()
            return both, one

        both, one = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert both == ok_response(sessions=["a", "b", "c"], unreachable=[])
        assert one == ok_response(sessions=["b", "c"], unreachable=[0])


@pytest.mark.fast
class TestOverLimitReply:
    """A shard reply past asyncio's 64 KiB line limit kills only its link."""

    def test_router_survives_and_shuts_down_cleanly(self):
        async def scenario():
            fakes = [
                _FakeShard(encode(ok_response(sessions=[],
                                              pad="x" * 70_000))),
                _FakeShard(encode(ok_response(sessions=[]))),
            ]
            shard_servers = [
                await asyncio.start_server(fake.handle, "127.0.0.1", 0)
                for fake in fakes
            ]
            router = ClusterRouter([
                server.sockets[0].getsockname()[:2]
                for server in shard_servers
            ])
            bound: asyncio.Future = (
                asyncio.get_running_loop().create_future()
            )
            serving = asyncio.get_running_loop().create_task(
                router.serve_forever(
                    on_ready=lambda host, port: bound.set_result((host, port))
                )
            )
            reader, writer = await asyncio.open_connection(*await bound)
            writer.write(encode({"op": "cluster_stats"}))
            stats = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            router.request_shutdown()
            await serving  # must not re-raise the link's readline error
            await asyncio.gather(*(fake.hung_up.wait() for fake in fakes))
            for server in shard_servers:
                server.close()
                await server.wait_closed()
            return stats, [link.alive for link in router.links]

        stats, alive = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert stats["ok"] is True
        assert stats["unreachable"] == [0]
        assert stats["shards"] == 2
        assert alive == [False, False]


@pytest.mark.fast
class TestLongRequestLine:
    """A client line past the stream limit is refused by the router."""

    def test_refused_with_bad_request_and_closed(self, caplog):
        big = {"op": "batch", "session": "s", "updates": [
            ["insert", u, v] for u in range(160) for v in range(u + 1, 160)]}

        async def scenario():
            services = [MatchingService(), MatchingService()]
            shard_servers = [
                await asyncio.start_server(service.handle_connection,
                                           "127.0.0.1", 0)
                for service in services
            ]
            router = ClusterRouter([server.sockets[0].getsockname()[:2]
                                    for server in shard_servers])
            bound: asyncio.Future = (
                asyncio.get_running_loop().create_future()
            )
            serving = asyncio.get_running_loop().create_task(
                router.serve_forever(
                    on_ready=lambda host, port: bound.set_result((host, port))
                )
            )
            reader, writer = await asyncio.open_connection(*await bound)
            writer.write(encode({"op": "ping", "id": 1}) + encode(big))
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(2)]
            tail = await reader.read()
            writer.close()
            await writer.wait_closed()
            alive = [link.alive for link in router.links]
            router.request_shutdown()
            await serving
            for server in shard_servers:
                server.close()
                await server.wait_closed()
            return replies, tail, alive

        with caplog.at_level("ERROR", logger="asyncio"):
            replies, tail, alive = asyncio.run(
                asyncio.wait_for(scenario(), 30))
        assert replies[0]["ok"] is True and replies[0]["id"] == 1
        assert replies[1]["error"] == "bad-request"
        assert "64 KiB" in replies[1]["message"]
        assert tail == b""
        assert alive == [True, True]  # the line never reached a shard
        assert not [r for r in caplog.records if r.name == "asyncio"]
