"""End-to-end TCP tests: server, client, error codes, pipelining."""

import asyncio
import json

import pytest

from repro.service import batching
from repro.service import server as server_module
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL, encode
from repro.service.server import BackgroundServer, MatchingService

pytestmark = pytest.mark.fast


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(journal_dir=tmp_path / "journals") as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServiceClient(server.host, server.port) as cli:
        yield cli


class TestLifecycle:
    def test_ping(self, client):
        assert client.ping()["protocol"] == PROTOCOL

    def test_create_update_query(self, client):
        created = client.create("s", num_vertices=8, beta=1, epsilon=0.4,
                                seed=0)
        assert created["backend"] == "lazy_rebuild"
        assert created["journaled"] is True
        assert created["work_budget_chunks"] >= 1
        client.insert("s", 0, 1)
        client.insert("s", 2, 3)
        client.delete("s", 0, 1)
        payload = client.query_matching("s")
        assert payload["size"] == len(payload["edges"])
        assert client.sessions() == ["s"]

    def test_batch(self, client):
        client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0)
        response = client.batch(
            "s", [("insert", 0, 1), ("insert", 0, 1), ("insert", 2, 3)]
        )
        assert response["applied"] == 2
        assert response["results"][1]["error"] == "bad-update"

    def test_stats_and_snapshot(self, client):
        client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0,
                      budget_ms=25.0)
        client.insert("s", 0, 1)
        stats = client.stats("s")
        assert stats["seq"] == 1
        assert stats["latency"]["budget_ms"] == 25.0
        assert stats["latency"]["count"] == 1
        assert stats["counters"]["updates"] == 1
        snapshot = client.snapshot("s")
        assert snapshot["graph_edges"] == [[0, 1]]
        assert snapshot["fingerprint"]

    def test_close_session_flushes_journal(self, server, client, tmp_path):
        client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0)
        client.insert("s", 0, 1)
        closed = client.close_session("s")
        assert closed == {"ok": True, "closed": "s", "seq": 1}
        assert client.sessions() == []
        journal = tmp_path / "journals" / "s.jsonl"
        assert len(journal.read_text().splitlines()) == 2  # header + 1

    def test_journal_opt_out(self, client):
        created = client.create("s", num_vertices=8, beta=1, epsilon=0.4,
                                seed=0, journal=False)
        assert created["journaled"] is False

    def test_two_clients_one_session(self, server, client):
        client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0)
        with ServiceClient(server.host, server.port) as other:
            other.insert("s", 0, 1)
            client.insert("s", 2, 3)
            assert other.stats("s")["seq"] == 2


class TestErrorCodes:
    def test_no_such_session(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.insert("ghost", 0, 1)
        assert excinfo.value.code == "no-such-session"

    def test_session_exists(self, client):
        client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0)
        with pytest.raises(ServiceError) as excinfo:
            client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0)
        assert excinfo.value.code == "session-exists"

    def test_bad_update(self, client):
        client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0)
        with pytest.raises(ServiceError) as excinfo:
            client.delete("s", 0, 1)
        assert excinfo.value.code == "bad-update"

    def test_unknown_op(self, client):
        response = client.call({"op": "frobnicate"}, check=False)
        assert response["ok"] is False
        assert response["error"] == "unknown-op"

    def test_bad_create_parameters_reported_as_internal_free_code(self, client):
        # Unknown backend is surfaced, not a crashed connection.
        response = client.call(
            {"op": "create", "session": "s", "num_vertices": 8,
             "beta": 1, "epsilon": 0.4, "backend": "quantum"},
            check=False,
        )
        assert response["ok"] is False
        assert client.ping()["ok"] is True  # connection survived

    def test_shutdown_disabled(self):
        with BackgroundServer(allow_shutdown=False) as srv:
            with ServiceClient(srv.host, srv.port) as cli:
                with pytest.raises(ServiceError) as excinfo:
                    cli.shutdown()
                assert excinfo.value.code == "shutdown-disabled"

    def test_traversal_session_name_rejected(self, client, tmp_path):
        # A path-shaped session name must never reach the filesystem.
        for name in ("../../evil", "/etc/passwd", "a/b", "..", ".hidden", ""):
            response = client.call(
                {"op": "create", "session": name, "num_vertices": 8,
                 "beta": 1, "epsilon": 0.4},
                check=False,
            )
            assert response["error"] == "bad-request", name
        assert client.sessions() == []
        assert not (tmp_path / "evil.jsonl").exists()
        assert not (tmp_path / "journals" / "evil.jsonl").exists()

    def test_journal_path_containment_direct(self, tmp_path):
        # Defense in depth below the wire parser: MatchingService
        # itself refuses names that resolve outside the journal dir.
        service = MatchingService(journal_dir=tmp_path / "journals")
        from repro.service.protocol import ProtocolError

        with pytest.raises(ProtocolError) as excinfo:
            service._journal_path("../escape")
        assert excinfo.value.code == "bad-request"
        assert service._journal_path("fine").parent == (
            tmp_path / "journals"
        ).resolve()

    def test_bad_create_parameters_are_bad_request(self, client):
        base = {"op": "create", "session": "s", "num_vertices": 8,
                "beta": 1, "epsilon": 0.4}
        for overrides in ({"epsilon": 2.0}, {"epsilon": 0.0}, {"beta": 0},
                          {"num_vertices": 0}, {"backend": "quantum"},
                          {"seed": "zero"}, {"budget_ms": -1.0}):
            response = client.call({**base, **overrides}, check=False)
            assert response["error"] == "bad-request", overrides
        assert client.sessions() == []

    def test_create_naming_a_retired_backend_is_a_bad_request(self, client):
        base = {"op": "create", "session": "s", "num_vertices": 8,
                "beta": 1, "epsilon": 0.4}
        for backend in ("oblivious", "baseline"):
            response = client.call({**base, "backend": backend}, check=False)
            assert response["error"] == "bad-request", backend
            assert "repro 7.1.0 is the last release" in response["message"]
        assert client.sessions() == []
        created = client.call({**base, "backend": "lazy_rebuild"})
        assert created["backend"] == "lazy_rebuild"

    def test_failed_create_preserves_existing_journal(self, client, tmp_path):
        client.create("s", num_vertices=8, beta=1, epsilon=0.4, seed=0)
        client.insert("s", 0, 1)
        client.close_session("s")
        journal = tmp_path / "journals" / "s.jsonl"
        before = journal.read_text()
        response = client.call(
            {"op": "create", "session": "s", "num_vertices": 8,
             "beta": 1, "epsilon": 2.0},
            check=False,
        )
        assert response["error"] == "bad-request"
        assert journal.read_text() == before  # not truncated

    def test_update_racing_close_gets_no_such_session(self, tmp_path):
        # An insert dispatched while close() is draining the batcher
        # must surface as no-such-session, not an internal KeyError.
        async def scenario():
            service = MatchingService(journal_dir=tmp_path)
            await service.handle_request(
                {"op": "create", "session": "s", "num_vertices": 8,
                 "beta": 1, "epsilon": 0.4, "seed": 0}
            )
            close_task = asyncio.get_running_loop().create_task(
                service._respond('{"op": "close", "session": "s"}')
            )
            await asyncio.sleep(0)  # let close start awaiting the drain
            update = await service._respond(
                '{"op": "insert", "session": "s", "u": 0, "v": 1}'
            )
            closed = await close_task
            return closed, update

        closed, update = asyncio.run(scenario())
        assert closed["ok"] is True
        assert update["ok"] is False
        assert update["error"] == "no-such-session"

    def test_backpressure_error_code(self, monkeypatch):
        # Two batches in one write reach the server in one read, so the
        # second is admitted while the first still waits in the queue.
        monkeypatch.setattr(batching, "MAX_QUEUE", 4)
        batches = [[["insert", 2 * i, 2 * i + 1] for i in range(3)],
                   [["insert", 2 * i, 2 * i + 1] for i in range(3, 5)]]
        with BackgroundServer() as srv:
            with ServiceClient(srv.host, srv.port) as cli:
                cli.create("s", num_vertices=32, beta=1, epsilon=0.4, seed=0)
                first, second = _pipelined(srv, [
                    {"op": "batch", "session": "s", "updates": updates}
                    for updates in batches])
                assert first["ok"] is True and first["applied"] == 3
                assert second["error"] == "backpressure"
                assert cli.stats("s")["counters"]["rejected_over_budget"] == 2

    def test_batch_larger_than_the_queue_is_a_bad_request(self, monkeypatch):
        monkeypatch.setattr(batching, "MAX_QUEUE", 4)
        with BackgroundServer() as srv:
            with ServiceClient(srv.host, srv.port) as cli:
                cli.create("s", num_vertices=32, beta=1, epsilon=0.4, seed=0)
                updates = [("insert", 2 * i, 2 * i + 1) for i in range(8)]
                with pytest.raises(ServiceError) as excinfo:
                    cli.batch("s", updates)
                assert excinfo.value.code == "bad-request"
                assert "at most 4 updates" in str(excinfo.value)
                assert cli.batch("s", updates[:4])["applied"] == 4
                assert "rejected_over_budget" not in cli.stats("s")["counters"]


def _pipelined(server, requests):
    """Send ``requests`` in one write on one connection; decode replies."""

    async def scenario():
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        writer.write(b"".join(encode(request) for request in requests))
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in requests]
        writer.close()
        await writer.wait_closed()
        return replies

    return asyncio.run(scenario())


class TestWireLevel:
    def run_raw(self, server, payloads):
        """Write raw lines down one connection; return decoded responses."""

        async def scenario():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            for payload in payloads:
                writer.write(payload)
            await writer.drain()
            responses = []
            for _ in payloads:
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return responses

        return asyncio.run(scenario())

    def test_malformed_line_gets_bad_request(self, server):
        (response,) = self.run_raw(server, [b"not json at all\n"])
        assert response["ok"] is False
        assert response["error"] == "bad-request"

    def test_pipelined_requests_answered_in_order(self, server):
        with ServiceClient(server.host, server.port) as cli:
            cli.create("s", num_vertices=16, beta=1, epsilon=0.4, seed=0)
        requests = [
            {"op": "insert", "session": "s", "u": 2 * i, "v": 2 * i + 1,
             "id": i}
            for i in range(6)
        ]
        payloads = [
            (json.dumps(request) + "\n").encode() for request in requests
        ]
        responses = self.run_raw(server, payloads)
        # In-order responses with echoed ids, even though the six inserts
        # were all in flight at once (and micro-batched server-side).
        assert [r["id"] for r in responses] == [0, 1, 2, 3, 4, 5]
        assert [r["seq"] for r in responses] == [1, 2, 3, 4, 5, 6]
        # Read-your-writes holds once the update responses were read:
        # a *new* exchange observes all six updates.
        (stats,) = self.run_raw(
            server, [b'{"op": "stats", "session": "s"}\n']
        )
        assert stats["seq"] == 6
        # Pipelining actually coalesced: fewer batches than updates.
        assert stats["counters"]["batches"] <= stats["counters"]["updates"]

    def test_pipelining_beyond_max_inflight_still_answers_all(
        self, monkeypatch
    ):
        # Far more pipelined requests than the inflight cap: the server
        # pauses reading rather than dropping or deadlocking, so every
        # request is still answered, in order.
        monkeypatch.setattr(server_module, "MAX_INFLIGHT", 4)
        with BackgroundServer() as srv:
            with ServiceClient(srv.host, srv.port) as cli:
                cli.create("s", num_vertices=64, beta=1, epsilon=0.4, seed=0)
            requests = [
                {"op": "insert", "session": "s", "u": 2 * i, "v": 2 * i + 1,
                 "id": i}
                for i in range(24)
            ]
            payloads = [
                (json.dumps(request) + "\n").encode() for request in requests
            ]
            responses = self.run_raw(srv, payloads)
            assert [r["id"] for r in responses] == list(range(24))
            assert all(r["ok"] for r in responses)


    def test_snapshot_reply_over_64_kib_round_trips(self, client):
        # asyncio's default stream limit is 64 KiB a line; the blocking
        # client must read a reply of any length.
        n = 120
        client.create("big", num_vertices=n, beta=1, epsilon=0.5, seed=0,
                      journal=False)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for start in range(0, len(edges), 1000):
            client.batch("big", [("insert", u, v)
                                 for u, v in edges[start:start + 1000]])
        snapshot = client.snapshot("big")
        assert len(json.dumps(snapshot)) > 64 * 1024
        assert len(snapshot["graph_edges"]) == len(edges)
        assert client.ping()["protocol"] == PROTOCOL


    def test_line_over_the_stream_limit_is_refused_and_closed(
            self, server, caplog):
        # One batch of 12,720 inserts is a ~250 KiB line: past asyncio's
        # 64 KiB stream limit.  The requests before it are answered, it
        # gets a bad-request reply, and the connection is closed.
        with ServiceClient(server.host, server.port) as cli:
            cli.create("s", num_vertices=160, beta=1, epsilon=0.5, seed=0,
                       journal=False)
        big = {"op": "batch", "session": "s", "updates": [
            ["insert", u, v] for u in range(160) for v in range(u + 1, 160)]}
        with caplog.at_level("ERROR", logger="asyncio"):
            replies, tail = refused_long_line(
                server.host, server.port, [{"op": "ping", "id": 1}], big)
        assert replies[0] == {"ok": True, "protocol": PROTOCOL, "id": 1}
        assert replies[1]["error"] == "bad-request"
        assert "64 KiB" in replies[1]["message"]
        assert tail == b""
        assert not [r for r in caplog.records if r.name == "asyncio"]
        with ServiceClient(server.host, server.port) as cli:
            assert cli.stats("s")["counters"].get("updates", 0) == 0


def refused_long_line(host, port, before, big):
    """Send ``before`` and then ``big`` (past the stream limit) on one
    connection; return the two last replies and what follows them."""

    async def scenario():
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"".join(encode(request) for request in before))
        writer.write(encode(big))
        await writer.drain()
        replies = [json.loads(await reader.readline())
                   for _ in range(len(before) + 1)]
        tail = await reader.read()
        writer.close()
        await writer.wait_closed()
        return replies, tail

    return asyncio.run(asyncio.wait_for(scenario(), 30))


class TestConnectionLoop:
    """The handle_connection reader/writer machinery, driven with fake
    duck-typed streams so failure injection is deterministic."""

    class FakeReader:
        def __init__(self, lines):
            self._lines = list(lines)

        async def readline(self):
            if self._lines:
                return self._lines.pop(0)
            return b""  # EOF

    class FakeWriter:
        def __init__(self, fail_on_drain=None, reset_on_drain=None):
            self.chunks = []
            self.closed = False
            self.wait_closed_called = False
            self._drains = 0
            self._fail_on_drain = fail_on_drain
            self._reset_on_drain = reset_on_drain

        def write(self, data):
            self.chunks.append(data)

        async def drain(self):
            self._drains += 1
            if self._fail_on_drain == self._drains:
                raise RuntimeError("injected writer failure")
            if self._reset_on_drain == self._drains:
                raise ConnectionResetError("client vanished")

        def close(self):
            self.closed = True

        async def wait_closed(self):
            self.wait_closed_called = True

    def serve_lines(self, lines, writer):
        return self.serve_lines_from(self.FakeReader(lines), writer)

    class LongLineReader(FakeReader):
        """Serves ``lines``, then a line past the stream limit: its end
        already buffered (``found``) or still to come in ``rest``."""

        def __init__(self, lines, found, rest=()):
            super().__init__(lines)
            self.found = found
            self.rest = list(rest)
            self.reads = 0

        async def readline(self):
            if self._lines:
                return self._lines.pop(0)
            raise ValueError("Separator is found, but chunk is longer "
                             "than limit" if self.found else
                             "Separator is not found, and chunk exceed "
                             "the limit")

        async def read(self, _n):
            self.reads += 1
            return self.rest.pop(0) if self.rest else b""

    @pytest.mark.parametrize("found", [True, False])
    def test_long_line_refused_in_order_then_closed(self, found):
        ping = (json.dumps({"op": "ping", "id": 0}) + "\n").encode()
        rest = [b"x" * 10, b"xx\n" + ping, ping]
        reader = self.LongLineReader([ping], found, rest)
        writer = self.FakeWriter()
        replies = self.serve_lines_from(reader, writer)
        assert replies[0]["id"] == 0
        assert replies[1]["error"] == "bad-request"
        assert len(replies) == 2 and writer.closed
        # The rest of the line is discarded, and nothing after it.
        assert reader.reads == (0 if found else 2)

    def serve_lines_from(self, reader, writer):
        service = MatchingService()

        async def scenario():
            await service.handle_connection(reader, writer)

        asyncio.run(scenario())
        return [json.loads(chunk) for chunk in writer.chunks]

    def test_eof_drains_queued_responses_in_order(self):
        # Pipelined requests followed by an abrupt EOF: every admitted
        # request is still answered, in request order, before cleanup.
        lines = [
            (json.dumps({"op": "ping", "id": i}) + "\n").encode()
            for i in range(5)
        ]
        writer = self.FakeWriter()
        responses = self.serve_lines(lines, writer)
        assert [r["id"] for r in responses] == list(range(5))
        assert writer.closed and writer.wait_closed_called

    def test_writer_failure_propagates_after_cleanup(self, monkeypatch):
        # A non-transport writer exception must surface (it is a bug,
        # not client churn) — but only after the connection is closed
        # and the reader loop has been woken off the semaphore.
        lines = [
            (json.dumps({"op": "ping", "id": i}) + "\n").encode()
            for i in range(8)
        ]
        writer = self.FakeWriter(fail_on_drain=1)
        monkeypatch.setattr(server_module, "MAX_INFLIGHT", 1)

        async def scenario():
            service = MatchingService()
            await service.handle_connection(self.FakeReader(lines), writer)

        with pytest.raises(RuntimeError, match="injected writer failure"):
            asyncio.run(scenario())
        assert writer.closed and writer.wait_closed_called

    def test_connection_reset_is_swallowed(self):
        # Transport-level resets are routine churn: no exception, no
        # unclosed writer, no stuck tasks.
        lines = [
            (json.dumps({"op": "ping", "id": i}) + "\n").encode()
            for i in range(3)
        ]
        writer = self.FakeWriter(reset_on_drain=1)
        responses = self.serve_lines(lines, writer)
        # The first response was written (its drain failed); nothing
        # after it leaked out of the dead connection.
        assert len(responses) >= 1
        assert writer.closed and writer.wait_closed_called

    def test_semaphore_wakeup_bounds_reader_after_writer_death(
        self, monkeypatch
    ):
        # With the writer dead, the reader must exit promptly instead
        # of consuming the socket forever: at most one extra line is
        # read after the failure (the acquire it was already parked on).
        lines = [
            (json.dumps({"op": "ping", "id": i}) + "\n").encode()
            for i in range(64)
        ]
        reader = self.FakeReader(lines)
        writer = self.FakeWriter(fail_on_drain=1)
        monkeypatch.setattr(server_module, "MAX_INFLIGHT", 2)

        async def scenario():
            service = MatchingService()
            await service.handle_connection(reader, writer)

        with pytest.raises(RuntimeError):
            asyncio.run(scenario())
        assert len(reader._lines) >= 60  # almost all input left unread
