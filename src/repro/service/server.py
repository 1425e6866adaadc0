"""The asyncio JSON-lines TCP server hosting matching sessions.

:class:`MatchingService` is the op dispatcher (transport-free, so tests
can drive it directly); :meth:`MatchingService.serve_forever` binds it
to a TCP socket.  Each connection is read line-by-line; every request
becomes its own task and responses are written back *in request order*,
so a pipelining client can keep many updates in flight — which is what
lets the per-session :class:`~repro.service.batching.MicroBatcher`
coalesce them into bounded batches even from a single connection.
In-flight requests per connection are capped at
:data:`~repro.service.transport.MAX_INFLIGHT`; beyond that the server
stops reading the socket until responses drain.

Responses echo the request's optional ``id`` field verbatim for client
correlation.  Unknown session names, malformed requests, rejected
updates and backpressure all map to stable error codes
(:mod:`repro.service.protocol`); unexpected exceptions are caught and
reported as ``internal`` without killing the connection.

:class:`BackgroundServer` runs the whole thing on an ephemeral port in
a daemon thread — the harness used by the test-suite and
``examples/service_demo.py``, and the base of the cluster's
:class:`~repro.cluster.runner.BackgroundCluster`.  It and the
connection loop live in :mod:`repro.service.transport`, which the
router shares without importing the session stack; they are
re-exported here.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path
from typing import Mapping

from repro.cluster import metrics as cluster_metrics
from repro.service import protocol
from repro.service.batching import Backpressure, MicroBatcher
from repro.service.journal import ReplayJournal
from repro.service.metrics import DEFAULT_BUDGET_MS
from repro.service.protocol import (
    ProtocolError,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.session import Session, UpdateError, validate_session_params
from repro.service.transport import BackgroundServer as BackgroundServer
from repro.service.transport import (
    MAX_INFLIGHT,
    _run_service_loop,
    _shutdown_on_signals,
    pipe_connection,
)


class MatchingService:
    """Session registry + op dispatcher for the dynamic-matching server.

    Parameters
    ----------
    journal_dir:
        Directory for per-session replay journals
        (``<journal_dir>/<session>.jsonl``); ``None`` disables journaling.
    allow_shutdown:
        Whether the ``shutdown`` op is honored (CI and benchmarks turn
        this on; a long-lived server should not).

    Sessions that do not name a ``budget_ms`` get
    :data:`~repro.service.metrics.DEFAULT_BUDGET_MS`.
    """

    def __init__(
        self,
        journal_dir: str | Path | None = None,
        allow_shutdown: bool = False,
    ) -> None:
        """Configure the service; no sockets are touched until served."""
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.allow_shutdown = allow_shutdown
        self.sessions: dict[str, Session] = {}
        self.batchers: dict[str, MicroBatcher] = {}
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------ #
    # Op handlers                                                        #
    # ------------------------------------------------------------------ #
    def _session(self, request: dict) -> Session:
        name = request["session"]
        if name not in self.sessions:
            raise ProtocolError("no-such-session", f"no session {name!r}")
        return self.sessions[name]

    def _batcher(self, session: Session) -> MicroBatcher:
        batcher = self.batchers.get(session.name)
        if batcher is None:
            # The session was closed between dispatch and submission.
            raise ProtocolError(
                "no-such-session", f"no session {session.name!r}"
            )
        return batcher

    def _journal_path(self, name: str) -> Path:
        # parse_request already constrains names to a filename-safe
        # class; the containment check is defense in depth for callers
        # driving MatchingService directly with unvalidated names.
        root = self.journal_dir.resolve()
        path = (root / f"{name}.jsonl").resolve()
        if path.parent != root:
            raise ProtocolError(
                "bad-request",
                f"session name {name!r} escapes the journal directory",
            )
        return path

    async def _handle_create(self, request: dict) -> dict:
        name = request["session"]
        if name in self.sessions:
            raise ProtocolError("session-exists",
                                f"session {name!r} already exists")
        num_vertices = int(request["num_vertices"])
        beta = int(request["beta"])
        epsilon = float(request["epsilon"])
        seed = request.get("seed")
        budget_ms = request.get("budget_ms", DEFAULT_BUDGET_MS)
        # Validate everything *before* opening the journal: constructing
        # a ReplayJournal truncates any existing journal of this name,
        # which a doomed create must never do.
        try:
            Session.check_backend(request.get("backend", Session.backend))
            if seed is not None and (
                not isinstance(seed, int) or isinstance(seed, bool)
            ):
                raise ValueError(
                    f"seed must be an integer, got {type(seed).__name__}"
                )
            if (not isinstance(budget_ms, (int, float))
                    or isinstance(budget_ms, bool) or budget_ms <= 0):
                raise ValueError(f"budget_ms must be > 0, got {budget_ms!r}")
            validate_session_params(num_vertices, beta, epsilon)
        except ValueError as exc:
            raise ProtocolError("bad-request", str(exc)) from exc
        journal = None
        want_journal = bool(request.get("journal", True))
        if want_journal and self.journal_dir is not None:
            journal = ReplayJournal(self._journal_path(name))
        try:
            session = Session(
                name=name,
                num_vertices=num_vertices,
                beta=beta,
                epsilon=epsilon,
                seed=seed,
                journal=journal,
                budget_ms=float(budget_ms),
            )
        except Exception:
            # Parameters were validated above, so this is unexpected —
            # but don't leak the open handle or a half-written journal.
            if journal is not None:
                journal.close()
                journal.path.unlink(missing_ok=True)
            raise
        self.sessions[name] = session
        self.batchers[name] = MicroBatcher(session)
        return ok_response(
            created=name,
            backend=session.backend,
            delta=session.delta,
            work_budget_chunks=session.work_budget,
            journaled=journal is not None,
        )

    async def _handle_update(self, request: dict) -> dict:
        session = self._session(request)
        record = await self._batcher(session).submit(
            request["op"], int(request["u"]), int(request["v"])
        )
        return ok_response(**record)

    async def _handle_batch(self, request: dict) -> dict:
        session = self._session(request)
        updates = [(op, int(u), int(v)) for op, u, v in request["updates"]]
        outcomes = await self._batcher(session).submit_batch(updates)
        applied = sum(1 for outcome in outcomes if "error" not in outcome)
        return ok_response(applied=applied, results=outcomes)

    async def _handle_close(self, request: dict) -> dict:
        session = self._session(request)
        # Unregister before awaiting the drain: an update racing the
        # close must see no-such-session, not an internal KeyError.
        del self.sessions[session.name]
        batcher = self.batchers.pop(session.name, None)
        if batcher is not None:
            await batcher.close()
        session.close()
        return ok_response(closed=session.name, seq=session.seq)

    async def handle_request(self, request: dict) -> dict:
        """Dispatch one validated request to its handler."""
        op = request["op"]
        if op == "ping":
            return ok_response(protocol=protocol.PROTOCOL)
        if op == "sessions":
            return ok_response(sessions=sorted(self.sessions))
        if op == "shard_stats":
            if "since" in request:
                return ok_response(**self.shard_stats_since(request["since"]))
            return ok_response(**self.shard_stats_payload())
        if op == "cluster_stats":
            # A plain server is a cluster of one: answer with the same
            # merged shape the repro.cluster router produces, so `stats`
            # tooling works unchanged against either.
            return ok_response(**cluster_metrics.aggregate_cluster_stats(
                [self.shard_stats_payload()]
            ))
        if op == "shutdown":
            if not self.allow_shutdown:
                raise ProtocolError(
                    "shutdown-disabled",
                    "server was started without allow_shutdown",
                )
            self._shutdown.set()
            return ok_response(shutting_down=True)
        if op == "create":
            return await self._handle_create(request)
        if op in ("insert", "delete"):
            return await self._handle_update(request)
        if op == "batch":
            return await self._handle_batch(request)
        if op == "close":
            return await self._handle_close(request)
        session = self._session(request)
        if op == "query_matching":
            session.metrics.counters["queries"].increment()
            return ok_response(**session.matching_payload())
        if op == "stats":
            return ok_response(**session.stats_payload())
        if op == "snapshot":
            return ok_response(**session.snapshot_payload())
        raise ProtocolError("unknown-op", f"unhandled op {op!r}")

    def shard_stats_payload(self) -> dict:
        """Server-wide metrics rollup in the *mergeable* form.

        Counters are summed across sessions (lossless, they are
        monotone event counts); latency samples are exported as one
        sorted list so a cluster aggregator can union them and take
        percentiles over the union — merging sorted per-shard lists is
        exact, averaging per-shard percentiles is not.  Samples are
        rounded to 1e-4 ms when recorded and each session's sorted view
        (:meth:`~repro.service.metrics.LatencyRecorder.sorted_ms`) is
        kept between reads, so the one sort here merges k sorted runs
        in C, and a lone session's view is copied without sorting (a
        copy: the view keeps growing, the payload handed out must not).
        """
        payload = self._shard_rollup()
        samples: list[float] = []
        for name in sorted(self.sessions):
            samples.extend(self.sessions[name].metrics.latency.sorted_ms())
        if len(self.sessions) > 1:
            samples.sort()
        payload["latency"]["samples_sorted_ms"] = samples
        return payload

    def shard_stats_since(self, since: Mapping[str, int]) -> dict:
        """The cursor form of :meth:`shard_stats_payload`.

        ``since`` maps a recorder uid (as a string) to how many of its
        samples the caller already holds.  Instead of
        ``samples_sorted_ms`` the latency block carries ``tails``: for
        each live session, ``{uid: [start, samples_ms[start:]]}`` in
        record order, where ``start`` is the caller's count, or 0 when
        the uid is unknown or the count exceeds the session's.  A
        caller that holds every session's samples in order (the
        cluster router's mirror) rebuilds the full form exactly from
        them, at the cost of encoding only the samples recorded since
        its last poll.
        """
        payload = self._shard_rollup()
        tails: dict[str, list] = {}
        for name in sorted(self.sessions):
            latency = self.sessions[name].metrics.latency
            uid = str(latency.uid)
            start = since.get(uid, 0)
            if start > len(latency.samples_ms):
                start = 0
            tails[uid] = [start, latency.samples_ms[start:]]
        payload["latency"]["tails"] = tails
        return payload

    def _shard_rollup(self) -> dict:
        """Everything of a ``shard_stats`` reply but the latency samples."""
        counters: dict[str, int] = {}
        over_budget = 0
        queue_depth = 0
        max_queue_depth = 0
        for name in sorted(self.sessions):
            metrics = self.sessions[name].metrics
            for counter, value in metrics.counters.snapshot().items():
                counters[counter] = counters.get(counter, 0) + value
            over_budget += metrics.latency.over_budget
            queue_depth += metrics.queue_depth
            max_queue_depth = max(max_queue_depth, metrics.max_queue_depth)
        return {
            "sessions": sorted(self.sessions),
            "counters": counters,
            "latency": {"over_budget": over_budget,
                        "budget_ms": DEFAULT_BUDGET_MS},
            "queue": {"depth": queue_depth, "max_depth": max_queue_depth},
        }

    async def _respond(self, line: str) -> dict:
        """Parse + dispatch one raw request line into a response dict."""
        request_id = None
        try:
            request = parse_request(line)
            request_id = request.get("id")
            response = await self.handle_request(request)
        except ProtocolError as exc:
            response = error_response(exc.code, str(exc))
        except UpdateError as exc:
            response = error_response(exc.code, str(exc))
        except Backpressure as exc:
            response = error_response(exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            response = error_response("internal", f"{type(exc).__name__}: {exc}")
        if request_id is not None:
            response["id"] = request_id
        return response

    # ------------------------------------------------------------------ #
    # Transport                                                          #
    # ------------------------------------------------------------------ #
    async def _respond_bytes(self, line: str) -> bytes:
        return encode(await self._respond(line))

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (in-order pipelined responses)."""
        await pipe_connection(reader, writer, self._respond_bytes, MAX_INFLIGHT)

    async def close_all(self) -> None:
        """Drain every batcher and close every session (and journal).

        Each batcher is *unregistered before its drain is awaited* — the
        same discipline as ``_handle_close``.  The old
        iterate-then-clear shape had a shutdown race: a create admitted
        while a drain was awaiting would have its fresh batcher wiped by
        the final ``clear()`` without ever being drained (its journal
        never closed).  The while-pop loop picks up such stragglers in a
        later iteration instead.
        """
        while self.batchers:
            name = min(self.batchers)
            await self.batchers.pop(name).close()
        while self.sessions:
            name = min(self.sessions)
            self.sessions.pop(name).close()

    def request_shutdown(self) -> None:
        """Ask a running :meth:`serve_forever` to stop (thread-safe only
        via ``loop.call_soon_threadsafe``)."""
        self._shutdown.set()

    async def serve_forever(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        announce: bool = False,
        on_ready=None,
    ) -> None:
        """Bind, serve until a shutdown is requested, then clean up.

        ``port=0`` binds an ephemeral port; ``on_ready(host, port)`` is
        called once listening (the :class:`BackgroundServer` hook) and
        ``announce=True`` prints the address for shell scripts.
        """
        server = await asyncio.start_server(self.handle_connection, host, port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        if announce:
            print(f"repro-service listening on {bound_host}:{bound_port}",
                  flush=True)
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        async with server:
            await self._shutdown.wait()
        await self.close_all()


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    journal_dir: str | Path | None = None,
    allow_shutdown: bool = False,
) -> int:
    """Blocking entry point for ``repro-experiments serve``.

    Runs until a client issues ``shutdown`` (when ``allow_shutdown``)
    or the process receives SIGTERM/SIGINT.  Both paths are *graceful*:
    the listening socket closes first (no new connections), every
    session's micro-batcher drains its in-flight batch, journals are
    flushed and closed, and the process exits 0 — which is what lets a
    cluster supervisor stop shard workers without losing journaled
    updates.
    """
    service = MatchingService(journal_dir, allow_shutdown)

    async def main() -> None:
        with _shutdown_on_signals(service.request_shutdown):
            await service.serve_forever(host, port, announce=True)

    try:
        _run_service_loop(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        print("interrupted; shutting down", file=sys.stderr)
    return 0
