"""The cluster front-end: one TCP endpoint, sessions fanned over shards.

:class:`ClusterRouter` speaks the same ``repro-service-v1`` wire
protocol as a single :class:`~repro.service.server.MatchingService`, so
every existing client, the load generator, and the benchmarks work
unchanged against a cluster.  Per request:

* **session ops** (``create``, updates, queries, ``close``) are placed
  by rendezvous hashing of the session name
  (:func:`repro.cluster.hashing.place`) and forwarded *byte-for-byte*
  over the shard's :class:`~repro.cluster.link.ShardLink` — responses
  (including ``id`` echoes and shard-side error codes such as
  ``backpressure``) pass through verbatim;
* **cluster ops** (``ping``, ``sessions``, ``shard_stats``,
  ``cluster_stats``, ``shutdown``) are answered by the router itself,
  fanning out to every shard where needed and merging
  (:func:`repro.cluster.metrics.aggregate_cluster_stats`); the fanned
  replies list the shards they could not reach as ``unreachable``.
  For the two stats ops the router keeps a
  :class:`~repro.cluster.metrics.SampleMirror` per shard, so a poll
  ships only the latency samples recorded since the previous one; the
  replies are the ones a full fetch would give.

Determinism is preserved by construction: a session's updates all flow
through one shard link (placement is a pure function of the name) and
each link serializes writes, so every session still sees one total
update order — exactly what its per-shard journal records and replay
needs.  A downed shard surfaces as the ``shard-unavailable`` error
code on requests routed to it; other shards keep serving.
"""

from __future__ import annotations

import asyncio

from repro.cluster import metrics as cluster_metrics
from repro.cluster.hashing import place
from repro.cluster.link import ShardError, ShardLink
from repro.service import protocol
from repro.service.protocol import (
    ProtocolError,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.transport import MAX_INFLIGHT, pipe_connection

#: Ops forwarded to the session's home shard (everything naming a
#: session, including ``create`` — creation *is* placement).
ROUTED_OPS = frozenset(protocol.SESSION_OPS | {"create"})


def _unreachable(fanned: list[dict | ShardError]) -> list[int]:
    """Ids of the shards a fan-out could not reach."""
    return [shard_id for shard_id, outcome in enumerate(fanned)
            if not isinstance(outcome, dict)]


class ClusterRouter:
    """Routes ``repro-service-v1`` requests onto shard workers.

    Parameters
    ----------
    shard_addresses:
        ``[(host, port), ...]`` of the shard workers, indexed by shard
        id — the order must match the workers' journal directories
        (``shard-0``, ``shard-1``, …).
    allow_shutdown:
        Whether the client ``shutdown`` op stops the router.
    """

    def __init__(
        self,
        shard_addresses: list[tuple[str, int]],
        allow_shutdown: bool = False,
    ) -> None:
        """Build one link per shard; nothing connects until served."""
        if not shard_addresses:
            raise ValueError("a cluster needs at least one shard")
        self.links = [
            ShardLink(shard_id, host, port)
            for shard_id, (host, port) in enumerate(shard_addresses)
        ]
        self.allow_shutdown = allow_shutdown
        self._shutdown = asyncio.Event()
        self._mirrors = [cluster_metrics.SampleMirror() for _ in self.links]
        # Stats polls fold into the mirrors one at a time (see
        # SampleMirror): each poll's cursors name what it held when sent.
        self._stats_lock = asyncio.Lock()

    @property
    def num_shards(self) -> int:
        """How many shards the router fans out over."""
        return len(self.links)

    async def connect(self) -> None:
        """Open every shard link (raises :class:`ShardError` on any)."""
        for link in self.links:
            await link.connect()

    # ------------------------------------------------------------------ #
    # Dispatch                                                           #
    # ------------------------------------------------------------------ #
    def link_for(self, session: str) -> ShardLink:
        """The home shard link of ``session`` (pure placement)."""
        return self.links[place(session, self.num_shards)]

    async def _fan_out(self, requests: list[dict]) -> list[dict | ShardError]:
        """Send ``requests[k]`` to shard ``k``; per-shard result or error."""
        outcomes = await asyncio.gather(
            *(link.call(request)
              for link, request in zip(self.links, requests)),
            return_exceptions=True,
        )
        results: list[dict | ShardError] = []
        for shard_id, outcome in enumerate(outcomes):
            if isinstance(outcome, ShardError):
                results.append(outcome)
            elif isinstance(outcome, BaseException):
                results.append(ShardError(
                    f"shard {shard_id} fan-out failed: {outcome}"
                ))
            else:
                results.append(outcome)
        return results

    async def handle_cluster_op(self, request: dict) -> dict:
        """Answer one router-local (non-routed) op."""
        op = request["op"]
        if op == "ping":
            return ok_response(
                protocol=protocol.PROTOCOL,
                cluster={"shards": self.num_shards},
            )
        if op == "shutdown":
            if not self.allow_shutdown:
                raise ProtocolError(
                    "shutdown-disabled",
                    "router was started without allow_shutdown",
                )
            self._shutdown.set()
            return ok_response(shutting_down=True, shards=self.num_shards)
        if op == "sessions":
            fanned = await self._fan_out(
                [{"op": "sessions"} for _ in self.links])
            names = [name for outcome in fanned if isinstance(outcome, dict)
                     for name in outcome.get("sessions", ())]
            return ok_response(sessions=sorted(names),
                               unreachable=_unreachable(fanned))
        if op in ("shard_stats", "cluster_stats"):
            fanned = await self._poll_shard_stats()
            shards = [outcome for outcome in fanned if isinstance(outcome, dict)]
            unreachable = _unreachable(fanned)
            if op == "shard_stats":
                return ok_response(
                    shards=[{"shard": shard_id, **outcome}
                            for shard_id, outcome in enumerate(fanned)
                            if isinstance(outcome, dict)],
                    unreachable=unreachable,
                )
            merged = cluster_metrics.aggregate_cluster_stats(shards)
            merged["shards"] = self.num_shards
            merged["unreachable"] = unreachable
            return ok_response(**merged)
        raise ProtocolError("unknown-op", f"unhandled cluster op {op!r}")

    async def _poll_shard_stats(self) -> list[dict | ShardError]:
        """Every shard's full-form ``shard_stats`` payload, or its error.

        Each shard ships only the samples its mirror lacks; the mirror
        rebuilds the rest.
        """
        async with self._stats_lock:
            fanned = await self._fan_out(
                [mirror.request() for mirror in self._mirrors])
            return [mirror.fold(outcome) if isinstance(outcome, dict)
                    else outcome
                    for mirror, outcome in zip(self._mirrors, fanned)]

    async def _respond(self, line: str) -> bytes:
        """Route or answer one raw request line; returns the response line."""
        request_id = None
        try:
            request = parse_request(line)
            request_id = request.get("id")
            if request["op"] in ROUTED_OPS:
                # Byte-for-byte pass-through: the shard's response
                # already carries any id echo.
                return await self.link_for(request["session"]).request(
                    line.encode("utf-8")
                )
            response = await self.handle_cluster_op(request)
        except ProtocolError as exc:
            response = error_response(exc.code, str(exc))
        except ShardError as exc:
            response = error_response(exc.code, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            response = error_response("internal", f"{type(exc).__name__}: {exc}")
        if request_id is not None:
            response["id"] = request_id
        return encode(response)

    # ------------------------------------------------------------------ #
    # Transport                                                          #
    # ------------------------------------------------------------------ #
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection (bounded in-order pipelining)."""
        await pipe_connection(reader, writer, self._respond, MAX_INFLIGHT)

    def request_shutdown(self) -> None:
        """Ask a running :meth:`serve_forever` to stop (call via
        ``loop.call_soon_threadsafe`` from other threads)."""
        self._shutdown.set()

    async def serve_forever(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        announce: bool = False,
        on_ready=None,
    ) -> None:
        """Connect the shard links, bind, serve until shutdown, clean up.

        Mirrors :meth:`MatchingService.serve_forever`: ``port=0`` binds
        an ephemeral port, ``on_ready(host, port)`` fires once
        listening, and shutdown closes the listener before the links —
        no new connections are admitted while the cluster drains.
        """
        await self.connect()
        server = await asyncio.start_server(self.handle_connection, host, port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        if announce:
            print(f"repro-cluster router listening on "
                  f"{bound_host}:{bound_port} ({self.num_shards} shards)",
                  flush=True)
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        async with server:
            await self._shutdown.wait()
        for link in self.links:
            await link.close()
