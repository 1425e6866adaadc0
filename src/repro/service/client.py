"""Client library for the dynamic-matching server.

:class:`ServiceClient` is a blocking client over one TCP connection:
each :meth:`~ServiceClient.call` writes one request line and reads one
response line, so scripts, tests, and the load generator need no
asyncio of their own.  A response line may be any length (a
``snapshot`` or ``shard_stats`` reply grows with the session).

Failures come back as :class:`ServiceError` carrying the server's
stable error code (``backpressure``, ``bad-update``, …), so callers
can branch on ``exc.code`` rather than parsing messages.
"""

from __future__ import annotations

import json
import socket
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.service.protocol import encode

if TYPE_CHECKING:
    from repro.matching.matching import Matching


class ServiceError(RuntimeError):
    """The server answered ``ok: false``.

    Attributes
    ----------
    code:
        The response's stable error code.
    response:
        The full decoded response object.
    """

    def __init__(self, response: dict) -> None:
        """Wrap a failure response envelope."""
        super().__init__(
            f"{response.get('error', 'error')}: "
            f"{response.get('message', '(no message)')}"
        )
        self.code = response.get("error", "error")
        self.response = response


class ServiceClient:
    """Blocking client speaking ``repro-service-v1`` over one connection.

    Parameters
    ----------
    host, port:
        Server address (connects immediately).

    Examples
    --------
    ::

        client = ServiceClient(host, port)
        client.create("jobs", num_vertices=64, beta=1, epsilon=0.4, seed=0)
        client.insert("jobs", 0, 1)
        print(client.query_matching("jobs")["size"])
        client.close()
    """

    def __init__(self, host: str, port: int) -> None:
        """Connect to the server at ``host:port``."""
        self._socket = socket.create_connection((host, port))
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")

    def call(self, request: dict, check: bool = True) -> dict:
        """Send one request and return its response.

        With ``check`` (the default), an ``ok: false`` response raises
        :class:`ServiceError`; pass ``check=False`` to receive the raw
        envelope instead.
        """
        self._socket.sendall(encode(request))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if check and not response.get("ok", False):
            raise ServiceError(response)
        return response

    # ------------------------------------------------------------------ #
    # Op conveniences                                                    #
    # ------------------------------------------------------------------ #
    def ping(self) -> dict:
        """Liveness probe; returns the protocol banner."""
        return self.call({"op": "ping"})

    def create(
        self,
        session: str,
        num_vertices: int,
        beta: int,
        epsilon: float,
        seed: int | None = None,
        journal: bool = True,
        budget_ms: float | None = None,
    ) -> dict:
        """Create a named session on the server."""
        request: dict[str, Any] = {
            "op": "create", "session": session,
            "num_vertices": num_vertices, "beta": beta, "epsilon": epsilon,
            "journal": journal,
        }
        if seed is not None:
            request["seed"] = seed
        if budget_ms is not None:
            request["budget_ms"] = budget_ms
        return self.call(request)

    def insert(self, session: str, u: int, v: int) -> dict:
        """Insert edge {u, v} (queued through the micro-batcher)."""
        return self.call({"op": "insert", "session": session, "u": u, "v": v})

    def delete(self, session: str, u: int, v: int) -> dict:
        """Delete edge {u, v} (queued through the micro-batcher)."""
        return self.call({"op": "delete", "session": session, "u": u, "v": v})

    def batch(
        self, session: str, updates: Iterable[Sequence], check: bool = True
    ) -> dict:
        """Apply many ``(op, u, v)`` updates as one admission unit."""
        return self.call(
            {"op": "batch", "session": session,
             "updates": [[op, int(u), int(v)] for op, u, v in updates]},
            check=check,
        )

    def query_matching(self, session: str) -> dict:
        """The current output matching: ``{"size", "edges"}``."""
        return self.call({"op": "query_matching", "session": session})

    def matching(self, session: str, num_vertices: int | None = None) -> Matching:
        """The current output matching as a :class:`Matching` object.

        Pass ``num_vertices`` when known (saves a ``stats`` round-trip).
        """
        from repro.matching.matching import Matching

        payload = self.query_matching(session)
        if num_vertices is None:
            num_vertices = self.stats(session)["num_vertices"]
        return Matching.from_edges(
            num_vertices, [(u, v) for u, v in payload["edges"]]
        )

    def stats(self, session: str) -> dict:
        """The session's metrics snapshot."""
        return self.call({"op": "stats", "session": session})

    def snapshot(self, session: str) -> dict:
        """Graph edges, an on-demand G_Δ sample, and the state fingerprint."""
        return self.call({"op": "snapshot", "session": session})

    def close_session(self, session: str) -> dict:
        """Close a session (flushes and closes its replay journal)."""
        return self.call({"op": "close", "session": session})

    def sessions(self) -> list[str]:
        """Names of live sessions on the server."""
        return self.call({"op": "sessions"})["sessions"]

    def shard_stats(self) -> dict:
        """Server-wide metrics rollup (mergeable sorted-sample form)."""
        return self.call({"op": "shard_stats"})

    def cluster_stats(self) -> dict:
        """Cluster-wide aggregate (single server answers as one shard)."""
        return self.call({"op": "cluster_stats"})

    def shutdown(self) -> dict:
        """Stop the server (requires ``allow_shutdown`` server-side)."""
        return self.call({"op": "shutdown"})

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._reader.close()
        self._socket.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry (connection already open)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: close the client."""
        self.close()
