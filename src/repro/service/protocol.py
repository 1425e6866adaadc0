"""The ``repro-service-v1`` wire protocol: JSON lines over TCP.

One request per line, one response line per request, in order.  A
request is a JSON object with an ``op`` field plus op-specific
parameters; a response always carries ``ok`` (bool) and, on failure,
``error`` (a stable machine-readable code) and ``message``.

Pipelining semantics: a client may send many requests before reading
responses; responses come back in request order, and updates pipelined
on one connection are admitted (and applied) in that order.  *Queries*
pipelined behind updates may however execute while those updates are
still queued — for read-your-writes, read the update responses before
querying (the synchronous client does this by construction).

Ops
---
``ping``
    Liveness probe; echoes the protocol version.
``create``
    Create a named session: ``session``, ``num_vertices``, ``beta``,
    ``epsilon``; optional ``seed``, ``journal`` (bool), ``budget_ms``,
    and ``backend`` (only ``"lazy_rebuild"`` is served since 8.0.0).
``insert`` / ``delete``
    One edge update: ``session``, ``u``, ``v``.  Queued through the
    session's micro-batcher; may be rejected with ``backpressure``.
``batch``
    Many updates at once: ``session``, ``updates`` = list of
    ``[op, u, v]`` triples.  All-or-nothing admission control.
``query_matching``
    Current output matching: size + edge list.
``stats``
    Metrics snapshot: counters, latency percentiles, queue depth,
    work bounds, Lemma 3.4 certificate.
``snapshot``
    Current graph, a G_Δ sampled on demand, and the session fingerprint.
``close``
    Close a session (flushes and closes its replay journal).
``sessions``
    List live session names.
``shard_stats``
    Server-wide (per-shard) metrics rollup: counter sums over every
    live session, the union of latency samples *sorted ascending*
    (the mergeable form — cluster aggregation unions sorted sample
    lists instead of averaging percentiles), and queue gauges.
    Optional ``since`` = ``{uid: count}`` asks for the cursor form:
    each live session's samples past ``count``, in record order,
    under ``latency.tails`` (the cluster router's mirror polls so).
``cluster_stats``
    Cluster-wide aggregate.  A plain server answers for itself as a
    single-shard cluster; the :mod:`repro.cluster` router fans
    ``shard_stats`` out to every shard and merges.
``shutdown``
    Stop the server (only honored when started with
    ``allow_shutdown=True``; otherwise ``shutdown-disabled``).

Session names are constrained to :data:`SESSION_NAME_RE` (filename-safe
alphanumerics plus ``._-``, no leading dot, ≤128 chars) — they become
journal file names, so anything else is ``bad-request``.

Error codes: ``bad-request``, ``unknown-op``, ``no-such-session``,
``session-exists``, ``bad-update``, ``backpressure``,
``shutdown-disabled``, ``internal``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Mapping

#: Protocol identifier echoed by ``ping`` and recorded in journals.
PROTOCOL = "repro-service-v1"

#: Admissible session names.  Names become journal file names
#: (``<journal_dir>/<name>.jsonl``), so the class is closed: no path
#: separators, no leading dot, bounded length — a wire client cannot
#: point the journal outside the journal directory.
SESSION_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

#: All request ops the server understands.
OPS = frozenset({
    "ping", "create", "insert", "delete", "batch", "query_matching",
    "stats", "snapshot", "close", "sessions", "shard_stats",
    "cluster_stats", "shutdown",
})

#: Ops that address an existing session via the ``session`` field.
SESSION_OPS = frozenset({
    "insert", "delete", "batch", "query_matching", "stats", "snapshot",
    "close",
})

#: Required (field, type) pairs per op, beyond ``op`` itself.  ``float``
#: accepts ints too (JSON numbers).
_REQUIRED: dict[str, tuple[tuple[str, type], ...]] = {
    "create": (("session", str), ("num_vertices", int), ("beta", int),
               ("epsilon", float)),
    "insert": (("session", str), ("u", int), ("v", int)),
    "delete": (("session", str), ("u", int), ("v", int)),
    "batch": (("session", str), ("updates", list)),
    "query_matching": (("session", str),),
    "stats": (("session", str),),
    "snapshot": (("session", str),),
    "close": (("session", str),),
    "ping": (),
    "sessions": (),
    "shard_stats": (),
    "cluster_stats": (),
    "shutdown": (),
}


class ProtocolError(ValueError):
    """A malformed or invalid request line.

    Attributes
    ----------
    code:
        Stable error code for the response envelope.
    """

    def __init__(self, code: str, message: str) -> None:
        """Store the error ``code`` and human-readable ``message``."""
        super().__init__(message)
        self.code = code


def _type_ok(value: Any, expected: type) -> bool:
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def parse_request(line: str) -> dict:
    """Parse and structurally validate one request line.

    Raises
    ------
    ProtocolError
        With code ``bad-request`` for unparsable/ill-typed input and
        ``unknown-op`` for an unrecognized ``op``.
    """
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-request", f"not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "request is missing the op field")
    if op not in OPS:
        raise ProtocolError("unknown-op", f"unknown op {op!r}")
    for field, expected in _REQUIRED[op]:
        if field not in request:
            raise ProtocolError(
                "bad-request", f"op {op!r} requires the {field!r} field"
            )
        if not _type_ok(request[field], expected):
            raise ProtocolError(
                "bad-request",
                f"field {field!r} of op {op!r} must be "
                f"{expected.__name__}, got {type(request[field]).__name__}",
            )
    name = request.get("session")
    if isinstance(name, str) and not SESSION_NAME_RE.fullmatch(name):
        raise ProtocolError(
            "bad-request",
            f"invalid session name {name!r}: must match "
            f"{SESSION_NAME_RE.pattern}",
        )
    if op == "shard_stats" and "since" in request:
        since = request["since"]
        if not isinstance(since, dict) or not all(
                _type_ok(count, int) and count >= 0
                for count in since.values()):
            raise ProtocolError(
                "bad-request",
                "field 'since' of op 'shard_stats' must map recorder "
                "uids to sample counts >= 0",
            )
    if op == "batch":
        for i, item in enumerate(request["updates"]):
            if (not isinstance(item, (list, tuple)) or len(item) != 3
                    or item[0] not in ("insert", "delete")
                    or not _type_ok(item[1], int) or not _type_ok(item[2], int)):
                raise ProtocolError(
                    "bad-request",
                    f"updates[{i}] must be an [\"insert\"|\"delete\", u, v] "
                    "triple",
                )
    return request


def encode(message: Mapping[str, Any]) -> bytes:
    """Serialize one protocol message as a compact JSON line (bytes)."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def ok_response(**payload: Any) -> dict:
    """Build a success envelope around ``payload``."""
    return {"ok": True, **payload}


def error_response(code: str, message: str) -> dict:
    """Build a failure envelope with a stable ``code``."""
    return {"ok": False, "error": code, "message": message}
