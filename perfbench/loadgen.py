"""The load generator: plain sockets, no event loop.

A closed loop blocks on the socket and stamps a response the moment it
arrives; the open loop spins between sending what is due and stamping
what has arrived.  No event-loop tick sits between the wire and a
timestamp.  Every request carries a unique ``id``; the server answers in
request order on a connection, and the receiver checks the echo, so a
lost or reordered response fails the run instead of skewing it.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from dataclasses import dataclass, field


class ProtocolBreak(RuntimeError):
    """The server broke the request/response contract of a connection."""


@dataclass
class OpCounts:
    """Attempted / succeeded / failed requests, by op and error code."""

    attempted: dict = field(default_factory=dict)
    succeeded: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def record(self, op: str, response: dict) -> bool:
        """Count one answered request; returns whether it succeeded."""
        self.attempted[op] = self.attempted.get(op, 0) + 1
        if response.get("ok"):
            self.succeeded[op] = self.succeeded.get(op, 0) + 1
            return True
        self.failed[op] = self.failed.get(op, 0) + 1
        code = str(response.get("error"))
        self.errors[code] = self.errors.get(code, 0) + 1
        return False

    def merge(self, other: "OpCounts") -> None:
        """Add ``other``'s counts into this one."""
        for mine, theirs in ((self.attempted, other.attempted),
                             (self.succeeded, other.succeeded),
                             (self.failed, other.failed),
                             (self.errors, other.errors)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def total(self, which: str) -> int:
        """Sum of one table over every op."""
        return sum(getattr(self, which).values())

    def as_dict(self) -> dict:
        """JSON-ready copy."""
        return {"attempted": self.attempted, "succeeded": self.succeeded,
                "failed": self.failed, "errors": self.errors}


class Connection:
    """One JSON-lines connection with pipelined, id-checked requests."""

    def __init__(self, host: str, port: int, id_base: int) -> None:
        """Connect; request ids start at ``id_base`` (unique per run)."""
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.counts = OpCounts()
        self.sent = 0
        self._next_id = id_base
        self._pending: deque = deque()
        self._buffer = bytearray()

    def send(self, request: dict) -> int:
        """Write one request without waiting; returns its id."""
        request_id = self._next_id
        self._next_id += 1
        request["id"] = request_id
        line = (json.dumps(request, separators=(",", ":")) + "\n").encode()
        self._pending.append((request_id, request["op"]))
        self.sock.sendall(line)
        self.sent += 1
        return request_id

    def _read(self, block: bool) -> None:
        """Move the bytes that have arrived into the buffer."""
        try:
            flags = 0 if block else socket.MSG_DONTWAIT
            chunk = self.sock.recv(1 << 20, flags)
        except BlockingIOError:
            return
        if not chunk:
            raise ProtocolBreak("server closed the connection")
        self._buffer += chunk

    def _next_line(self) -> bytes | None:
        end = self._buffer.find(b"\n")
        if end < 0:
            return None
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        return line

    def _settle(self, line: bytes) -> tuple[dict, bool]:
        request_id, op = self._pending.popleft()
        response = json.loads(line)
        if response.get("id") != request_id:
            raise ProtocolBreak(
                f"response id {response.get('id')} does not answer "
                f"request {request_id}")
        return response, self.counts.record(op, response)

    def ready(self) -> list[tuple[dict, bool]]:
        """Every response already received, without waiting."""
        self._read(block=False)
        out = []
        while (line := self._next_line()) is not None:
            out.append(self._settle(line))
        return out

    def receive(self) -> tuple[dict, bool]:
        """Wait for the oldest pending response: ``(response, ok)``."""
        while (line := self._next_line()) is None:
            self._read(block=True)
        return self._settle(line)

    def call(self, request: dict) -> tuple[dict, bool, float]:
        """Round trip: ``(response, succeeded, seconds)``."""
        start = time.perf_counter()
        self.send(request)
        response, ok = self.receive()
        return response, ok, time.perf_counter() - start

    def checked(self, request: dict) -> dict:
        """Round trip that must succeed (setup and checks, off the clock)."""
        response, ok, _ = self.call(request)
        if not ok:
            raise ProtocolBreak(f"{request['op']} failed: {response}")
        return response

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()


def pipelined(conn: Connection, requests, depth: int,
              on_response=None) -> list[tuple[float, float, bool]]:
    """Closed loop keeping ``depth`` requests in flight on ``conn``.

    Returns ``(sent, answered, succeeded)`` per request, in order;
    ``on_response(index, response)`` sees each answer as it arrives.
    """
    records: list[tuple[float, float, bool]] = []
    sent: deque = deque()
    iterator = iter(requests)
    index = 0
    exhausted = False
    while True:
        while not exhausted and len(sent) < depth:
            request = next(iterator, None)
            if request is None:
                exhausted = True
                break
            sent.append(time.perf_counter())
            conn.send(request)
        if not sent:
            return records
        response, ok = conn.receive()
        records.append((sent.popleft(), time.perf_counter(), ok))
        if on_response is not None:
            on_response(index, response)
        index += 1


def open_loop(conn: Connection, requests: list[dict], offsets: list[float],
              ) -> tuple[float, list[float], list[float], list[bool]]:
    """Send ``requests[k]`` at ``offsets[k]`` seconds after the start.

    The schedule is kept regardless of responses (an open loop).  One
    thread spins between sending what is due and stamping what has
    arrived, so neither a send nor a stamp waits for a sleeping vCPU.
    Returns the start time plus, per request, the actual send offset,
    the answer offset and whether it succeeded.  Latency is taken from
    the *intended* send time by the caller, so a stall charges every
    request it delayed.
    """
    count = len(requests)
    actual = [0.0] * count
    answered = [0.0] * count
    succeeded = [False] * count
    start = time.perf_counter() + 0.05
    sent = got = 0
    while got < count:
        now = time.perf_counter() - start
        if sent < count and now >= offsets[sent]:
            actual[sent] = now
            conn.send(requests[sent])
            sent += 1
            continue
        for _response, ok in conn.ready():
            answered[got] = time.perf_counter() - start
            succeeded[got] = ok
            got += 1
    return start, actual, answered, succeeded
