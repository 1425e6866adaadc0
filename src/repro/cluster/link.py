"""One router→shard connection: FIFO correlation, bounded in-flight window.

A :class:`ShardLink` multiplexes every routed request for one shard
over a single TCP connection.  The shard answers *in request order* on
a connection (the ``repro-service-v1`` contract), so correlation needs
no request ids: a bounded FIFO queue of pending futures is popped as
response lines arrive.

The queue bound is the link's **in-flight window**: at most
:data:`WINDOW` requests may be awaiting shard responses; further
senders wait on the queue (FIFO), which propagates backpressure from a
slow shard up to the router's per-client pipelining cap — and from
there, by the router not reading the client socket, to TCP itself.  Shard-level
admission rejections (the ``backpressure`` error code) are ordinary
responses and pass through to the client verbatim.
"""

from __future__ import annotations

import asyncio
import json

from repro.service.protocol import encode

#: In-flight window: the most requests awaiting responses on one link.
WINDOW = 64


class ShardError(RuntimeError):
    """The shard connection is down (refused, reset, or closed).

    Attributes
    ----------
    code:
        Stable protocol error code (``shard-unavailable``) the router
        maps this to.
    """

    def __init__(self, message: str) -> None:
        """Record what made the shard unreachable."""
        super().__init__(message)
        self.code = "shard-unavailable"


class ShardLink:
    """Router-side connection to one shard worker (see module docstring).

    Parameters
    ----------
    shard_id:
        Shard index (used in error messages and stats).
    host, port:
        The worker's listening address.
    """

    def __init__(self, shard_id: int, host: str, port: int) -> None:
        """Record the address; call :meth:`connect` inside a loop."""
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        # Bounded at the window: senders block on put() when the shard
        # has WINDOW responses outstanding (R13 discipline).
        self._pending: asyncio.Queue = asyncio.Queue(maxsize=WINDOW)
        self._lock = asyncio.Lock()
        self._receiver: asyncio.Task | None = None
        self._dead = False

    async def connect(self) -> None:
        """Open the TCP connection and start the response receiver."""
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ShardError(
                f"shard {self.shard_id} at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        self._receiver = asyncio.get_running_loop().create_task(
            self._receive()
        )

    # ------------------------------------------------------------------ #
    async def request(self, raw: bytes) -> bytes:
        """Forward one encoded request line; await its response line.

        Raw bytes in, raw bytes out: pass-through routing never
        re-encodes, so the shard's response (including any client
        ``id`` echo) reaches the client byte-for-byte.
        """
        if self._dead or self._writer is None:
            raise ShardError(f"shard {self.shard_id} link is down")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        async with self._lock:
            # The lock serializes writers, so pending-queue order ==
            # socket write order == shard response order (FIFO
            # correlation); waiters acquire in task-creation order, so
            # one client connection's updates keep their order.
            writer = self._writer
            if self._dead or writer is None:
                raise ShardError(f"shard {self.shard_id} link is down")
            await self._pending.put(future)
            writer.write(raw)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                # The receiver observes the same death and fails every
                # pending future; fall through to awaiting ours.
                pass
        if self._dead and not future.done():
            # Closes the race where the receiver drained the pending
            # queue before our put landed.
            future.set_exception(
                ShardError(f"shard {self.shard_id} link is down")
            )
        return await future

    async def call(self, request: dict) -> dict:
        """Encode, forward, and decode one request (fan-out ops)."""
        return json.loads(await self.request(encode(request)))

    # ------------------------------------------------------------------ #
    async def _receive(self) -> None:
        try:
            while True:
                assert self._reader is not None
                line = await self._reader.readline()
                if not line:
                    break
                future = self._pending.get_nowait()
                if not future.done():
                    future.set_result(line)
        except (ConnectionResetError, ValueError, asyncio.QueueEmpty):
            # ValueError: a line past the stream limit (64 KiB) leaves
            # the stream desynchronised, so the link dies as on a reset.
            pass
        finally:
            self._dead = True
            self._fail_pending()

    def _fail_pending(self) -> None:
        while True:
            try:
                future = self._pending.get_nowait()
            except asyncio.QueueEmpty:
                return
            if not future.done():
                future.set_exception(
                    ShardError(f"shard {self.shard_id} connection closed")
                )

    @property
    def alive(self) -> bool:
        """Whether the link is connected and serving."""
        return self._writer is not None and not self._dead

    async def close(self) -> None:
        """Close the connection and fail anything still pending."""
        self._dead = True
        receiver, self._receiver = self._receiver, None
        if receiver is not None:
            receiver.cancel()
            try:
                await receiver
            except asyncio.CancelledError:
                pass
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        self._fail_pending()
