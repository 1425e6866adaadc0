"""The serving transport: connection loop, signals, event loop, harness.

What a serving process needs besides its dispatcher, with neither numpy
nor the session stack imported, so the cluster router (which hosts no
session) starts without them:

* :func:`pipe_connection` — one JSON-lines connection with bounded
  in-order pipelining, shared by
  :class:`~repro.service.server.MatchingService` and
  :class:`~repro.cluster.router.ClusterRouter`;
* :func:`_shutdown_on_signals` and :func:`_run_service_loop` — SIGTERM
  and SIGINT as a graceful shutdown, and the event loop (deterministic
  under ``REPRO_ASYNC_SANITIZE=1``);
* :class:`BackgroundServer` — a server on an ephemeral port in a daemon
  thread, for tests and benchmarks.

:mod:`repro.service.server` re-exports all four.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from pathlib import Path
from typing import Awaitable, Callable

from repro.service.protocol import encode, error_response

_EOF = object()

#: asyncio's stream limit, which ``asyncio.start_server`` applies to
#: every connection: the longest request line a server reads.
STREAM_LIMIT = 1 << 16

#: Per-connection pipelining bound: at most this many requests may await
#: a response on one connection before the server stops reading its
#: socket (TCP backpressure), so a fast client cannot grow server
#: memory without bound.
MAX_INFLIGHT = 256


async def pipe_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    respond: Callable[[str], Awaitable[bytes]],
    max_inflight: int,
) -> None:
    """Drive one JSON-lines connection with bounded in-order pipelining.

    Each request line becomes its own ``respond`` task; encoded
    response lines are written back *in request order*.  Pipelining is
    bounded: once ``max_inflight`` requests are awaiting responses, the
    loop stops reading from the socket until responses drain, so a
    client that never reads cannot grow the outbox (or the per-request
    task set) without limit.  A request line longer than
    :data:`STREAM_LIMIT` gets a ``bad-request`` reply, after the replies
    to the requests before it, and the connection is closed.

    Shared by :class:`~repro.service.server.MatchingService` and the
    :class:`repro.cluster.router.ClusterRouter` front-end — the two
    speak the same wire protocol and need the same transport
    discipline; both pass :data:`MAX_INFLIGHT`.
    """
    loop = asyncio.get_running_loop()
    # The semaphore admits at most max_inflight response tasks, so
    # the outbox can never hold more than that plus the EOF
    # sentinel; the bound makes the invariant structural.
    outbox: asyncio.Queue = asyncio.Queue(maxsize=max_inflight + 1)
    inflight = asyncio.Semaphore(max_inflight)

    async def write_responses() -> None:
        while True:
            task = await outbox.get()
            if task is _EOF:
                return
            writer.write(await task)
            await writer.drain()
            inflight.release()

    writer_task = loop.create_task(write_responses())
    # If the writer dies early (client reset mid-write), a reader
    # blocked on the semaphore must wake up to notice and bail out.
    writer_task.add_done_callback(lambda _task: inflight.release())
    try:
        while True:
            await inflight.acquire()
            if writer_task.done():
                break
            try:
                line = await reader.readline()
            except ValueError as exc:
                # A line past the stream limit: refuse it (in order) and
                # close.  readline() consumed it if its end was already
                # buffered; otherwise ("Separator is not found") the
                # rest is still to come.
                outbox.put_nowait(loop.create_task(_refuse_long_line()))
                outbox.put_nowait(_EOF)
                if "not found" in str(exc):
                    await _skip_line(reader)
                break
            if not line:
                outbox.put_nowait(_EOF)
                break
            outbox.put_nowait(loop.create_task(
                respond(line.decode("utf-8", "replace"))
            ))
        await writer_task
    except ConnectionResetError:  # pragma: no cover - client vanished
        writer_task.cancel()
    except asyncio.CancelledError:
        # Server shutdown cancels live connection tasks; swallow the
        # cancellation (instead of re-raising into asyncio's stream
        # callback, which would log it) and fall through to cleanup.
        writer_task.cancel()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            # CancelledError lands here when shutdown cancels the
            # task mid-wait; completing normally keeps asyncio's
            # stream callback from logging a spurious traceback.
            pass



async def _refuse_long_line() -> bytes:
    return encode(error_response(
        "bad-request",
        f"request line longer than the {STREAM_LIMIT // 1024} KiB stream "
        "limit; closing the connection",
    ))


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Discard input up to the end of the current line (or EOF).

    Closing a socket with unread input resets the connection, and the
    reset can reach the client before it has read the refusal.
    """
    while True:
        chunk = await reader.read(STREAM_LIMIT)
        if not chunk or b"\n" in chunk:
            return


@contextlib.contextmanager
def _shutdown_on_signals(request_shutdown: Callable[[], None]):
    """Route SIGTERM/SIGINT to ``request_shutdown`` on the running loop.

    The handlers are removed again on exit.  Where the loop cannot take
    signal handlers (a non-main thread, or a platform without loop
    signal support) nothing is installed; the shutdown op still works.
    """
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, request_shutdown)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        yield
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


#: asyncio reads a socket into a fresh 256 KiB buffer (the selector
#: transport's ``max_size``).  glibc maps any block above its mmap
#: threshold (128 KiB at process start) with ``mmap``, so each read
#: would map, fault in, shrink and unmap a page: up to ~40 µs per
#: request on a 2-vCPU VM.  Freeing one larger block raises the
#: threshold past the buffer for good (mallopt(3), dynamic mmap
#: threshold); ``bytes`` allocates it zeroed by ``calloc``, so its
#: pages are never touched.  A process that imports scipy got this by
#: accident; a lean one must ask.
_READ_BUFFER_BLOCK = 1 << 20


def _run_service_loop(main) -> object:
    """Run the service coroutine, honoring ``REPRO_ASYNC_SANITIZE=1``.

    The sanitized path swaps in the deterministic event loop
    (:mod:`repro.service.sanitizer`): task interleaving is recorded —
    and optionally seed-perturbed — instead of left to arrival order.
    The default path is a plain :func:`asyncio.run`.
    """
    from repro.service import sanitizer

    bytes(_READ_BUFFER_BLOCK)
    if sanitizer.async_sanitize_enabled():
        return sanitizer.run_sanitized(main)
    return asyncio.run(main)


class BackgroundServer:
    """A server on an ephemeral port in a daemon thread (tests/benchmarks).

    Usage::

        with BackgroundServer(journal_dir=tmp) as server:
            client = ServiceClient(server.host, server.port)
            ...

    The context manager waits until the socket is listening on entry
    and requests a clean shutdown (draining batchers, closing
    journals) on exit.  It serves whatever :attr:`service` holds at
    entry: anything with ``serve_forever(on_ready=...)`` and
    ``request_shutdown()`` (:class:`~repro.cluster.runner.BackgroundCluster`
    puts its router there).
    """

    #: The listening address, set once the server is up.
    host: str | None = None
    port: int | None = None
    _loop: asyncio.AbstractEventLoop | None = None

    def __init__(self, journal_dir: str | Path | None = None,
                 allow_shutdown: bool = True) -> None:
        """Build the :class:`MatchingService` to serve."""
        from repro.service.server import MatchingService

        self.service = MatchingService(journal_dir, allow_shutdown)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()

            def ready(host: str, port: int) -> None:
                self.host, self.port = host, port
                self._ready.set()

            await self.service.serve_forever(on_ready=ready)

        _run_service_loop(main())

    def __enter__(self) -> "BackgroundServer":
        """Start the thread and block until the server is listening."""
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError(f"{type(self).__name__} failed to start")
        return self

    def __exit__(self, *exc: object) -> None:
        """Request shutdown and join the server thread."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.service.request_shutdown
                )
            except RuntimeError:
                # Loop already closed: the service stopped on its own
                # (a client-issued ``shutdown``, or a dead shard worker
                # under a cluster router) — nothing left to do.
                pass
        self._thread.join(timeout=30)
