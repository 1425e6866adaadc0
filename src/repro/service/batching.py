"""Micro-batching with bounded queues and backpressure.

Concurrent client updates to one session are funneled through a
:class:`MicroBatcher`: a bounded asyncio queue drained by a single
worker task that applies up to :data:`MAX_BATCH` updates back-to-back,
flushes the replay journal once per batch, and attributes the batch's
measured wall-clock time evenly across its updates (one clock-read
pair per batch, not per update).

Serialization through the single worker is also what keeps the service
deterministic: updates are applied — and journaled — in one total
order, so replaying the journal reproduces the matching regardless of
how many clients raced to submit.

**Backpressure.**  The queue is bounded (:data:`MAX_QUEUE`); a submit that
does not fit is rejected *immediately* with :class:`Backpressure`
(surfaced to the client as the ``backpressure`` error code) and
counted in ``rejected_over_budget``.  Batch submissions are
all-or-nothing: a batch only enters the queue if every update fits,
so a client never observes a half-applied batch admission.  A batch
larger than the whole queue could never fit, so it is refused as
``bad-request`` rather than as a retryable ``backpressure``.
"""

from __future__ import annotations

import asyncio
from contextlib import suppress

from repro.instrument.timers import now
from repro.service.protocol import ProtocolError
from repro.service.session import Session, UpdateError

#: Largest number of queued updates one worker turn applies back-to-back.
MAX_BATCH = 32

#: Per-session queue bound; submits beyond it raise :class:`Backpressure`.
MAX_QUEUE = 1024


class Backpressure(RuntimeError):
    """The session's update queue is full; the op was rejected.

    Attributes
    ----------
    code:
        Stable protocol error code (``backpressure``).
    """

    def __init__(self, message: str) -> None:
        """Record the rejection reason."""
        super().__init__(message)
        self.code = "backpressure"


class MicroBatcher:
    """Coalesces one session's updates into bounded batches.

    Parameters
    ----------
    session:
        The :class:`~repro.service.session.Session` to apply updates to.

    Notes
    -----
    Must be constructed inside a running event loop (the worker task
    starts immediately).  :meth:`close` drains the queue and stops the
    worker.
    """

    def __init__(self, session: Session) -> None:
        """Start the worker task for ``session``."""
        self.session = session
        # Bounded at the backpressure threshold: submit() rejects before
        # put_nowait could ever overflow, so the bound is a hard backstop
        # (and satisfies the R13 unbounded-queue discipline).
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=MAX_QUEUE)
        self._closed = False
        self._worker = asyncio.get_running_loop().create_task(self._run())
        self._worker.add_done_callback(self._on_worker_done)

    # ------------------------------------------------------------------ #
    def _reject(self, count: int, detail: str) -> None:
        self.session.metrics.counters["rejected_over_budget"].add(count)
        raise Backpressure(
            f"session {self.session.name!r} queue is full ({detail}); "
            "retry after the backlog drains"
        )

    def _enqueue(self, op: str, u: int, v: int) -> asyncio.Future:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((op, u, v, future))
        self.session.metrics.set_queue_depth(self._queue.qsize())
        return future

    async def submit(self, op: str, u: int, v: int) -> dict:
        """Queue one update; await and return its applied record.

        Raises :class:`Backpressure` when the queue is full and
        :class:`~repro.service.session.UpdateError` when the session
        rejects the update itself.
        """
        if self._closed:
            raise Backpressure("batcher is closed")
        if self._queue.full():
            self._reject(1, f"depth {self._queue.qsize()}/{MAX_QUEUE}")
        return await self._enqueue(op, u, v)

    async def submit_batch(self, updates: list[tuple[str, int, int]]) -> list[dict]:
        """Queue many updates atomically; return per-update outcomes.

        Admission is all-or-nothing (the whole batch is rejected when
        it does not fit).  A batch of more than :data:`MAX_QUEUE`
        updates raises :class:`~repro.service.protocol.ProtocolError`
        (``bad-request``): no wait would admit it.  Each returned
        element is either the applied record or
        ``{"error": code, "message": ...}`` — one bad update does not
        poison its batch-mates.
        """
        if self._closed:
            raise Backpressure("batcher is closed")
        if len(updates) > MAX_QUEUE:
            raise ProtocolError(
                "bad-request",
                f"a batch holds at most {MAX_QUEUE} updates (the session "
                f"queue bound), got {len(updates)}; split it",
            )
        if self._queue.qsize() + len(updates) > MAX_QUEUE:
            self._reject(
                len(updates),
                f"batch of {len(updates)} vs depth "
                f"{self._queue.qsize()}/{MAX_QUEUE}",
            )
        futures = [self._enqueue(op, u, v) for op, u, v in updates]
        outcomes: list[dict] = []
        for future in futures:
            try:
                outcomes.append(await future)
            except UpdateError as exc:
                outcomes.append({"error": exc.code, "message": str(exc)})
        return outcomes

    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < MAX_BATCH:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                self._apply_batch(batch)
            except Exception as exc:
                # A non-UpdateError failure (matcher bug, journal IO
                # error) must not kill the worker: later submits would
                # queue forever and close() would deadlock on join().
                # Fail the batch's unresolved futures and keep serving.
                for _op, _u, _v, future in batch:
                    if not future.done():
                        future.set_exception(exc)
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _apply_batch(
        self, batch: list[tuple[str, int, int, asyncio.Future]]
    ) -> None:
        self.session.metrics.set_queue_depth(self._queue.qsize())
        start = now()
        results: list[tuple[asyncio.Future, dict | UpdateError]] = []
        applied = 0
        for op, u, v, future in batch:
            try:
                record = self.session.apply(op, u, v)
                applied += 1
                results.append((future, record))
            except UpdateError as exc:
                results.append((future, exc))
        self.session.flush_journal()
        elapsed = now() - start
        per_update = elapsed / len(batch)
        for _ in range(applied):
            self.session.metrics.latency.record(per_update)
        self.session.metrics.counters["batches"].increment()
        for future, outcome in results:
            if future.cancelled():
                continue
            if isinstance(outcome, UpdateError):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _fail_pending(self, exc: BaseException) -> None:
        """Drain the queue, failing every unresolved future with ``exc``."""
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            future = item[3]
            if not future.done():
                future.set_exception(exc)
            self._queue.task_done()

    def _on_worker_done(self, task: asyncio.Task) -> None:
        # The worker only exits via cancellation (close), but if it
        # ever dies, submitters must not hang on futures nobody will
        # resolve: mark the batcher closed and fail everything queued.
        self._closed = True
        exc: BaseException | None = None
        if not task.cancelled():
            exc = task.exception()
        self._fail_pending(exc or Backpressure("batcher worker stopped"))

    async def close(self) -> None:
        """Drain pending updates, then stop the worker task."""
        self._closed = True
        if not self._worker.done():
            await self._queue.join()
        self._worker.cancel()
        with suppress(asyncio.CancelledError):
            await self._worker
        self._fail_pending(Backpressure("batcher is closed"))
