"""Tests for the micro-batcher: coalescing, backpressure, atomicity."""

import asyncio

import pytest

from repro.service import batching
from repro.service.batching import Backpressure, MicroBatcher
from repro.service.protocol import ProtocolError
from repro.service.session import Session, UpdateError

pytestmark = pytest.mark.fast


def make_session(**kwargs):
    kwargs.setdefault("num_vertices", 16)
    kwargs.setdefault("beta", 1)
    kwargs.setdefault("epsilon", 0.4)
    kwargs.setdefault("seed", 0)
    return Session("batch-test", **kwargs)


def run(coroutine):
    return asyncio.run(coroutine)


class TestSubmit:
    def test_single_update_applied(self):
        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            record = await batcher.submit("insert", 0, 1)
            await batcher.close()
            return session, record

        session, record = run(scenario())
        assert record == {"seq": 1, "op": "insert", "work": record["work"]}
        assert session.seq == 1
        assert session.matcher.graph.has_edge(0, 1)

    def test_update_error_propagates(self):
        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            await batcher.submit("insert", 0, 1)
            try:
                with pytest.raises(UpdateError):
                    await batcher.submit("insert", 0, 1)
            finally:
                await batcher.close()

        run(scenario())

    def test_closed_batcher_rejects(self):
        async def scenario():
            batcher = MicroBatcher(make_session())
            await batcher.close()
            with pytest.raises(Backpressure):
                await batcher.submit("insert", 0, 1)
            with pytest.raises(Backpressure):
                await batcher.submit_batch([("insert", 0, 1)])

        run(scenario())

    def test_requires_running_loop(self):
        with pytest.raises(RuntimeError):
            MicroBatcher(make_session())


class TestWorkerRobustness:
    def test_internal_error_fails_future_but_not_worker(self):
        # A non-UpdateError from session.apply must fail that submit's
        # future, yet leave the worker alive for subsequent updates and
        # let close() complete without deadlocking on queue.join().
        async def scenario():
            session = make_session()
            boom = RuntimeError("backend exploded")
            original_apply = session.apply
            failures = [boom]

            def flaky_apply(op, u, v):
                if failures:
                    raise failures.pop()
                return original_apply(op, u, v)

            session.apply = flaky_apply
            batcher = MicroBatcher(session)
            with pytest.raises(RuntimeError, match="backend exploded"):
                await batcher.submit("insert", 0, 1)
            record = await batcher.submit("insert", 2, 3)  # worker survived
            await batcher.close()
            return session, record

        session, record = run(scenario())
        assert record["seq"] == 1
        assert session.matcher.graph.has_edge(2, 3)

    def test_journal_flush_error_does_not_wedge_submitters(self):
        async def scenario():
            session = make_session()
            session.flush_journal = lambda: (_ for _ in ()).throw(
                OSError("disk full")
            )
            batcher = MicroBatcher(session)
            with pytest.raises(OSError, match="disk full"):
                await batcher.submit("insert", 0, 1)
            await batcher.close()  # must not deadlock

        run(scenario())

    def test_dead_worker_fails_queued_and_future_submits(self):
        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            batcher._worker.cancel()
            await asyncio.sleep(0)  # let cancellation + done-callback run
            with pytest.raises(Backpressure):
                await batcher.submit("insert", 0, 1)
            await batcher.close()  # idempotent, no hang

        run(scenario())
    def test_coalescing_into_bounded_batches(self, monkeypatch):
        # submit_batch enqueues synchronously, so the worker sees all ten
        # updates at once and must split them into ceil(10/4) = 3 batches.
        monkeypatch.setattr(batching, "MAX_BATCH", 4)

        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            updates = [("insert", 2 * i, 2 * i + 1) for i in range(8)]
            updates += [("delete", 0, 1), ("insert", 0, 1)]
            outcomes = await batcher.submit_batch(updates)
            await batcher.close()
            return session, outcomes

        session, outcomes = run(scenario())
        assert len(outcomes) == 10
        assert all("error" not in outcome for outcome in outcomes)
        assert session.metrics.counters.value("batches") == 3
        assert session.metrics.counters.value("updates") == 10
        assert session.metrics.latency.snapshot()["count"] == 10
        assert session.metrics.max_queue_depth == 10

    def test_bad_update_does_not_poison_batch(self):
        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            outcomes = await batcher.submit_batch([
                ("insert", 0, 1),
                ("insert", 0, 1),   # duplicate: rejected
                ("insert", 2, 3),
            ])
            await batcher.close()
            return session, outcomes

        session, outcomes = run(scenario())
        assert "error" not in outcomes[0]
        assert outcomes[1]["error"] == "bad-update"
        assert "error" not in outcomes[2]
        assert session.seq == 2
        assert session.matcher.graph.has_edge(0, 1)
        assert session.matcher.graph.has_edge(2, 3)

    def test_batch_admission_is_all_or_nothing(self, monkeypatch):
        monkeypatch.setattr(batching, "MAX_QUEUE", 4)

        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            first = asyncio.ensure_future(batcher.submit_batch(
                [("insert", 2 * i, 2 * i + 1) for i in range(3)]))
            await asyncio.sleep(0)  # the first batch is queued, not applied
            updates = [("insert", 2 * i, 2 * i + 1) for i in range(3, 5)]
            with pytest.raises(Backpressure, match="retry"):
                await batcher.submit_batch(updates)
            await first
            await batcher.close()
            return session

        session = run(scenario())
        # Only the first batch was applied; the rejection counted in full.
        assert session.seq == 3
        assert session.metrics.counters.value("rejected_over_budget") == 2

    def test_batch_larger_than_the_queue_is_a_bad_request(self, monkeypatch):
        # No wait would ever admit it, so the retryable backpressure
        # code would have a client retry forever.
        monkeypatch.setattr(batching, "MAX_QUEUE", 4)

        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            updates = [("insert", 2 * i, 2 * i + 1) for i in range(5)]
            with pytest.raises(ProtocolError) as refused:
                await batcher.submit_batch(updates)
            applied = await batcher.submit_batch(updates[:4])
            await batcher.close()
            return session, refused.value, applied

        session, refused, applied = run(scenario())
        assert refused.code == "bad-request"
        assert "at most 4 updates" in str(refused)
        assert [outcome["seq"] for outcome in applied] == [1, 2, 3, 4]
        assert session.metrics.counters.value("rejected_over_budget") == 0

    def test_updates_applied_in_submission_order(self, monkeypatch):
        monkeypatch.setattr(batching, "MAX_BATCH", 3)

        async def scenario():
            session = make_session()
            batcher = MicroBatcher(session)
            outcomes = await batcher.submit_batch([
                ("insert", 0, 1), ("delete", 0, 1), ("insert", 0, 1),
                ("delete", 0, 1), ("insert", 0, 1),
            ])
            await batcher.close()
            return session, outcomes

        session, outcomes = run(scenario())
        # Only valid if applied strictly in order across batch boundaries.
        assert [outcome["seq"] for outcome in outcomes] == [1, 2, 3, 4, 5]
        assert session.matcher.graph.has_edge(0, 1)
