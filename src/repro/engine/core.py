"""The parallel experiment engine: deterministic, fault-tolerant fan-out.

Every experiment in this package is a bag of *independent trials* — build
a sparsifier, run a pipeline, replay an update stream — whose results are
then folded into one table.  :func:`execute` runs such a bag either
in-process (``workers=1``, byte-identical to the historical serial path)
or across a :class:`concurrent.futures.ProcessPoolExecutor`, under three
invariants that make the two paths indistinguishable except for
wall-clock time:

**RNG discipline.**  Tasks never derive randomness from worker state.
The caller spawns one child generator per trial from the root seed
*before* dispatch (:func:`repro.instrument.rng.spawn_rngs` — numpy's
spawn-key mechanism, so child k is the same stream no matter which
process eventually runs it) and attaches it to the
:class:`TrialTask`.  Results are therefore identical for any worker
count.

**Ordering.**  Results are returned (and worker-side counters merged
into the parent) in task-submission order regardless of completion
order, so downstream folds see a deterministic sequence.

**Pickling contract.**  A task's ``fn`` must be an importable
module-level function, and its arguments must be cheap to ship: send the
*generator spec and seed*, not the built graph, and rebuild (memoized)
inside the worker.  A large object genuinely shared by every task can be
broadcast once per worker via ``context=`` instead of once per task.
(Rule R3 of ``repro.lint`` enforces the module-level requirement
statically: lambdas and nested functions would either fail to pickle or,
worse, close over ``Generator`` state and break worker-count
independence.)

On top of those, the engine is **fault tolerant** (see
``docs/ENGINE.md`` "Fault tolerance & chaos testing"):

* a failed task is retried up to :attr:`RetryPolicy.max_retries` times
  with exponential backoff, each retry re-deriving the task's generator
  from the :class:`~repro.instrument.rng.RngSpec` captured at submission
  — so a retried trial replays *the same stream from the start* and the
  final results stay byte-identical to a failure-free run;
* a hung task (pool path only — an in-process call cannot be preempted)
  is detected via :attr:`RetryPolicy.timeout`, its pool torn down and
  respawned, and only unfinished tasks re-enqueued;
* a dead worker (``BrokenProcessPool``) likewise triggers a respawn;
  after :attr:`RetryPolicy.max_pool_respawns` teardowns the engine
  degrades gracefully to serial in-process execution for the remainder;
* completed tasks can be journaled to a ``checkpoint`` file
  (:mod:`repro.engine.checkpoint`) so an interrupted sweep resumes from
  its completed trials with counters and fingerprints intact;
* failures themselves can be *injected* deterministically for tests and
  CI via :mod:`repro.engine.faults` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Literal, Sequence, TypeAlias

import numpy as np

from repro.engine.checkpoint import Checkpoint, run_key_for
from repro.engine.faults import Fault, FaultPlan
from repro.instrument.counters import CounterSet
from repro.instrument.rng import (
    RngFingerprint,
    RngSpec,
    SanitizedGenerator,
    resolve_rng,
    rng_from_spec,
    rng_sanitize_enabled,
    rng_spec,
    sanitize_rng,
    spawn_rngs,
    spec_stream_id,
)

WorkerSpec: TypeAlias = int | Literal["auto"]


class TaskTimeoutError(TimeoutError):
    """A task exceeded the per-task timeout and its retry budget."""


def resolve_workers(workers: WorkerSpec) -> int:
    """Turn a ``--workers`` style spec into a concrete process count.

    ``"auto"`` means one worker per available CPU (never less than 1);
    integers pass through after validation.
    """
    if workers == "auto":
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return count


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else None


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`execute` responds to task and pool failures.

    Attributes
    ----------
    max_retries:
        Extra attempts per task after the first (so a task runs at most
        ``max_retries + 1`` times).  Retries re-derive the task's
        generator from its captured :class:`RngSpec`, so a retried trial
        draws the identical stream a clean run would have.
    timeout:
        Per-task wall-clock budget in seconds, enforced on the pool path
        (an in-process task cannot be preempted, so ``workers=1`` runs
        ignore it).  A timed-out task costs one pool respawn: the hung
        worker cannot be reclaimed individually.
    backoff, backoff_factor, max_backoff:
        Exponential backoff between retries of one task:
        ``min(backoff * backoff_factor**k, max_backoff)`` seconds after
        failure ``k``.  ``backoff=0`` disables sleeping (tests).
    max_pool_respawns:
        Pool teardowns (worker death or task timeout) tolerated before
        the engine degrades to serial in-process execution for the
        remaining tasks.
    """

    max_retries: int = 2
    timeout: float | None = None
    backoff: float = 0.02
    backoff_factor: float = 2.0
    max_backoff: float = 1.0
    max_pool_respawns: int = 3

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Build a policy from ``REPRO_RETRIES`` / ``REPRO_TASK_TIMEOUT``
        / ``REPRO_RETRY_BACKOFF`` / ``REPRO_POOL_RESPAWNS`` (unset
        variables keep the defaults)."""
        kwargs: dict[str, Any] = {}
        retries = os.environ.get("REPRO_RETRIES", "").strip()
        if retries:
            kwargs["max_retries"] = int(retries)
        timeout = _env_float("REPRO_TASK_TIMEOUT")
        if timeout is not None:
            kwargs["timeout"] = timeout
        backoff = _env_float("REPRO_RETRY_BACKOFF")
        if backoff is not None:
            kwargs["backoff"] = backoff
        respawns = os.environ.get("REPRO_POOL_RESPAWNS", "").strip()
        if respawns:
            kwargs["max_pool_respawns"] = int(respawns)
        return cls(**kwargs)

    def backoff_for(self, failure_index: int) -> float:
        """Seconds to sleep after the ``failure_index``-th failure (0-based)."""
        if self.backoff <= 0:
            return 0.0
        return min(
            self.backoff * self.backoff_factor ** failure_index,
            self.max_backoff,
        )


@dataclass(frozen=True)
class TrialTask:
    """One unit of independent work for :func:`execute`.

    Attributes
    ----------
    fn:
        Module-level function to call (must be picklable by reference).
    args, kwargs:
        Positional/keyword payload.  Everything here crosses a process
        boundary when ``workers > 1`` — ship generator specs and seeds,
        not built graphs.
    rng:
        Pre-spawned child generator, passed to ``fn`` as the ``rng``
        keyword.  Spawn it from the root seed *before* building the task
        (see :func:`fanout`) so results are worker-count independent.
        Hand it over unconsumed: the engine captures its
        :class:`~repro.instrument.rng.RngSpec` at submission and replays
        the stream from the start on every retry.
    wants_context:
        If true, ``fn`` receives the broadcast ``context`` object (sent
        once per worker, not once per task) as a ``context`` keyword.
    wants_metrics:
        If true, ``fn`` receives a fresh
        :class:`~repro.instrument.counters.CounterSet` as a ``metrics``
        keyword; the engine merges it into the parent's set after the
        task completes, losslessly and in task order.  Each retry gets a
        fresh set, so a failed attempt contributes nothing.
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    rng: np.random.Generator | None = None
    wants_context: bool = False
    wants_metrics: bool = False


def fanout(
    fn: Callable[..., Any],
    rng: np.random.Generator | None = None,
    kwargs_list: Sequence[dict] = (),
    *,
    seed: int | None = None,
    **task_options: Any,
) -> list[TrialTask]:
    """Build one :class:`TrialTask` per kwargs dict, each with its own
    child generator spawned from the root generator in list order.

    Randomness follows the uniform convention: pass ``rng=`` (the root
    :class:`numpy.random.Generator` to spawn from) or ``seed=`` (an
    integer root seed), not both.

    This is the standard way experiments turn a trial loop into a task
    list: the spawn sequence is exactly the one the old inline loop
    produced (numpy spawn keys are consumed left to right), so tables
    stay byte-identical to the serial implementation.
    """
    root = resolve_rng(seed=seed, rng=rng, owner="fanout")
    children = spawn_rngs(root, len(kwargs_list))
    return [
        TrialTask(fn=fn, kwargs=dict(kwargs), rng=child, **task_options)
        for kwargs, child in zip(kwargs_list, children)
    ]


_WORKER_CONTEXT: Any = None


def _init_worker(context: Any) -> None:
    """Pool initializer: stash the broadcast context in the worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_task(
    task: TrialTask, context: Any, fault: Fault | None = None
) -> tuple[Any, CounterSet | None, RngFingerprint | None]:
    if fault is not None:
        fault.apply()  # crash/timeout raise; delay/hang sleep then run
    kwargs = dict(task.kwargs)
    if task.rng is not None:
        kwargs["rng"] = task.rng
    if task.wants_context:
        kwargs["context"] = context
    metrics: CounterSet | None = None
    if task.wants_metrics:
        metrics = CounterSet()
        kwargs["metrics"] = metrics
    value = task.fn(*task.args, **kwargs)
    fingerprint = (task.rng.fingerprint()
                   if isinstance(task.rng, SanitizedGenerator) else None)
    return value, metrics, fingerprint


def _pool_entry(
    payload: tuple[TrialTask, Fault | None],
) -> tuple[Any, CounterSet | None, RngFingerprint | None]:
    task, fault = payload
    return _run_task(task, _WORKER_CONTEXT, fault)


def _task_signature(task: TrialTask, spec: RngSpec | None) -> tuple:
    """Stable identity of one task for the checkpoint run key."""
    rng_identity: Any
    if spec is not None:
        rng_identity = spec
    elif task.rng is not None:
        rng_identity = "live-rng"  # no SeedSequence: position not capturable
    else:
        rng_identity = None
    return (
        getattr(task.fn, "__module__", "?"),
        getattr(task.fn, "__qualname__", repr(task.fn)),
        repr(task.args),
        repr(sorted(task.kwargs.items())),
        rng_identity,
        task.wants_context,
        task.wants_metrics,
    )


def _capture_spec(task: TrialTask) -> RngSpec | None:
    """The task generator's stream spec, or None when not capturable."""
    if task.rng is None:
        return None
    try:
        return rng_spec(task.rng)
    except ValueError:
        # A generator built from raw bit-generator state has no stable
        # identity; retries will reuse the live object (best effort).
        return None


def execute(
    tasks: Iterable[TrialTask],
    *,
    workers: WorkerSpec = 1,
    metrics: CounterSet | None = None,
    context: Any = None,
    fingerprints: list[RngFingerprint | None] | None = None,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    checkpoint: str | os.PathLike | None = None,
) -> list[Any]:
    """Run every task and return their results in task order.

    Parameters
    ----------
    tasks:
        The independent work items.
    workers:
        Process count or ``"auto"``.  ``workers=1`` runs everything
        in-process with no executor, pickling, or subprocess involved —
        the exact historical serial path.
    metrics:
        Parent :class:`~repro.instrument.counters.CounterSet`; each
        task flagged ``wants_metrics`` contributes its worker-side
        counts via :meth:`CounterSet.merge`, in task order, only after
        the whole bag has succeeded (a failed bag leaves the parent set
        untouched).
    context:
        Optional object broadcast once per worker (via the pool
        initializer) to every task flagged ``wants_context`` — use for
        a graph shared by all trials instead of shipping it per task.
    fingerprints:
        Optional out-list.  Under ``REPRO_RNG_SANITIZE=1`` the engine
        wraps every task generator in a
        :class:`~repro.instrument.rng.SanitizedGenerator` and appends
        one :class:`~repro.instrument.rng.RngFingerprint` (or ``None``
        for rng-less tasks) per task, in task order — the sequence is
        identical for every worker count, which is what the equivalence
        tests assert.
    retry:
        Failure policy; defaults to :meth:`RetryPolicy.from_env` (which
        is the stock policy unless ``REPRO_RETRIES`` etc. are set).
        Retried attempts re-derive the task generator from the
        :class:`~repro.instrument.rng.RngSpec` captured at submission,
        so results are byte-identical to a failure-free run as long as
        task generators arrive unconsumed (which :func:`fanout`
        guarantees).
    faults:
        Deterministic fault-injection plan
        (:class:`~repro.engine.faults.FaultPlan`); defaults to the
        ambient ``REPRO_FAULTS`` spec, if any.  Pass an empty
        ``FaultPlan()`` to shield a call from ambient chaos.
    checkpoint:
        Optional journal path (:mod:`repro.engine.checkpoint`).
        Completed tasks are appended as they finish; a rerun over the
        same bag skips them and merges their stored counters and
        fingerprints as if they had just run.

    Under ``REPRO_RNG_SANITIZE=1`` the collected fingerprints are also
    checked for stream races (two tasks drawing from one spawn-key
    stream) via :func:`repro.contracts.check_stream_fingerprints`, and
    each task's successful attempt is checked to have drawn from the
    stream assigned at submission
    (:func:`repro.contracts.check_replay_fingerprints` — the guarantee
    that retries replayed the right stream), raising
    :class:`~repro.contracts.ContractViolation` on a hit.

    Returns
    -------
    list:
        ``fn`` return values, one per task, in submission order.
    """
    task_list = list(tasks)
    sanitize = rng_sanitize_enabled()
    if sanitize:
        task_list = [
            replace(task, rng=sanitize_rng(task.rng))
            if task.rng is not None else task
            for task in task_list
        ]
    count = resolve_workers(workers)
    if retry is None:
        retry = RetryPolicy.from_env()
    if faults is None:
        faults = FaultPlan.from_env()
    n = len(task_list)
    specs = [_capture_spec(task) for task in task_list]

    outcomes: list[tuple | None] = [None] * n
    done = [False] * n
    attempts = [0] * n

    ckpt: Checkpoint | None = None
    if checkpoint is not None:
        run_key = run_key_for(
            [_task_signature(t, s) for t, s in zip(task_list, specs)]
        )
        ckpt = Checkpoint.open(checkpoint, run_key=run_key, total=n)
        for index, payload in ckpt.completed.items():
            outcomes[index] = payload
            done[index] = True

    def task_for_attempt(index: int) -> TrialTask:
        task = task_list[index]
        if attempts[index] > 0 and specs[index] is not None:
            # Replay the task's stream from the start: rng_from_spec
            # honors the sanitizer setting, so fingerprints stay faithful.
            task = replace(task, rng=rng_from_spec(specs[index]))
        return task

    def fault_for(index: int) -> Fault | None:
        if faults is None:
            return None
        return faults.decide(index, attempts[index])

    def record(index: int, outcome: tuple) -> None:
        outcomes[index] = outcome
        done[index] = True
        if ckpt is not None:
            value, task_metrics, fingerprint = outcome
            snapshot = (task_metrics.snapshot()
                        if isinstance(task_metrics, CounterSet)
                        else task_metrics)
            ckpt.record(index, (value, snapshot, fingerprint))

    def note_failure(index: int, exc: BaseException) -> None:
        """Charge one failed attempt; re-raise when the budget is spent."""
        attempts[index] += 1
        if attempts[index] > retry.max_retries:
            raise exc

    def run_serial(index: int) -> None:
        while True:
            fault = fault_for(index)
            if fault is not None:
                fault = fault.degraded_for_serial()
            try:
                outcome = _run_task(task_for_attempt(index), context, fault)
            except Exception as exc:
                note_failure(index, exc)
                delay = retry.backoff_for(attempts[index] - 1)
                if delay:
                    time.sleep(delay)
                continue
            record(index, outcome)
            return

    def run_pool() -> None:
        respawns = 0
        pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=min(count, n),
            initializer=_init_worker,
            initargs=(context,),
        )
        try:
            while True:
                unfinished = [i for i in range(n) if not done[i]]
                if not unfinished:
                    return
                futures: dict[int, concurrent.futures.Future] = {}
                teardown = False
                charged: set[int] = set()
                try:
                    for i in unfinished:
                        futures[i] = pool.submit(
                            _pool_entry, (task_for_attempt(i), fault_for(i))
                        )
                except BrokenExecutor:
                    teardown = True
                if not teardown:
                    for i in sorted(futures):
                        future = futures[i]
                        try:
                            outcome = future.result(timeout=retry.timeout)
                        except concurrent.futures.TimeoutError:
                            # The worker is stuck; it cannot be reclaimed
                            # individually — tear the pool down.
                            note_failure(i, TaskTimeoutError(
                                f"task {i} exceeded the per-task timeout "
                                f"of {retry.timeout}s "
                                f"({retry.max_retries + 1} attempts)"
                            ))
                            charged.add(i)
                            teardown = True
                            break
                        except BrokenExecutor:
                            teardown = True
                            break
                        except Exception as exc:
                            note_failure(i, exc)
                            charged.add(i)
                            delay = retry.backoff_for(attempts[i] - 1)
                            if delay:
                                time.sleep(delay)
                        else:
                            record(i, outcome)
                if not teardown:
                    continue  # healthy pool; resubmit any retried tasks
                # Harvest results that finished before the teardown so
                # completed work is never re-executed.
                for j, future in futures.items():
                    if done[j] or not future.done():
                        continue
                    try:
                        outcome = future.result(timeout=0)
                    except Exception:
                        continue
                    record(j, outcome)
                # Every submitted-but-unfinished task pays one attempt
                # (clearing single-shot injected faults); termination is
                # guaranteed by the respawn cap, so no exhaustion raise.
                for j in futures:
                    if not done[j] and j not in charged:
                        attempts[j] += 1
                respawns += 1
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                if respawns > retry.max_pool_respawns:
                    # Graceful degradation: finish the bag in-process.
                    for i in range(n):
                        if not done[i]:
                            run_serial(i)
                    return
                pool = ProcessPoolExecutor(
                    max_workers=min(count, len(
                        [i for i in range(n) if not done[i]]
                    )),
                    initializer=_init_worker,
                    initargs=(context,),
                )
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    try:
        if count == 1 or n <= 1:
            for i in range(n):
                if not done[i]:
                    run_serial(i)
        else:
            run_pool()
    finally:
        if ckpt is not None:
            ckpt.close()

    results: list[Any] = []
    collected: list[RngFingerprint | None] = []
    for outcome in outcomes:
        assert outcome is not None  # every index recorded above
        value, task_metrics, fingerprint = outcome
        if metrics is not None and task_metrics is not None:
            metrics.merge(task_metrics)
        results.append(value)
        collected.append(fingerprint)
    if sanitize:
        # Imported lazily: contracts pulls in the graph/matching stack,
        # which the engine does not otherwise depend on.
        from repro.contracts import (
            check_replay_fingerprints,
            check_stream_fingerprints,
        )

        check_stream_fingerprints(collected)
        check_replay_fingerprints(
            collected,
            [spec_stream_id(spec) if spec is not None else None
             for spec in specs],
        )
    if fingerprints is not None:
        fingerprints.extend(collected)
    return results
