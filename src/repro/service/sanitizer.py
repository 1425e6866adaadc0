"""Deterministic interleaving sanitizer for the asyncio service.

The static rules R10-R14 (:mod:`repro.lint.async_flow`) prove the
*absence of a pattern*; this module is the runtime half that makes an
actual interleaving **reproducible**.  Under ``REPRO_ASYNC_SANITIZE=1``
the server event loop is replaced by :class:`DeterministicEventLoop`,
which intercepts every task-step callback (the resumption of a
coroutine after an ``await``) and releases them one at a time through a
:class:`DeterministicScheduler`:

* **record** (default): steps run in FIFO order — the loop's normal
  order — but every choice is journalled into an
  :class:`InterleavingTrace` with a monotone ``seq`` number and a
  stable task label;
* **perturb** (``seed=`` / ``REPRO_ASYNC_SEED``): the runnable set is
  sampled with a seeded ``numpy`` generator, deterministically
  exploring interleavings the FIFO order never exhibits — how the test
  suite re-discovers the close/update race from the racy fixture;
* **replay** (``schedule=``): a recorded trace is re-applied choice by
  choice, with the task label of every step validated so silent
  divergence raises :class:`ScheduleDivergence` instead of exploring a
  different interleaving.

Every mode records; byte-identity of two traces is asserted by
:func:`repro.contracts.check_interleaving_replay`.  Only *task* steps
are scheduled — selector I/O, timers, and ``call_soon_threadsafe``
(which does not route through :meth:`DeterministicEventLoop.call_soon`)
keep their native behavior, so the scheduler serializes coroutine
interleaving without forging the transport.

Env knobs, mirroring ``REPRO_RNG_SANITIZE``:

``REPRO_ASYNC_SANITIZE=1``
    Run ``repro-experiments serve`` / :class:`BackgroundServer` under
    the deterministic loop.
``REPRO_ASYNC_SEED=<int>``
    Perturb with this seed (absent: plain FIFO recording).
``REPRO_ASYNC_TRACE=<path>``
    Dump the recorded trace JSON there on loop exit.
"""

from __future__ import annotations

import asyncio
import json
import os
import weakref
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable that switches the deterministic loop on.
ASYNC_SANITIZE_ENV = "REPRO_ASYNC_SANITIZE"

#: Environment variable holding the perturbation seed (optional).
ASYNC_SEED_ENV = "REPRO_ASYNC_SEED"

#: Environment variable naming the trace dump path (optional).
ASYNC_TRACE_ENV = "REPRO_ASYNC_TRACE"

#: Trace file format marker; bump on incompatible schema changes.
TRACE_FORMAT = "repro-async-trace-v1"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def async_sanitize_enabled() -> bool:
    """Whether ``REPRO_ASYNC_SANITIZE`` requests the deterministic loop.

    Read from the environment on every call (not cached) so tests can
    flip it with ``monkeypatch.setenv``.
    """
    return os.environ.get(ASYNC_SANITIZE_ENV, "").strip().lower() in _TRUTHY


def seed_from_env() -> int | None:
    """The ``REPRO_ASYNC_SEED`` perturbation seed, or ``None`` (= FIFO)."""
    raw = os.environ.get(ASYNC_SEED_ENV, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{ASYNC_SEED_ENV} must be an integer, got {raw!r}"
        ) from exc


class ScheduleDivergence(RuntimeError):
    """A replayed schedule no longer matches the live runnable set.

    Raised instead of silently continuing with a *different*
    interleaving, which would defeat the point of replaying.
    """


@dataclass(frozen=True)
class TraceEntry:
    """One scheduling decision: step ``seq`` ran task ``label``.

    ``choice`` is the index picked out of the runnable set at that
    moment; ``label`` is the stable task identity (first-appearance
    ordinal plus the coroutine qualname), which is what replay
    validates.
    """

    seq: int
    choice: int
    label: str

    def to_dict(self) -> dict:
        """This entry as a plain JSON-serializable mapping."""
        return {"seq": self.seq, "choice": self.choice, "label": self.label}


@dataclass
class InterleavingTrace:
    """A recorded interleaving: the seed plus every scheduling decision.

    Serializes to canonical JSON (sorted keys, fixed separators) so two
    identical schedules produce byte-identical files — the property
    :func:`repro.contracts.check_interleaving_replay` asserts.
    """

    seed: int | None = None
    entries: list[TraceEntry] = field(default_factory=list)

    def append(self, choice: int, label: str) -> None:
        """Record the next decision; ``seq`` is assigned monotonically."""
        self.entries.append(TraceEntry(len(self.entries), choice, label))

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical schedules."""
        payload = {
            "format": TRACE_FORMAT,
            "seed": self.seed,
            "entries": [entry.to_dict() for entry in self.entries],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "InterleavingTrace":
        """Parse a trace, rejecting anything but :data:`TRACE_FORMAT`."""
        payload = json.loads(text)
        if payload.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a {TRACE_FORMAT} trace: format="
                f"{payload.get('format')!r}"
            )
        trace = cls(seed=payload.get("seed"))
        for raw in payload.get("entries", []):
            trace.entries.append(
                TraceEntry(int(raw["seq"]), int(raw["choice"]),
                           str(raw["label"]))
            )
        return trace

    def save(self, path: str | Path) -> None:
        """Write the canonical JSON (plus trailing newline) to ``path``."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "InterleavingTrace":
        """Read a trace previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


class DeterministicScheduler:
    """Chooses which runnable task steps next; journals every choice.

    Exactly one of the three modes is active:

    * ``seed is None and schedule is None`` — FIFO record;
    * ``seed`` given — seeded perturbation (``numpy`` Generator, so the
      choice sequence is reproducible across platforms);
    * ``schedule`` given — replay that trace, validating labels.
    """

    def __init__(self, seed: int | None = None,
                 schedule: InterleavingTrace | None = None) -> None:
        if seed is not None and schedule is not None:
            raise ValueError("pass either seed= (perturb) or schedule= "
                             "(replay), not both")
        self.trace = InterleavingTrace(
            seed=schedule.seed if schedule is not None else seed
        )
        self._rng = None
        if seed is not None:
            import numpy as np

            self._rng = np.random.default_rng(seed)
        self._schedule = schedule
        self._cursor = 0
        # Stable task identities: first-appearance ordinal, weakly keyed
        # so a long-running server does not pin finished tasks alive.
        self._ordinals: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._next_ordinal = 0

    def label_for(self, task: asyncio.Task) -> str:
        """Stable identity for ``task``: first-appearance ordinal + coro name."""
        ordinal = self._ordinals.get(task)
        if ordinal is None:
            ordinal = self._next_ordinal
            self._next_ordinal += 1
            self._ordinals[task] = ordinal
        try:
            name = task.get_coro().__qualname__
        except AttributeError:  # pragma: no cover - exotic awaitables
            name = type(task).__name__
        return f"t{ordinal}:{name}"

    def choose(self, labels: list[str]) -> int:
        """Pick an index into the runnable set and journal the step."""
        if self._schedule is not None and self._cursor < len(
            self._schedule.entries
        ):
            entry = self._schedule.entries[self._cursor]
            self._cursor += 1
            if entry.choice >= len(labels):
                raise ScheduleDivergence(
                    f"step {entry.seq}: trace chose index {entry.choice} "
                    f"but only {len(labels)} steps are runnable"
                )
            if labels[entry.choice] != entry.label:
                raise ScheduleDivergence(
                    f"step {entry.seq}: trace expected task "
                    f"{entry.label!r} at index {entry.choice}, found "
                    f"{labels[entry.choice]!r}; the program under replay "
                    "diverged from the recorded one"
                )
            choice = entry.choice
        elif self._rng is not None:
            choice = int(self._rng.integers(len(labels)))
        else:
            choice = 0
        self.trace.append(choice, labels[choice])
        return choice

    def abandon_schedule(self) -> None:
        """Stop replaying (after a divergence); fall back to FIFO so
        loop teardown can still drain pending steps."""
        self._schedule = None


class DeterministicEventLoop(asyncio.SelectorEventLoop):
    """A selector loop that funnels task steps through one scheduler.

    :meth:`call_soon` intercepts callbacks whose ``__self__`` is an
    :class:`asyncio.Task` — coroutine step and wakeup callbacks, i.e.
    every resumption after an ``await`` — parks them in a pending set,
    and schedules a single pump.  Each pump releases exactly one step
    (the scheduler's choice) and re-arms itself while steps remain, so
    between any two coroutine steps the loop still services I/O and
    timers natively.  Non-task callbacks (transport events, futures'
    plain done-callbacks, ``call_later`` handles) are passed through
    untouched.
    """

    def __init__(self, scheduler: DeterministicScheduler) -> None:
        super().__init__()
        self.scheduler = scheduler
        self.failure: ScheduleDivergence | None = None
        self._pending_steps: list[asyncio.Handle] = []
        self._pump_armed = False

    def call_soon(self, callback, *args, context=None):
        if isinstance(getattr(callback, "__self__", None), asyncio.Task):
            handle = asyncio.Handle(callback, args, self, context)
            self._pending_steps.append(handle)
            self._arm_pump()
            return handle
        return super().call_soon(callback, *args, context=context)

    def _arm_pump(self) -> None:
        if not self._pump_armed:
            self._pump_armed = True
            super().call_soon(self._pump)

    def _pump(self) -> None:
        self._pump_armed = False
        steps = [h for h in self._pending_steps if not h.cancelled()]
        self._pending_steps.clear()
        if not steps:
            return
        labels = [
            self.scheduler.label_for(h._callback.__self__) for h in steps
        ]
        try:
            choice = self.scheduler.choose(labels)
        except ScheduleDivergence as exc:
            # Raising out of a loop callback would only reach asyncio's
            # exception handler (a log line) while the stranded steps
            # hang the program.  Instead: remember the failure for
            # :func:`_run_to_completion` to re-raise, drop the dead
            # schedule so teardown can drain FIFO, and stop the loop.
            self.failure = exc
            self.scheduler.abandon_schedule()
            self._pending_steps.extend(steps)
            self._arm_pump()
            self.stop()
            return
        chosen = steps.pop(choice)
        # Put the rest back *before* running: the chosen step may
        # enqueue new steps, and those must compete with the survivors.
        self._pending_steps.extend(steps)
        if self._pending_steps:
            self._arm_pump()
        chosen._run()


def _run_to_completion(loop: DeterministicEventLoop, main) -> object:
    """``asyncio.run`` semantics on an already-constructed loop.

    Runs ``main``, then — like :class:`asyncio.Runner` — cancels every
    task still pending (live connection handlers at server shutdown),
    awaits them, and shuts down async generators, so the deterministic
    path leaks no "Task was destroyed but it is pending" noise that the
    plain path would not.
    """
    try:
        asyncio.set_event_loop(loop)
        try:
            result = loop.run_until_complete(main)
        except RuntimeError:
            # "Event loop stopped before Future completed" is how a
            # schedule divergence surfaces (the pump stops the loop);
            # translate it back into the real failure.
            if loop.failure is not None:
                raise loop.failure from None
            raise
        if loop.failure is not None:
            # Divergence in the same callback batch that completed main.
            raise loop.failure
        return result
    finally:
        try:
            leftovers = asyncio.all_tasks(loop)
            if leftovers:
                for task in leftovers:
                    task.cancel()
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()


def run_deterministic(
    main,
    *,
    seed: int | None = None,
    schedule: InterleavingTrace | None = None,
):
    """Run coroutine ``main`` to completion under the deterministic loop.

    Returns ``(result, trace)`` — the coroutine's return value and the
    recorded :class:`InterleavingTrace`.  The loop is created fresh and
    closed on exit (the :func:`asyncio.run` contract), so traces never
    bleed between runs.
    """
    scheduler = DeterministicScheduler(seed=seed, schedule=schedule)
    loop = DeterministicEventLoop(scheduler)
    result = _run_to_completion(loop, main)
    return result, scheduler.trace


def run_sanitized(main) -> object:
    """The server entry-point hook: env-configured deterministic run.

    Reads ``REPRO_ASYNC_SEED`` for the perturbation mode and dumps the
    trace to ``REPRO_ASYNC_TRACE`` (if set) even when ``main`` raises —
    a trace of the failing interleaving is exactly what you want to
    replay.  Callers gate on :func:`async_sanitize_enabled`.
    """
    scheduler = DeterministicScheduler(seed=seed_from_env())
    loop = DeterministicEventLoop(scheduler)
    try:
        return _run_to_completion(loop, main)
    finally:
        trace_path = os.environ.get(ASYNC_TRACE_ENV, "").strip()
        if trace_path:
            scheduler.trace.save(trace_path)
