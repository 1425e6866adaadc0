"""Per-session service metrics: latency percentiles, counters, queues.

Latency is *measured* wall-clock time (via
:func:`repro.instrument.timers.now`, the R2-sanctioned clock) and is
strictly observational: no control-flow that affects matching output
ever reads it, so replay determinism is untouched.  The *budget* the
percentiles are judged against comes in two forms:

* a **work budget** in rebuild chunks, derived from the Theorem 3.5
  bound (see :func:`repro.service.session.theorem_work_budget`) and
  enforced deterministically by the matcher; and
* a **latency budget** in milliseconds (the SLO counterpart), against
  which every recorded sample is compared — samples over budget bump
  the ``over_budget`` count, and admission control rejects work when
  queues exceed their bound (``rejected_over_budget``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.instrument.counters import CounterSet

#: Default per-update latency budget (milliseconds) when a session does
#: not configure one.  Generous for the pure-python update path;
#: ``tests/service/test_loadgen.py`` asserts p99 stays under it.
DEFAULT_BUDGET_MS = 50.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 100]).

    Deterministic and simple (no interpolation): the value at rank
    ``ceil(q/100 * n)`` of the sorted samples.  Returns 0.0 for an
    empty list.
    """
    if not samples:
        return 0.0
    return percentile_sorted(sorted(samples), q)


def percentile_sorted(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list.

    The sort-free core of :func:`percentile`, so callers taking several
    percentiles of one window (:meth:`LatencyRecorder.snapshot`) sort
    once instead of once per quantile.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil without math
    return ordered[min(rank, len(ordered)) - 1]


#: Source of :attr:`LatencyRecorder.uid`: unique within the process.
_RECORDER_UIDS = count(1)


@dataclass
class LatencyRecorder:
    """Collects per-update latency samples against a budget.

    Every read (:meth:`sorted_ms`, :meth:`snapshot`, the server's
    ``shard_stats``) reports samples to 1e-4 ms, so each sample is
    rounded once, when it is recorded, rather than on every read.
    Rounding is monotone and a nearest-rank percentile picks a sample,
    so ``round(p(raw), 4) == p(rounded)``: the reported numbers are the
    ones the raw samples would give.  The budget check compares the
    *raw* sample, so rounding never hides a budget miss.

    Attributes
    ----------
    budget_ms:
        The configured per-update latency budget in milliseconds.
    samples_ms:
        All recorded samples (milliseconds, rounded to 1e-4 ms), in
        record order and append-only: a reader that has seen the first
        ``k`` samples catches up with ``samples_ms[k:]`` (the cursor
        form of ``shard_stats``).  Bounded workloads only; the service
        records one sample per applied update.
    over_budget:
        How many samples exceeded ``budget_ms``.
    uid:
        Unique within the process, so a cursor held for one recorder is
        never applied to another (a session closed and re-created under
        the same name gets a new recorder, and its cursor starts over).
    """

    budget_ms: float = DEFAULT_BUDGET_MS
    samples_ms: list[float] = field(default_factory=list)
    over_budget: int = 0
    uid: int = field(default_factory=lambda: next(_RECORDER_UIDS),
                     init=False, compare=False)
    _ordered: list[float] = field(default_factory=list, init=False,
                                  repr=False, compare=False)

    def record(self, seconds: float) -> None:
        """Record one latency sample given in seconds."""
        ms = seconds * 1000.0
        self.samples_ms.append(round(ms, 4))
        if ms > self.budget_ms:
            self.over_budget += 1

    def sorted_ms(self) -> list[float]:
        """The samples in ascending order (a live view; do not mutate).

        The view is kept next to ``samples_ms`` and extended on read:
        the prefix sorted by the previous read is one run to timsort,
        so a read costs O(n) plus sorting the samples recorded since.
        """
        ordered = self._ordered
        if len(ordered) < len(self.samples_ms):
            ordered += self.samples_ms[len(ordered):]
            ordered.sort()
        return ordered

    def snapshot(self) -> dict:
        """Percentile summary: count, p50/p95/p99/max ms, budget, misses."""
        ordered = self.sorted_ms()
        if not ordered:
            p50 = p95 = p99 = peak = 0.0
        else:
            p50 = percentile_sorted(ordered, 50.0)
            p95 = percentile_sorted(ordered, 95.0)
            p99 = percentile_sorted(ordered, 99.0)
            peak = ordered[-1]
        return {
            "count": len(ordered),
            "p50_ms": p50,
            "p95_ms": p95,
            "p99_ms": p99,
            "max_ms": peak,
            "budget_ms": self.budget_ms,
            "over_budget": self.over_budget,
        }


@dataclass
class ServiceMetrics:
    """One session's operational metrics bundle.

    Counters (``updates``, ``inserts``, ``deletes``, ``batches``,
    ``queries``, ``rejected_over_budget``) live in a
    :class:`~repro.instrument.counters.CounterSet`; latency in a
    :class:`LatencyRecorder`; queue depth as a gauge with a
    high-water mark.
    """

    counters: CounterSet = field(default_factory=CounterSet)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    queue_depth: int = 0
    max_queue_depth: int = 0

    def set_queue_depth(self, depth: int) -> None:
        """Update the queue-depth gauge (tracks the high-water mark)."""
        self.queue_depth = depth
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def snapshot(self) -> dict:
        """A JSON-ready copy of every metric in the bundle."""
        return {
            "counters": self.counters.snapshot(),
            "latency": self.latency.snapshot(),
            "queue": {
                "depth": self.queue_depth,
                "max_depth": self.max_queue_depth,
            },
        }
