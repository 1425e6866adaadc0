"""Cross-shard metrics aggregation: counter sums and exact percentiles.

Counters are monotone event totals, so summing them across shards is
lossless (the same argument as the engine's cross-process counter
merge).  Latency percentiles are **not** summable — averaging per-shard
p99s under-reports any skewed tail — so shards export their raw sample
lists *sorted ascending* (``shard_stats``) and this module merges the
sorted lists (:func:`merge_sorted_samples`) before taking nearest-rank
percentiles over the union, which is exactly the number a single server
holding every sample would report.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence

from repro.service.metrics import percentile_sorted


def merge_counters(per_shard: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum per-shard counter snapshots into one cluster-wide snapshot.

    Missing keys count as zero, so shards that never touched a counter
    (an empty shard, a shard with no rejected updates) merge cleanly.
    """
    totals: dict[str, int] = {}
    for counters in per_shard:
        for name in sorted(counters):
            totals[name] = totals.get(name, 0) + int(counters[name])
    return totals


def merge_sorted_samples(
    per_shard: Sequence[Sequence[float]],
) -> list[float]:
    """Union per-shard *sorted* sample lists into one sorted list.

    The statement of intent: the cluster percentile is taken over the
    union of samples, never over per-shard percentiles.  The merge is
    one concatenation and one sort: timsort finds each shard's sorted
    run and merges the k runs in C, which on CPython is several times
    faster than a Python-level ``heapq.merge``.
    """
    return sorted(chain.from_iterable(per_shard))


def merge_latency(
    per_shard: Sequence[Mapping[str, object]],
) -> dict:
    """Merge per-shard ``shard_stats`` latency payloads exactly.

    Each element carries ``samples_sorted_ms`` (sorted ascending),
    ``over_budget``, and ``budget_ms``.  The merged summary reports
    nearest-rank p50/p95/p99/max over the sample union, the summed
    ``over_budget`` count, and the *tightest* (minimum) budget — the
    conservative SLO when shards were configured differently.  With no
    samples anywhere (an idle or empty cluster) the percentiles are 0.
    A lone shard's run already is the union, so its percentiles are read
    from it directly (a plain server's ``cluster_stats``).
    """
    runs = [shard.get("samples_sorted_ms", ()) for shard in per_shard]
    merged = runs[0] if len(runs) == 1 else merge_sorted_samples(runs)
    budgets = [float(shard["budget_ms"])
               for shard in per_shard if "budget_ms" in shard]
    if merged:
        p50 = percentile_sorted(merged, 50.0)
        p95 = percentile_sorted(merged, 95.0)
        p99 = percentile_sorted(merged, 99.0)
        peak = merged[-1]
    else:
        p50 = p95 = p99 = peak = 0.0
    return {
        "count": len(merged),
        "p50_ms": round(p50, 4),
        "p95_ms": round(p95, 4),
        "p99_ms": round(p99, 4),
        "max_ms": round(peak, 4),
        "budget_ms": min(budgets) if budgets else 0.0,
        "over_budget": sum(int(shard.get("over_budget", 0))
                           for shard in per_shard),
    }


class SampleMirror:
    """One shard's latency samples as last received, per session.

    ``sessions`` maps a recorder uid (the wire string) to the samples
    received from it, sorted ascending; their merged union is kept and
    rebuilt only when a tail brings samples or the session set changes,
    so a poll with nothing new merges nothing.  :meth:`request` asks the
    shard for what is new; :meth:`fold` takes the cursor-form reply in
    and returns the full-form ``shard_stats`` payload the shard would
    have sent, samples included.  Polls must fold one at a time, in the
    order they were sent: each ``since`` names the counts held when it
    was built.
    """

    def __init__(self) -> None:
        """Start cold: the first poll fetches every sample."""
        self.sessions: dict[str, list[float]] = {}
        self._union: list[float] = []

    def request(self) -> dict:
        """The cursor-form ``shard_stats`` request for this shard."""
        return {"op": "shard_stats",
                "since": {uid: len(samples)
                          for uid, samples in self.sessions.items()}}

    def fold(self, reply: dict) -> dict:
        """Fold a cursor-form reply in; return the full-form payload.

        A session missing from the reply was closed, so its samples are
        dropped; a ``start`` of 0 restarts a session's samples.  A reply
        without ``latency.tails`` (not a cursor-form answer) empties the
        mirror and passes through unchanged.  A tail that skips samples
        is refused with ``ValueError`` and leaves the mirror cold.
        """
        latency = reply.get("latency")
        held, union = self.sessions, self._union
        # Cold until the reply has folded in whole, so a refused tail
        # leaves nothing stale.
        self.sessions, self._union = {}, []
        if not isinstance(latency, dict) or "tails" not in latency:
            return reply
        sessions: dict[str, list[float]] = {}
        changed = False
        for uid, (start, tail) in latency["tails"].items():
            samples = held.get(uid, []) if start else []
            if start != len(samples):
                raise ValueError(
                    f"shard_stats tail of {uid} starts at {start}, "
                    f"but {len(samples)} samples are held"
                )
            if tail or (not start and held.get(uid)):
                changed = True
                samples += tail
                samples.sort()
            sessions[uid] = samples
        if changed or sessions.keys() != held.keys():
            union = merge_sorted_samples(list(sessions.values()))
        self.sessions, self._union = sessions, union
        full = {key: value for key, value in latency.items()
                if key != "tails"}
        full["samples_sorted_ms"] = union
        return {**reply, "latency": full}


def aggregate_cluster_stats(per_shard: Sequence[Mapping]) -> dict:
    """Fold per-shard ``shard_stats`` payloads into the cluster view.

    ``per_shard[k]`` is shard ``k``'s ``shard_stats`` response payload.
    The result is what the ``cluster_stats`` op returns: shard count,
    total/ per-shard session placement, summed counters, union-merged
    latency percentiles, and summed queue gauges.  Works for zero
    shards (an unstarted cluster) and for shards with no sessions.
    """
    session_lists = [list(shard.get("sessions", ())) for shard in per_shard]
    return {
        "shards": len(per_shard),
        "sessions": sorted(name for names in session_lists for name in names),
        "per_shard_sessions": [len(names) for names in session_lists],
        "counters": merge_counters(
            [shard.get("counters", {}) for shard in per_shard]
        ),
        "latency": merge_latency(
            [shard.get("latency", {}) for shard in per_shard]
        ),
        "queue": {
            "depth": sum(int(shard.get("queue", {}).get("depth", 0))
                         for shard in per_shard),
            "max_depth": max(
                [int(shard.get("queue", {}).get("max_depth", 0))
                 for shard in per_shard],
                default=0,
            ),
        },
    }
