"""repro.cluster — the sharded multi-process matching service.

Scales :mod:`repro.service` past one process: a front-end
:class:`~repro.cluster.router.ClusterRouter` speaks the unchanged
``repro-service-v1`` protocol and fans sessions out over ``N`` shard
workers, each a full single-process
:class:`~repro.service.server.MatchingService` in its own OS process
with its own journal directory (``journals/shard-K/``).  The paper's
structure is what makes this shard cleanly: every update touches only
one session's graph and matcher, so per-session placement gives
shared-nothing parallelism without giving up the per-session total
update order that deterministic replay requires.

The moving parts:

* :mod:`~repro.cluster.hashing` — rendezvous (HRW) placement: a pure
  function of ``(session, num_shards)``, stable under resizing;
* :mod:`~repro.cluster.link` — one bounded-window FIFO connection per
  shard (backpressure propagates client ← router ← shard);
* :mod:`~repro.cluster.router` — byte-for-byte request routing plus
  fan-out cluster ops (``sessions``, ``shard_stats``,
  ``cluster_stats``);
* :mod:`~repro.cluster.metrics` — exact cross-shard aggregation:
  counters sum, latency percentiles are nearest-rank over the *union*
  of per-shard sorted samples (never averaged percentiles);
* :mod:`~repro.cluster.supervisor` — worker process lifecycle
  (spawn, announce-parse, health-check, SIGTERM graceful stop);
* :mod:`~repro.cluster.runner` — ``serve --shards N`` foreground entry
  and the :class:`~repro.cluster.runner.BackgroundCluster` harness;
* :mod:`~repro.cluster.replay` — shard-aware offline verification:
  byte-identical replay per shard plus placement-consistency checks.

See ``docs/SERVICE.md`` (sharding section) for the operational story.
"""

from repro._lazy import attach

#: Public names and their defining modules, each imported on first
#: access (:mod:`repro._lazy`).
_EXPORTS = {
    "BackgroundCluster": "repro.cluster.runner",
    "ClusterError": "repro.cluster.supervisor",
    "ClusterReplayError": "repro.cluster.replay",
    "ClusterRouter": "repro.cluster.router",
    "ClusterSupervisor": "repro.cluster.supervisor",
    "ShardError": "repro.cluster.link",
    "ShardLink": "repro.cluster.link",
    "aggregate_cluster_stats": "repro.cluster.metrics",
    "discover_shards": "repro.cluster.replay",
    "merge_counters": "repro.cluster.metrics",
    "merge_latency": "repro.cluster.metrics",
    "merge_sorted_samples": "repro.cluster.metrics",
    "place": "repro.cluster.hashing",
    "placement_map": "repro.cluster.hashing",
    "rendezvous_score": "repro.cluster.hashing",
    "replay_shard": "repro.cluster.replay",
    "run_cluster": "repro.cluster.runner",
    "shard_journal_dir": "repro.cluster.supervisor",
    "shard_sessions": "repro.cluster.replay",
    "verify_cluster": "repro.cluster.replay",
    "verify_shard": "repro.cluster.replay",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
