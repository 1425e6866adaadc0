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

from repro.cluster.hashing import place, placement_map, rendezvous_score
from repro.cluster.link import ShardError, ShardLink
from repro.cluster.metrics import (
    aggregate_cluster_stats,
    merge_counters,
    merge_latency,
    merge_sorted_samples,
)
from repro.cluster.replay import (
    ClusterReplayError,
    discover_shards,
    replay_shard,
    shard_sessions,
    verify_cluster,
    verify_shard,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.runner import BackgroundCluster, run_cluster
from repro.cluster.supervisor import (
    ClusterError,
    ClusterSupervisor,
    shard_journal_dir,
)

__all__ = [
    "BackgroundCluster",
    "ClusterError",
    "ClusterReplayError",
    "ClusterRouter",
    "ClusterSupervisor",
    "ShardError",
    "ShardLink",
    "aggregate_cluster_stats",
    "discover_shards",
    "merge_counters",
    "merge_latency",
    "merge_sorted_samples",
    "place",
    "placement_map",
    "rendezvous_score",
    "replay_shard",
    "run_cluster",
    "shard_journal_dir",
    "shard_sessions",
    "verify_cluster",
    "verify_shard",
]
