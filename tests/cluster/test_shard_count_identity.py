"""Shard-count identity: the same sessions serve the same state at any
shard count.

Sharding decides only *where* a session lives, never what its update
stream or seed is, so a session's final fingerprint must not depend on
how many shards the cluster runs.  These spawn real shard worker
processes (no ``fast`` marker).
"""

import numpy as np

from repro.cluster.hashing import placement_map
from repro.cluster.runner import BackgroundCluster
from repro.service.client import ServiceClient

NUM_VERTICES = 64
NAMES = [f"ident-{i}" for i in range(6)]


def _stream():
    """A 64-clique, whose degree 63 outgrows the matcher's Δ = 48 so
    every rebuild samples, then seeded random toggles."""
    updates = [("insert", u, v) for u in range(NUM_VERTICES)
               for v in range(u + 1, NUM_VERTICES)]
    live = {(u, v) for _op, u, v in updates}
    rng = np.random.default_rng(0)
    for _ in range(100):
        u, v = sorted(rng.choice(NUM_VERTICES, size=2, replace=False))
        edge = (int(u), int(v))
        updates.append(("delete" if edge in live else "insert", *edge))
        live ^= {edge}
    return updates


def _serve(shards, journal_dir):
    """Fingerprint and stats of every session after its stream."""
    served = {}
    with BackgroundCluster(shards=shards, journal_dir=journal_dir) as cl:
        with ServiceClient(cl.host, cl.port) as client:
            for index, name in enumerate(NAMES):
                client.create(name, num_vertices=NUM_VERTICES, beta=1,
                              epsilon=0.8, seed=index)
                updates = _stream()
                for start in range(0, len(updates), 64):
                    client.batch(name, updates[start:start + 64])
                served[name] = (client.snapshot(name)["fingerprint"],
                                client.stats(name))
    assert cl.worker_exit_codes == [0] * shards
    return served


def test_fingerprints_do_not_depend_on_the_shard_count(tmp_path):
    assert sum(1 for names in placement_map(NAMES, 3).values() if names) > 1
    one = _serve(1, tmp_path / "one")
    three = _serve(3, tmp_path / "three")
    for name, (_fingerprint, stats) in one.items():
        assert stats["matcher_delta"] < NUM_VERTICES - 1, name
        assert stats["rebuilds_completed"] > 0, name
    fingerprints = {name: fp for name, (fp, _stats) in one.items()}
    # Same stream, different seeds: most sessions end in different
    # states (two of the six agree), so the comparison below would
    # notice a seed that moved.
    assert len(set(fingerprints.values())) > len(NAMES) // 2
    assert {name: fp for name, (fp, _stats) in three.items()} == \
        fingerprints
