"""Counted work on the rebuild's sampling path, pinned.

``benchmarks/hotspots.py`` (whose report CI ``cmp``s) drives a session
whose degrees never exceed the matcher's Δ, so its rebuilds never draw
a sample.  This test covers the sampling path instead: the served
``lazy_rebuild`` backend, built as a session builds it, on two
64-cliques (live degree 63 above the matcher's Δ = 48 at β = 1,
ε = 0.8) goes through a shuffled prefill and an oblivious update stream
under the work meter.  The backend is driven directly because a
session under the meter also checks the Theorem 3.5 cap, which this
workload still overruns (ROADMAP item 2).

Two sha256 digests are pinned:

* ``work_log`` — the rebuild chunks each update pumped, which fixes
  every yield point and so the chunks per rebuild;
* the work-meter counts each update added, per site and category.

A rewrite of the sampler or of the rebuild stages must leave both
unchanged: same draws, same counted ops, same yield points.
"""

from hashlib import sha256

import numpy as np
import pytest

from repro.dynamic.adversaries import ObliviousAdversary
from repro.graphs.generators import clique_union
from repro.dynamic.lazy_rebuild import LazyRebuildMatching
from repro.instrument import workmeter
from repro.service.session import theorem_work_budget

NUM_CLIQUES, CLIQUE_SIZE = 2, 64
BETA, EPSILON = 1, 0.8
MATCHER_SEED, STREAM_SEED = 3, 17
ADVERSARY_STEPS = 300

EXPECTED_WORK_LOG = (
    "01d7cab7a16293fdd016b17fb90258134bd7166b893dcf830078b5674f7b288d")
EXPECTED_METER = (
    "b770409aa2304648dff782ae005ac32d7a1ba801ce0867b4343ba469b8fa1d74")


def work_digests() -> tuple[str, str]:
    """sha256 of ``work_log`` and of the per-update meter counts."""
    edges = clique_union(NUM_CLIQUES, CLIQUE_SIZE).edge_array()
    universe = [(int(u), int(v)) for u, v in edges]
    meter_digest = sha256()
    with workmeter.audit() as meter:
        matcher = LazyRebuildMatching(
            NUM_CLIQUES * CLIQUE_SIZE, BETA, EPSILON,
            rng=np.random.default_rng(MATCHER_SEED),
            max_chunks_per_update=theorem_work_budget(BETA, EPSILON),
        )

        def apply(op: str, u: int, v: int) -> None:
            before = dict(meter.sites)
            matcher.update(op, u, v)
            added = sorted(
                (category, site, count - before.get((category, site), 0))
                for (category, site), count in meter.sites.items()
                if count != before.get((category, site), 0)
            )
            meter_digest.update(repr(added).encode())

        rng = np.random.default_rng(STREAM_SEED)
        for i in rng.permutation(len(universe)).tolist():
            apply("insert", *universe[i])
        adversary = ObliviousAdversary(universe, rng=rng)
        adversary.preload(universe)
        for update in adversary.stream(ADVERSARY_STEPS):
            apply(update.op, update.u, update.v)
    assert len(matcher.work_log) == len(universe) + ADVERSARY_STEPS
    assert matcher.delta < CLIQUE_SIZE - 1
    work_log = np.asarray(matcher.work_log, dtype=np.int64)
    return sha256(work_log.tobytes()).hexdigest(), meter_digest.hexdigest()


@pytest.mark.fast
def test_sampling_path_work_is_pinned():
    work_log, meter = work_digests()
    assert work_log == EXPECTED_WORK_LOG
    assert meter == EXPECTED_METER
