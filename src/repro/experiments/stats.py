"""Statistical helpers for the experiment harnesses.

Theorem 2.1 is a *with-high-probability* statement; single-run tables
can only spot-check it.  :func:`wilson_interval` turns k-successes-of-n
trials into a confidence interval on the true success probability, and
:func:`replicate_quality` runs the sparsifier many times to report the
estimated failure rate with that interval — the statistically honest
form of experiment E1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.sparsifier import build_sparsifier
from repro.engine.core import TrialTask, execute
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.instrument.rng import resolve_rng, spawn_rngs
from repro.matching.blossom import mcm_exact


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation near 0/1 — exactly where
    whp-style claims live.

    Returns
    -------
    (low, high):
        The confidence bounds; (0.0, 1.0) when ``trials`` is 0.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p * (1 - p) / trials + z * z / (4 * trials * trials)
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


@dataclass(frozen=True)
class QualityReplication:
    """Outcome of a multi-trial sparsifier quality replication.

    Attributes
    ----------
    trials, successes:
        Trials run and trials achieving ratio ≤ 1+ε.
    worst_ratio:
        Worst observed ratio across trials.
    confidence_low, confidence_high:
        Wilson 95% interval on the true success probability.
    """

    trials: int
    successes: int
    worst_ratio: float
    confidence_low: float
    confidence_high: float


def _replication_trial(delta: int, *, context, rng) -> int:
    """One replication trial: |MCM(G_Δ)| on the broadcast graph.

    ``context`` is the input graph, shipped once per worker by the
    engine rather than once per task.
    """
    res = build_sparsifier(context, delta, rng=rng, sampler="vectorized")
    return mcm_exact(res.subgraph).size


def replicate_quality(
    graph: AdjacencyArrayGraph,
    delta: int,
    epsilon: float,
    trials: int,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
    workers: int | str = 1,
) -> QualityReplication:
    """Estimate P[G_Δ is a (1+ε)-sparsifier] with a Wilson interval.

    Trials are embarrassingly parallel: per-trial generators are
    spawned from the root before dispatch (so the estimate is identical
    for any ``workers`` value) and fanned out through
    :mod:`repro.engine`.

    Parameters
    ----------
    graph, delta, epsilon, trials:
        Instance, sparsifier parameter, quality target, replication count.
    rng, seed:
        Uniform randomness keywords — pass an existing generator via
        ``rng=`` or an integer via ``seed=`` (not both).
    workers:
        Process count or ``"auto"`` for the trial fan-out.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    gen = resolve_rng(seed=seed, rng=rng, owner="replicate_quality")
    opt = mcm_exact(graph).size
    tasks = [
        TrialTask(fn=_replication_trial, kwargs={"delta": delta},
                  rng=child, wants_context=True)
        for child in spawn_rngs(gen, trials)
    ]
    successes = 0
    worst = 1.0
    for got in execute(tasks, workers=workers, context=graph):
        ratio = opt / got if got else float("inf")
        worst = max(worst, ratio)
        if ratio <= 1.0 + epsilon:
            successes += 1
    low, high = wilson_interval(successes, trials)
    return QualityReplication(
        trials=trials,
        successes=successes,
        worst_ratio=worst,
        confidence_low=low,
        confidence_high=high,
    )
