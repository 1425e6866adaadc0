"""End-to-end distributed pipelines (Theorems 3.2 and 3.3).

``distributed_approx_matching`` composes the four stages on one shared
metrics object, so the reported round/message/bit totals are end-to-end:

1. one round of :class:`SparsifierProtocol` on the input network → G_Δ;
2. one round of :class:`SolomonProtocol` on G_Δ (arboricity ≤ 2Δ) → the
   bounded-degree sparsifier G̃_Δ;
3. O(log n) rounds of :class:`RandomizedMatchingProtocol` on G̃_Δ →
   a maximal matching;
4. :class:`AugmentingPathEliminationProtocol` with k = ⌈1/ε⌉ → a matching
   with no augmenting path of length ≤ 2k−1, i.e. a (1+ε)-approximation
   *of G̃_Δ's MCM* — and hence, by the two sparsifier theorems, a
   (1+O(ε))-approximation of the input's MCM.

``distributed_baseline_matching`` is the (2+ε)-style baseline in the
spirit of Barenboim–Oren [16, 17]: stages 1–3 only (maximal matching on
the sparsifier, no improvement phases).

Stages 2–4 run on *subgraphs* of the input network, so every message they
send also travels along an edge of the original network; accumulating the
counters across stages is therefore exactly the accounting of
Theorem 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounded_degree import solomon_degree_bound
from repro.core.delta import DeltaPolicy
from repro.distributed.improvement import AugmentingPathEliminationProtocol
from repro.distributed.maximal_matching import RandomizedMatchingProtocol
from repro.distributed.network import SyncNetwork
from repro.distributed.solomon_round import SolomonProtocol
from repro.distributed.sparsify_round import SparsifierProtocol
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument.counters import CounterSet
from repro.instrument.rng import resolve_rng
from repro.matching.matching import Matching


@dataclass(frozen=True)
class DistributedRunReport:
    """Outcome and cost accounting of a distributed matching run.

    Attributes
    ----------
    matching:
        The computed matching (valid in the input graph).
    rounds, messages, bits:
        End-to-end totals across all stages.
    delta:
        Δ used by stage 1.
    degree_bound:
        Δ_α of stage 2 (max degree of the graph stages 3–4 run on).
    improvement_iterations:
        Outer iterations of stage 4 (0 for the baseline).
    """

    matching: Matching
    rounds: int
    messages: int
    bits: int
    delta: int
    degree_bound: int
    improvement_iterations: int


def _run_stages(
    graph: AdjacencyArrayGraph,
    beta: int,
    epsilon: float,
    rng: np.random.Generator | None,
    policy: DeltaPolicy | None,
    improve: bool,
    max_rounds: int,
) -> DistributedRunReport:
    gen = resolve_rng(rng=rng, owner="_run_stages")
    metrics = CounterSet()
    pol = policy or DeltaPolicy.practical()
    delta = pol.delta(beta, epsilon, graph.num_vertices)

    # Stage 1: G_Δ in one round on the input network.
    net = SyncNetwork(graph, metrics)
    sparsify = SparsifierProtocol(delta, rng=gen.spawn(1)[0])
    net.run(sparsify, max_rounds=2)
    g_delta = from_edges(graph.num_vertices, sorted(sparsify.edges))

    # Stage 2: Solomon on G_Δ (arboricity ≤ 2Δ, Obs 2.12) in one round.
    degree_bound = solomon_degree_bound(2 * delta, epsilon)
    net2 = SyncNetwork(g_delta, metrics)
    solomon = SolomonProtocol(degree_bound)
    net2.run(solomon, max_rounds=2)
    g_tilde = from_edges(graph.num_vertices, sorted(solomon.edges))

    # Stage 3: randomized maximal matching on G̃_Δ.
    net3 = SyncNetwork(g_tilde, metrics)
    matcher = RandomizedMatchingProtocol(rng=gen.spawn(1)[0])
    net3.run(matcher, max_rounds=max_rounds)

    iterations = 0
    if improve:
        # Stage 4: eliminate augmenting paths of length ≤ 2k−1.
        k = max(1, int(np.ceil(1.0 / epsilon)))
        improver = AugmentingPathEliminationProtocol(
            k, matcher.mate, rng=gen.spawn(1)[0]
        )
        net4 = SyncNetwork(g_tilde, metrics)
        net4.run(improver, max_rounds=max_rounds * (6 * k + 2))
        final = improver.matching
        iterations = improver.iterations
    else:
        final = matcher.matching

    return DistributedRunReport(
        matching=final,
        rounds=metrics.value("rounds"),
        messages=metrics.value("messages"),
        bits=metrics.value("bits"),
        delta=delta,
        degree_bound=degree_bound,
        improvement_iterations=iterations,
    )


def distributed_approx_matching(
    graph: AdjacencyArrayGraph,
    beta: int,
    epsilon: float,
    rng: np.random.Generator | None = None,
    policy: DeltaPolicy | None = None,
    max_rounds: int = 10_000,
    *,
    seed: int | None = None,
) -> DistributedRunReport:
    """The full (1+O(ε)) pipeline of Theorem 3.2 (all four stages).

    Randomness follows the uniform convention: a generator via ``rng=``
    or an integer via ``seed=`` (not both).
    """
    gen = resolve_rng(seed=seed, rng=rng, owner="distributed_approx_matching")
    return _run_stages(graph, beta, epsilon, gen, policy, improve=True,
                       max_rounds=max_rounds)


def distributed_baseline_matching(
    graph: AdjacencyArrayGraph,
    beta: int,
    epsilon: float,
    rng: np.random.Generator | None = None,
    policy: DeltaPolicy | None = None,
    max_rounds: int = 10_000,
    *,
    seed: int | None = None,
) -> DistributedRunReport:
    """The (2+ε)-style baseline: maximal matching on the sparsifier only
    (stages 1–3), in the spirit of Barenboim–Oren [16, 17].

    Randomness follows the uniform ``seed=`` / ``rng=`` convention.
    """
    gen = resolve_rng(seed=seed, rng=rng,
                      owner="distributed_baseline_matching")
    return _run_stages(graph, beta, epsilon, gen, policy, improve=False,
                       max_rounds=max_rounds)


def reduce_with_sparsifier(
    graph: AdjacencyArrayGraph,
    beta: int,
    epsilon: float,
    protocol_factory,
    rng: np.random.Generator | None = None,
    policy: DeltaPolicy | None = None,
    max_rounds: int = 10_000,
    *,
    seed: int | None = None,
):
    """Theorem 3.3 as a combinator: run *any* black-box protocol on G_Δ.

    "Suppose there is a distributed algorithm for computing a
    γ-approximate MCM in T(n) rounds ... then there is also one with
    (1+ε)γ approximation in T(n)+1 rounds and T(n)·O(n·(β/ε)·log(1/ε))
    messages."  This helper is that reduction, literally: one sparsifier
    round, then ``protocol_factory(network_over_G_delta)`` runs as the
    black box; both stages share one metrics object.

    Parameters
    ----------
    protocol_factory:
        Callable ``(graph) -> Protocol`` building the black box for the
        sparsified topology.
    rng, seed:
        Uniform randomness keywords — a generator via ``rng=`` or an
        integer via ``seed=`` (not both).

    Returns
    -------
    (protocol, metrics, sparsifier):
        The finished black-box protocol instance (read its result off
        its own attributes), the shared
        :class:`~repro.instrument.counters.CounterSet`, and G_Δ.
    """
    from repro.instrument.counters import CounterSet

    gen = resolve_rng(seed=seed, rng=rng, owner="reduce_with_sparsifier")
    metrics = CounterSet()
    pol = policy or DeltaPolicy.practical()
    delta = pol.delta(beta, epsilon, graph.num_vertices)
    net = SyncNetwork(graph, metrics)
    sparsify = SparsifierProtocol(delta, rng=gen.spawn(1)[0])
    net.run(sparsify, max_rounds=2)
    g_delta = from_edges(graph.num_vertices, sorted(sparsify.edges))
    black_box = protocol_factory(g_delta)
    net2 = SyncNetwork(g_delta, metrics)
    net2.run(black_box, max_rounds=max_rounds)
    return black_box, metrics, g_delta
