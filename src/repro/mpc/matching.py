"""O(1)-round MPC (1+ε)-approximate matching for bounded-β graphs.

Protocol (three rounds on top of the input partition):

1. **Shuffle by endpoint** — each machine routes every edge (u, v) it
   holds to the machines owning u and v (vertices are range-partitioned).
   After the round, machine k holds the full adjacency of its vertices.
2. **Local sampling** — each machine marks Δ random incident edges per
   owned vertex (exactly G_Δ's marking; per-vertex RNGs keep
   Observation 2.9's independence) and routes the marks to the
   coordinator (machine 0).
3. **Coordinator matching** — machine 0 now holds G_Δ, which fits its
   memory because |E(G_Δ)| ≤ n·Δ (and ≤ 2·|MCM|·(Δ+β), Obs 2.10) even
   when the input's m does not.  It computes the matching offline.

The memory story is the whole point: with S = Θ(n·Δ) words the input
graph overflows any single machine for dense inputs, but the sparsifier
never does — the simulator enforces both facts at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.delta import DeltaPolicy
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.instrument.rng import resolve_rng
from repro.matching.blossom import mcm_exact
from repro.matching.matching import Matching
from repro.mpc.simulator import MPCSimulator


@dataclass(frozen=True)
class MPCResult:
    """Outcome of an MPC matching run.

    Attributes
    ----------
    matching:
        The computed matching (valid in the input graph).
    rounds:
        MPC rounds executed (shuffle + sample + gather = 3).
    max_load:
        Largest machine state seen, in words.
    memory_per_machine:
        The enforced budget S.
    delta:
        Δ used.
    """

    matching: Matching
    rounds: int
    max_load: int
    memory_per_machine: int
    delta: int


def _owner(v: int, num_vertices: int, num_machines: int) -> int:
    """Range partition: vertex v is owned by machine ⌊v·M/n⌋."""
    return min(num_machines - 1, v * num_machines // max(1, num_vertices))


def mpc_approx_matching(
    graph: AdjacencyArrayGraph,
    beta: int,
    epsilon: float,
    num_machines: int,
    memory_per_machine: int | None = None,
    rng: np.random.Generator | None = None,
    policy: DeltaPolicy | None = None,
    *,
    seed: int | None = None,
) -> MPCResult:
    """Run the three-round MPC matching protocol.

    Parameters
    ----------
    graph:
        Input graph; its edges are dealt round-robin across machines as
        the initial (arbitrary) partition.
    beta, epsilon:
        Structure and quality parameters.
    num_machines:
        M.
    memory_per_machine:
        S in words; default 8·(n·Δ + n), comfortably fitting the
        sparsifier plus routing overhead while typically far below 2m
        for dense inputs.
    rng, seed:
        Uniform randomness keywords — a generator via ``rng=`` or an
        integer via ``seed=`` (not both).

    Raises
    ------
    MachineOverflowError
        If any machine (including the coordinator) would exceed S — in
        particular if you ask it to centralize the *raw* graph instead.
    """
    gen = resolve_rng(seed=seed, rng=rng, owner="mpc_approx_matching")
    pol = policy or DeltaPolicy.practical()
    n = graph.num_vertices
    delta = pol.delta(beta, epsilon, n)
    if memory_per_machine is None:
        memory_per_machine = 8 * (n * delta + n)
    sim = MPCSimulator(num_machines, memory_per_machine)

    # Input partition: deal edges round-robin.
    edges = list(graph.edges())
    partitions: list[list[tuple[int, int]]] = [[] for _ in range(num_machines)]
    for i, e in enumerate(edges):
        partitions[i % num_machines].append(e)
    for m in range(num_machines):
        sim.load(m, partitions[m])

    # Round 1: shuffle by endpoint.
    def shuffle(machine: int, state):
        out = []
        for u, v in state or []:
            out.append((_owner(u, n, num_machines), ("adj", u, v)))
            out.append((_owner(v, n, num_machines), ("adj", v, u)))
        return out

    sim.round(shuffle)

    # Round 2: per-vertex sampling; marks go to the coordinator.
    vertex_rngs = gen.spawn(n)

    def sample(machine: int, state):
        adjacency: dict[int, list[int]] = {}
        for tag, v, u in state or []:
            adjacency.setdefault(v, []).append(u)
        out = []
        for v, nbrs in adjacency.items():
            k = min(delta, len(nbrs))
            picks = vertex_rngs[v].choice(len(nbrs), size=k, replace=False)
            for i in picks:
                u = nbrs[int(i)]
                out.append((0, ("edge", min(v, u), max(v, u))))
        return out

    sim.round(sample)

    # Round 3: coordinator deduplicates and matches locally; we model the
    # final "publish" as the coordinator keeping the matching.
    def gather(machine: int, state):
        if machine != 0:
            return []
        sparsifier_edges = sorted({(u, v) for tag, u, v in state or []})
        # Local computation happens within the machine; re-emit the edges
        # to itself so the post-round memory check covers them.
        return [(0, ("edge", u, v)) for u, v in sparsifier_edges]

    sim.round(gather)
    sparsifier_edges = sorted({(u, v) for tag, u, v in sim.state(0)})
    sparsifier = from_edges(n, sparsifier_edges)
    matching = mcm_exact(sparsifier)

    return MPCResult(
        matching=matching,
        rounds=sim.rounds_executed,
        max_load=sim.max_load_seen,
        memory_per_machine=memory_per_machine,
        delta=delta,
    )
