"""The random matching sparsifier G_Δ (Section 2).

Every vertex marks Δ incident edges uniformly at random without
replacement (all of them if deg(v) ≤ Δ); G_Δ is the union of all marked
edges.  Theorem 2.1: for Δ = Θ((β/ε)·log(1/ε)), G_Δ is a (1+ε)-matching
sparsifier with high probability.

Two samplers implement the per-vertex marking, both per Section 3.1:

``pos_array`` (default)
    The deterministic-time sampler: emulates a Fisher–Yates shuffle over
    the *read-only* adjacency array using an O(1)-initialized
    :class:`~repro.graphs.sparse_array.SparseArray` of positions.
    Exactly min(Δ, deg(v)) neighbor probes per vertex — worst case, not
    just expected — which is what makes Theorem 3.1's runtime bound
    deterministic.

``rejection``
    The simple sampler: draw random neighbor indices, retry on
    duplicates.  Following the paper's tweak, vertices of degree ≤ 2Δ
    mark *all* their neighbors so the rejection loop never runs long;
    expected O(Δ) probes per vertex.

Both samplers touch the input graph only through the probe-counted
``degree`` / ``neighbor`` accessors, so experiments can certify the probe
complexity (E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.graphs.builder import from_edges
from repro.graphs.sparse_array import SparseArray
from repro.instrument.counters import Counter
from repro.instrument.rng import resolve_rng

SamplerName = Literal["pos_array", "rejection", "vectorized"]


@dataclass(frozen=True)
class SparsifierResult:
    """Output of a sparsifier construction.

    Attributes
    ----------
    subgraph:
        G_Δ as an :class:`AdjacencyArrayGraph` on the same vertex set.
    marked_by:
        ``marked_by[v]`` is the tuple of neighbors v marked; the union of
        {v} × marked_by[v] over v (as undirected edges) is E(G_Δ).
    delta:
        The Δ used.
    probes:
        Number of adjacency-array probes charged during construction
        (None when no counter was attached).
    """

    subgraph: AdjacencyArrayGraph
    marked_by: tuple[tuple[int, ...], ...]
    delta: int
    probes: int | None = None


def _mark_pos_array(
    graph: AdjacencyArrayGraph, v: int, delta: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Mark min(Δ, deg(v)) random neighbors with the pos_v emulation.

    Implements the paper's read-only Fisher–Yates: ``pos`` lazily
    represents a permutation of ``[0, deg)``; cell i reads as i until
    written.  Each of the k sampling steps does O(1) work and exactly one
    ``neighbor`` probe, so the per-vertex cost is deterministic O(Δ).
    """
    deg = graph.degree(v)
    k = min(delta, deg)
    if k == 0:
        return ()
    pos = SparseArray(deg)
    marked: list[int] = []
    for step in range(k):
        limit = deg - step  # sample from the not-yet-fixed prefix [0, limit)
        i = int(rng.integers(limit))
        # Read logical entries (0 in the sparse array means "identity").
        pi = pos[i] if pos.is_written(i) else i
        plast = pos[limit - 1] if pos.is_written(limit - 1) else limit - 1
        # Swap: position i now holds the old last entry; the sampled
        # entry pi is fixed at the tail.
        pos[i] = plast
        pos[limit - 1] = pi
        marked.append(graph.neighbor(v, pi))
    return tuple(marked)


def _mark_rejection(
    graph: AdjacencyArrayGraph, v: int, delta: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Mark neighbors by rejection sampling (paper's simple sampler).

    Per the §3.1 tweak, vertices with deg ≤ 2Δ mark everything, so each
    accepted draw succeeds with probability ≥ 1/2 and the expected probe
    count is O(Δ).
    """
    deg = graph.degree(v)
    if deg <= 2 * delta:
        return tuple(graph.neighbor(v, i) for i in range(deg))
    chosen: set[int] = set()
    marked: list[int] = []
    while len(marked) < delta:
        i = int(rng.integers(deg))
        if i in chosen:
            continue
        chosen.add(i)
        marked.append(graph.neighbor(v, i))
    return tuple(marked)


_SAMPLERS = {"pos_array": _mark_pos_array, "rejection": _mark_rejection}


def _build_vectorized(
    graph: AdjacencyArrayGraph,
    delta: int,
    rng: np.random.Generator,
    materialize_marks: bool = True,
) -> tuple[AdjacencyArrayGraph, tuple[tuple[int, ...], ...]]:
    """Whole-graph vectorized construction of G_Δ (no Python per-vertex loop).

    Draws one uniform key per directed edge and keeps, for every vertex,
    the Δ smallest-keyed incident edges.  Sorting by (source, key) makes
    the within-segment ranks a single vectorized subtraction, and "rank
    < Δ" is exactly a uniform Δ-subset without replacement per vertex —
    the same marking law as the scalar samplers (equivalence is
    property-tested).  This is the **bulk** sampler for large-scale
    benchmarks: it reads the whole CSR, so it is deliberately not
    probe-counted and does not certify sublinearity — it certifies
    wall-clock speed (experiment E16).
    """
    n = graph.num_vertices
    indptr = graph.indptr
    indices = graph.indices
    num_directed = indices.size
    if num_directed == 0:
        empty = from_edges(n, [])
        return empty, tuple(() for _ in range(n))
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys = rng.random(num_directed)
    # Composite-key argsort (src + key, key ∈ [0,1)) groups by source and
    # shuffles within each segment — ~9x faster than np.lexsort.  float64
    # keeps ≥ 25 random mantissa bits for any realistic n; ties would
    # only make the within-segment order platform-dependent, never
    # non-uniform.
    order = np.argsort(src.astype(np.float64) + keys)
    ranks = np.arange(num_directed, dtype=np.int64) - indptr[src[order]]
    keep = order[ranks < delta]
    marked_src = src[keep]
    marked_dst = indices[keep]
    lo = np.minimum(marked_src, marked_dst)
    hi = np.maximum(marked_src, marked_dst)
    edges = np.unique(np.column_stack((lo, hi)), axis=0)
    subgraph = from_edges(n, edges)
    if not materialize_marks:
        return subgraph, tuple(() for _ in range(n))
    # Per-vertex mark lists (order within a vertex is arbitrary).
    marks_order = np.argsort(marked_src, kind="stable")
    ms, md = marked_src[marks_order], marked_dst[marks_order]
    boundaries = np.searchsorted(ms, np.arange(n + 1))
    marked_by = tuple(
        tuple(int(x) for x in md[boundaries[v]:boundaries[v + 1]])
        for v in range(n)
    )
    return subgraph, marked_by


def build_sparsifier(
    graph: AdjacencyArrayGraph,
    delta: int,
    rng: np.random.Generator | None = None,
    sampler: SamplerName = "pos_array",
    probe_counter: Counter | None = None,
    materialize_marks: bool = True,
    *,
    seed: int | None = None,
) -> SparsifierResult:
    """Construct the random sparsifier G_Δ.

    Parameters
    ----------
    graph:
        Input graph; accessed only via O(1) probes.
    delta:
        Number of incident edges each vertex marks (use
        :mod:`repro.core.delta` to derive it from β and ε).
    rng, seed:
        Uniform randomness keywords — an existing generator via ``rng=``
        or an integer via ``seed=`` (not both; an integer via ``rng=``
        or a generator via ``seed=`` raises :class:`TypeError`).
        Per-vertex choices are drawn independently, matching
        Observation 2.9's independence requirement.
    sampler:
        ``"pos_array"`` (deterministic probe count, default),
        ``"rejection"``, or ``"vectorized"`` (bulk numpy construction
        for large-scale runs — same marking law, not probe-countable).
    probe_counter:
        If given, the construction is charged to this counter and the
        total is reported in the result.
    materialize_marks:
        Vectorized sampler only: skip building the per-vertex
        ``marked_by`` tuples (saves a Python loop on huge graphs).

    Returns
    -------
    SparsifierResult
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    gen = resolve_rng(seed=seed, rng=rng, owner="build_sparsifier")
    if sampler == "vectorized":
        if probe_counter is not None:
            raise ValueError(
                "the vectorized sampler is a bulk construction and cannot "
                "be probe-counted; use 'pos_array' for probe accounting"
            )
        subgraph, marked_by = _build_vectorized(
            graph, delta, gen, materialize_marks=materialize_marks
        )
        return SparsifierResult(
            subgraph=subgraph, marked_by=marked_by, delta=delta, probes=None
        )
    try:
        mark = _SAMPLERS[sampler]
    except KeyError:
        raise ValueError(f"unknown sampler {sampler!r}") from None
    counted = graph.with_probe_counter(probe_counter)
    start = probe_counter.value if probe_counter is not None else 0

    marked_by: list[tuple[int, ...]] = []
    edges: set[tuple[int, int]] = set()
    for v in range(graph.num_vertices):
        marks = mark(counted, v, delta, gen)
        marked_by.append(marks)
        for u in marks:
            edges.add((v, u) if v < u else (u, v))
    subgraph = from_edges(graph.num_vertices, sorted(edges))
    probes = probe_counter.value - start if probe_counter is not None else None
    return SparsifierResult(
        subgraph=subgraph, marked_by=tuple(marked_by), delta=delta, probes=probes
    )


class RandomSparsifier:
    """Object-style front end binding a Δ policy to repeated constructions.

    Convenient for pipelines that re-sparsify (the dynamic algorithm
    rebuilds G_Δ every time window).

    Examples
    --------
    >>> from repro.graphs.generators import clique
    >>> s = RandomSparsifier(beta=1, epsilon=0.5, seed=0)
    >>> result = s.sparsify(clique(50))
    >>> result.subgraph.num_edges <= 50 * result.delta
    True
    """

    def __init__(
        self,
        beta: int,
        epsilon: float,
        seed: int | None = None,
        constant: float | None = None,
        sampler: SamplerName = "pos_array",
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        from repro.core.delta import DeltaPolicy, PRACTICAL_CONSTANT

        self.beta = beta
        self.epsilon = epsilon
        self.policy = DeltaPolicy(
            constant=PRACTICAL_CONSTANT if constant is None else constant
        )
        self.sampler: SamplerName = sampler
        self._rng = resolve_rng(seed=seed, rng=rng, owner="RandomSparsifier")

    def delta_for(self, graph: AdjacencyArrayGraph) -> int:
        """Δ for this policy on ``graph``."""
        return self.policy.delta(self.beta, self.epsilon, graph.num_vertices)

    def sparsify(
        self,
        graph: AdjacencyArrayGraph,
        probe_counter: Counter | None = None,
    ) -> SparsifierResult:
        """Build G_Δ for ``graph`` with a fresh child RNG."""
        return build_sparsifier(
            graph,
            self.delta_for(graph),
            rng=self._rng.spawn(1)[0],
            sampler=self.sampler,
            probe_counter=probe_counter,
        )
