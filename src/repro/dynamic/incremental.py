"""Work-chunked static matching — the engine inside the windowed rebuild.

Theorem 3.5's worst-case bound comes from *simulating* the static
computation a-few-steps-per-update across a time window.  This module
provides that simulation substrate: :func:`incremental_rebuild` is a
generator that performs the full static pipeline (sample G_Δ from the
live graph → greedy matching → phase-limited blossom augmentation) while
yielding control every ~``chunk`` elementary operations.  The driver
(:class:`~repro.dynamic.lazy_rebuild.LazyRebuildMatching`) pumps a bounded
number of chunks per update, which is what makes the per-update work
deterministic and measurable.

Because the rebuild runs against the *live* graph across many updates,
edges sampled early can be deleted before completion; the driver prunes
dead edges from the finished matching, and Lemma 3.4 absorbs the loss
(at most one matched edge per deletion in the window).
"""

from __future__ import annotations

from collections import deque
from typing import Generator

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.instrument import workmeter
from repro.instrument.rng import resolve_rng

#: Yield granularity: one chunk ≈ this many elementary operations.  The
#: driver converts chunks to the per-update budget.
DEFAULT_CHUNK = 256

#: One augmentation search stops once it has spent this many times Δ
#: operations (checked between queue pops).
SEARCH_CAP_FACTOR = 64


def _augmentation_search(
    adj: list[list[int]],
    mate: list[int],
    root: int,
    parent: list[int],
    base: list[int],
    in_tree: list[bool],
    in_blossom: list[bool],
    ops_cap: int,
) -> tuple[int, int]:
    """One blossom BFS from ``root``; returns (free_end | -1, ops).

    Identical logic to :mod:`repro.matching.blossom`, restated over
    list-of-lists adjacency with explicit operation counting so the
    caller can charge work chunks.  The scratch state is plain Python
    lists: every access is a scalar one, which a list serves without
    boxing a numpy scalar.  ``ops_cap`` aborts the search once
    that many operations are spent — the windowed rebuild uses it to keep
    each atomic work slice O(Δ)-bounded (augmenting paths that matter are
    short and found early in the BFS; aborted long searches cost at most
    the Lemma 3.4 slack in quality, which E10 measures).
    """
    n = len(adj)
    ops = 0
    cleared = [False] * n
    parent[:] = [-1] * n
    base[:] = range(n)
    in_tree[:] = cleared
    in_tree[root] = True
    queue: deque[int] = deque([root])

    def lca(a: int, b: int) -> int:
        nonlocal ops
        seen = [False] * n
        v = a
        # Alternating-tree walks: each hop moves strictly rootward, so
        # both loops terminate in <= path-length <= n steps.  Every hop
        # increments `ops`, but ops_cap is checked only between queue
        # pops, so one search can overrun it by a blossom contraction
        # (`ops += n`) and by more than one chunk.
        while True:
            ops += 1
            v = base[v]
            seen[v] = True
            if mate[v] == -1:
                break
            v = parent[mate[v]]
        v = b
        while True:
            ops += 1
            v = base[v]
            if seen[v]:
                return v
            v = parent[mate[v]]

    def mark_path(v: int, blossom_base: int, child: int) -> None:
        nonlocal ops
        # Bounded by the blossom path length (<= n); ops-charged hops.
        while base[v] != blossom_base:
            ops += 1
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    while queue:
        if ops > ops_cap:
            return -1, ops
        v = queue.popleft()
        for to in adj[v]:
            ops += 1
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                blossom_base = lca(v, to)
                in_blossom[:] = cleared
                mark_path(v, blossom_base, to)
                mark_path(to, blossom_base, v)
                ops += n
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = blossom_base
                        if not in_tree[i]:
                            in_tree[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    return to, ops
                nxt = mate[to]
                in_tree[nxt] = True
                queue.append(nxt)
    return -1, ops


def _apply_augmentation(mate: list[int], parent: list[int], free_end: int) -> None:
    v = free_end
    # Walks one augmenting path root-ward: <= path-length <= n hops.
    # The hops are not counted in `ops`, and the search that found the
    # path checks its ops_cap only between queue pops.
    while v != -1:
        pv = parent[v]
        nxt = mate[pv]
        mate[v] = pv
        mate[pv] = v
        v = nxt


def incremental_rebuild(
    graph: DynamicGraph,
    delta: int,
    sweeps: int,
    rng: np.random.Generator | None = None,
    chunk: int = DEFAULT_CHUNK,
    *,
    seed: int | None = None,
) -> Generator[int, None, np.ndarray]:
    """Generator running the static pipeline in ~``chunk``-op slices.

    Randomness follows the uniform convention: pass ``rng=`` (an existing
    :class:`numpy.random.Generator`) or ``seed=`` (an integer), not both.

    Yields ``1`` per consumed chunk; the final ``return`` value (via
    ``StopIteration.value``) is the mate array of the computed matching
    on the sampled sparsifier.  Stages:

    1. sample min(Δ, deg v) random incident edges per vertex (live graph);
    2. greedy maximal matching over the sampled edges;
    3. ``sweeps`` augmentation sweeps (blossom search per free root).

    Edges are validated against the live graph lazily during stages 2–3
    (a dead edge is skipped), so the result only degrades by the number
    of deletions that raced the rebuild — the Lemma 3.4 slack.
    """
    rng = resolve_rng(seed=seed, rng=rng, owner="incremental_rebuild")
    n = graph.num_vertices
    ops = 0
    # Per-iteration (not per-stage) counting so each pumped chunk's work
    # lands on the update that performed it — aggregate counts at stage
    # end would charge a whole stage to whichever update finished it.
    meter = workmeter.active()

    # ---- Stage 1: sampling (non-isolated vertices only; Lemma 2.2 makes
    # this output-sensitive: n' <= (beta+2)*|MCM|).  Vertices that gain
    # their first edge while the rebuild is in flight are missed; that
    # costs at most one matched edge per such update, inside the
    # Lemma 3.4 window slack.
    edge_set: set[tuple[int, int]] = set()
    # Loop invariants hoisted out of the per-vertex loop.  ``live`` is the
    # graph's live position map (not a copy), so ``v in live[u]`` sees
    # every deletion that raced the rebuild, exactly like has_edge.
    add_edges = edge_set.update
    sample = graph.sample_edges
    live = graph.position_index
    for v in graph.non_isolated_vertices():
        # The Delta-sample must materialize its pick list (fresh
        # randomness per vertex); one segmented draw for the whole
        # stage was measured slower (docs/PERFORMANCE.md).  The picks
        # come back as the graph's canonical edge tuples, so the set
        # sees the same keys in the same order as a per-edge add would.
        marks = sample(v, delta, rng)
        ops += max(1, len(marks))
        if meter is not None:
            meter.count("vertex-scan", "incremental_rebuild.sample")
        add_edges(marks)
        if ops >= chunk:
            ops = 0
            yield 1

    # ---- Build adjacency lists (filter edges deleted meanwhile) -------
    # Iterating the tuple-keyed set gives each vertex a pseudo-random
    # adjacency order (hash order).  Keep it: sorted lists (int-coded
    # keys, a sorted CSR) were measured to multiply greedy's counted
    # work (docs/PERFORMANCE.md).  One op per edge: the edges are taken
    # in slices that end exactly where a per-edge count reaches
    # ``chunk``, and each slice is filtered against the live graph in
    # the chunk that charges it.
    adj: list[list[int]] = [[] for _ in range(n)]
    if meter is not None:
        meter.count("allocation", "incremental_rebuild.build_adj")
    sampled = list(edge_set)
    start, total = 0, len(sampled)
    while start < total:
        take = min(chunk - ops, total - start)
        if meter is not None:
            meter.count("edge-touch", "incremental_rebuild.build_adj", take)
        for u, v in sampled[start:start + take]:
            if v in live[u]:
                adj[u].append(v)
                adj[v].append(u)
        start += take
        ops += take
        if ops >= chunk:
            ops = 0
            yield 1

    # ---- Stage 2: greedy maximal matching -----------------------------
    # Scratch state is Python lists through stages 2-3 (scalar access
    # only); the result becomes one int64 array at the end.
    mate = [-1] * n
    if meter is not None:
        meter.count("allocation", "incremental_rebuild.greedy")
    # Scalar by design: the greedy pass must be interruptible every
    # ~chunk ops (the whole point of this generator).
    for u in range(n):
        if meter is not None:
            meter.count("vertex-scan", "incremental_rebuild.greedy")
        if mate[u] != -1:
            continue
        for v in adj[u]:
            ops += 1
            if meter is not None:
                meter.count("edge-touch", "incremental_rebuild.greedy")
            if mate[v] == -1 and v in live[u]:
                mate[u], mate[v] = v, u
                break
        if ops >= chunk:
            ops = 0
            yield 1

    # ---- Stage 3: bounded augmentation sweeps -------------------------
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    in_blossom = [False] * n
    ops_cap = SEARCH_CAP_FACTOR * delta
    for _ in range(sweeps):
        augmented = False
        # Scalar by design, like the greedy stage: per-root searches
        # are the chunked unit of interruptible work.
        for root in range(n):
            if meter is not None:
                meter.count("vertex-scan", "incremental_rebuild.augment")
            if mate[root] != -1 or not adj[root]:
                continue
            # Each search allocates one BFS deque; the scratch lists
            # are hoisted (parent/base/in_tree/in_blossom above).
            end, cost = _augmentation_search(
                adj, mate, root, parent, base, in_tree, in_blossom,
                ops_cap=ops_cap,
            )
            ops += cost
            if meter is not None:
                meter.count("edge-touch", "incremental_rebuild.augment",
                            max(cost, 1))
            if end != -1:
                _apply_augmentation(mate, parent, end)
                augmented = True
            while ops >= chunk:
                ops -= chunk
                yield 1
        if not augmented:
            break
    if ops > 0:
        yield 1
    return np.asarray(mate, dtype=np.int64)
