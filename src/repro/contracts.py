"""Runtime contracts: executable forms of the paper's local invariants.

The reproduction's central objects all have *locally checkable*
correctness conditions — a matching is valid edge-by-edge, the
sparsifier's marking bound holds vertex-by-vertex, a subgraph is a
subgraph edge-by-edge.  This module turns them into cheap assertions:

* :func:`check_matching` — every matched edge exists in the host graph
  (the mate-array involution is already enforced by
  :class:`~repro.matching.matching.Matching` itself);
* :func:`check_sparsifier_degree` — the Section 2 marking law: every
  vertex marks at most Δ distinct incident edges, so
  |E(G_Δ)| ≤ Σ_v min(Δ, deg v) (for bounded-degree sparsifiers, a plain
  max-degree ≤ Δ check);
* :func:`check_subgraph` — same vertex set, every edge present in the
  host.

Checks raise :class:`ContractViolation` (an :class:`AssertionError`
subclass) with a pinpointed message and otherwise return their subject,
so they compose as pass-throughs::

    matching = check_matching(graph, matcher(graph))

**Gating.**  The :mod:`repro.api` facade calls these automatically when
the environment variable ``REPRO_CONTRACTS=1`` (or ``true``/``yes``/
``on``) is set — the debug mode used in CI and while developing — and
skips them otherwise, so production paths pay nothing.  Tests call the
checkers directly, ungated.
"""

from __future__ import annotations

import os
from typing import Union

from repro.core.sparsifier import SparsifierResult
from repro.graphs.adjacency import AdjacencyArrayGraph
from repro.matching.matching import Matching

#: Environment variable that switches the facade's debug-mode checks on.
CONTRACTS_ENV = "REPRO_CONTRACTS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class ContractViolation(AssertionError):
    """A runtime invariant of the reproduction failed.

    Subclasses :class:`AssertionError` so existing ``pytest.raises``
    patterns and ``verify_matching``-style call sites keep working.
    """


def contracts_enabled() -> bool:
    """Whether ``REPRO_CONTRACTS`` requests debug-mode contract checks.

    Read from the environment on every call (not cached) so tests can
    flip it with ``monkeypatch.setenv`` and the engine's worker processes
    inherit the parent's setting naturally.
    """
    return os.environ.get(CONTRACTS_ENV, "").strip().lower() in _TRUTHY


def _fail(message: str) -> None:
    raise ContractViolation(message)


def check_matching(graph: AdjacencyArrayGraph, matching: Matching) -> Matching:
    """Assert ``matching`` is a valid matching *in* ``graph``.

    The involution/self-loop structure of the mate array is validated by
    the :class:`Matching` constructor; this adds the graph-dependent
    half: compatible sizes and every matched edge present in ``graph``.
    """
    if matching.mate.size != graph.num_vertices:
        _fail(
            f"matching covers {matching.mate.size} vertices but the graph "
            f"has {graph.num_vertices}"
        )
    for u, v in matching.edges():
        if not graph.has_edge(u, v):
            _fail(f"matched edge ({u}, {v}) is not an edge of the graph")
    return matching


def check_subgraph(
    subgraph: AdjacencyArrayGraph, graph: AdjacencyArrayGraph
) -> AdjacencyArrayGraph:
    """Assert ``subgraph`` is a subgraph of ``graph`` on the same vertices."""
    if subgraph.num_vertices != graph.num_vertices:
        _fail(
            f"subgraph has {subgraph.num_vertices} vertices, host has "
            f"{graph.num_vertices}"
        )
    for u, v in subgraph.edges():
        if not graph.has_edge(u, v):
            _fail(f"subgraph edge ({u}, {v}) is absent from the host graph")
    return subgraph


def check_sparsifier_degree(
    sparsifier: Union[SparsifierResult, AdjacencyArrayGraph],
    delta: int,
    *,
    graph: AdjacencyArrayGraph | None = None,
) -> Union[SparsifierResult, AdjacencyArrayGraph]:
    """Assert the Δ-bounded marking/degree law of a sparsifier.

    For a :class:`~repro.core.sparsifier.SparsifierResult` (the paper's
    G_Δ), the checkable per-vertex invariant is the *marking* bound of
    Section 2 — each vertex marks at most Δ distinct neighbors, and
    therefore |E(G_Δ)| ≤ Σ_v min(Δ, deg_G v) ≤ n·Δ.  (Note G_Δ's vertex
    *degrees* are not individually bounded by Δ: a star's center keeps
    all its edges because every leaf marks its only edge.)  When
    ``graph`` is supplied, marks are also checked to be genuine
    neighbors and G_Δ to be a subgraph.

    For a plain :class:`AdjacencyArrayGraph` — e.g. Solomon's
    bounded-degree sparsifier, whose guarantee *is* a degree cap — the
    check is simply ``max_degree() <= delta``.
    """
    if delta < 1:
        _fail(f"delta must be >= 1, got {delta}")
    if isinstance(sparsifier, AdjacencyArrayGraph):
        worst = sparsifier.max_degree()
        if worst > delta:
            _fail(
                f"bounded-degree sparsifier has max degree {worst} > "
                f"delta={delta}"
            )
        if graph is not None:
            check_subgraph(sparsifier, graph)
        return sparsifier
    for v, marks in enumerate(sparsifier.marked_by):
        if len(marks) > delta:
            _fail(
                f"vertex {v} marked {len(marks)} edges > delta={delta} "
                "(Section 2 marking bound)"
            )
        if len(set(marks)) != len(marks):
            _fail(f"vertex {v} marked a neighbor twice: {marks}")
        if graph is not None:
            for u in marks:
                if not graph.has_edge(v, u):
                    _fail(f"vertex {v} marked non-neighbor {u}")
    if graph is not None:
        check_subgraph(sparsifier.subgraph, graph)
        budget = int(
            sum(min(delta, graph.degree(v))
                for v in range(graph.num_vertices))
        )
        if sparsifier.subgraph.num_edges > budget:
            _fail(
                f"G_delta has {sparsifier.subgraph.num_edges} edges > "
                f"marking budget {budget}"
            )
    elif sparsifier.subgraph.num_edges > sparsifier.subgraph.num_vertices * delta:
        _fail(
            f"G_delta has {sparsifier.subgraph.num_edges} edges > "
            f"n*delta = {sparsifier.subgraph.num_vertices * delta}"
        )
    return sparsifier


def check_stream_fingerprints(fingerprints) -> list:
    """Assert no two tasks drew from one RNG stream.

    ``fingerprints`` is the per-task sequence ``engine.execute`` collects
    under ``REPRO_RNG_SANITIZE=1`` — each entry an
    :class:`~repro.instrument.rng.RngFingerprint` or ``None`` (task had
    no generator).  Two entries sharing a stream id where either made a
    draw means two trials consumed one spawn-key stream: draw
    interleaving (and therefore worker count) decides the results, which
    is exactly the race Observation 2.9's independence argument and the
    engine's byte-identical promise forbid.
    """
    fingerprint_list = list(fingerprints)
    first_seen: dict[str, int] = {}
    for index, fingerprint in enumerate(fingerprint_list):
        if fingerprint is None:
            continue
        earlier = first_seen.setdefault(fingerprint.stream, index)
        if earlier != index:
            other = fingerprint_list[earlier]
            if fingerprint.draws or (other is not None and other.draws):
                _fail(
                    f"tasks {earlier} and {index} drew from one RNG stream "
                    f"{fingerprint.stream!r} ({other.draws} and "
                    f"{fingerprint.draws} draws); every task must own its "
                    "spawned child generator (see engine.fanout)"
                )
    return fingerprint_list


def check_replay_fingerprints(fingerprints, expected_streams) -> list:
    """Assert each task's surviving attempt drew from its assigned stream.

    ``fingerprints`` is the per-task sequence ``engine.execute`` collects
    under ``REPRO_RNG_SANITIZE=1``; ``expected_streams`` is the aligned
    sequence of stream ids derived from each task's
    :class:`~repro.instrument.rng.RngSpec` at submission
    (:func:`~repro.instrument.rng.spec_stream_id`), or ``None`` where no
    spec was capturable.  A mismatch means a retry (or a checkpoint
    restore) ran a task against the *wrong* stream — the failure mode
    that would silently break the engine's byte-identical-under-faults
    guarantee, which is why it is a contract and not a warning.
    """
    fingerprint_list = list(fingerprints)
    for index, (fingerprint, expected) in enumerate(
        zip(fingerprint_list, expected_streams)
    ):
        if fingerprint is None or expected is None:
            continue
        if fingerprint.stream != expected:
            _fail(
                f"task {index} drew from stream {fingerprint.stream!r} but "
                f"was assigned {expected!r}; a retry or checkpoint restore "
                "replayed the wrong RngSpec (see engine RetryPolicy)"
            )
    return fingerprint_list


def check_replay_sessions(recorded, replayed):
    """Assert a replayed service session reproduced the recorded one.

    Both arguments are :class:`repro.service.session.Session`-shaped
    objects (duck-typed to keep this module service-agnostic): the
    session that served live traffic and the one
    :func:`repro.service.journal.replay_journal` rebuilt offline.
    Checks, in order of increasing strictness:

    * same applied-update count (``seq``);
    * byte-identical output matchings (``mate`` array buffers);
    * identical state fingerprints (backend, ``seq``, matching and the
      sorted live-graph edge set — see ``Session.fingerprint``);
    * under ``REPRO_RNG_SANITIZE=1``, identical RNG stream fingerprints
      (same stream ids *and* draw counts), i.e. the replay consumed the
      same randomness, not merely reached the same answer.

    Returns ``replayed`` so it composes as a pass-through.
    """
    if recorded.seq != replayed.seq:
        _fail(
            f"replayed session applied {replayed.seq} updates but the "
            f"recorded one applied {recorded.seq}; the journal is "
            "truncated or was replayed with upto="
        )
    recorded_mate = recorded.matching.mate
    replayed_mate = replayed.matching.mate
    if recorded_mate.tobytes() != replayed_mate.tobytes():
        _fail(
            "replayed matching diverged from the recorded one "
            f"(sizes {recorded.matching.size} vs {replayed.matching.size}); "
            "the session's RNG streams or update order were not "
            "reproduced"
        )
    recorded_print = recorded.fingerprint()
    replayed_print = replayed.fingerprint()
    if recorded_print != replayed_print:
        _fail(
            f"replayed session fingerprint {replayed_print[:16]}… does not "
            f"match the recorded {recorded_print[:16]}…; the live graph "
            "diverged even though the matching agrees"
        )
    recorded_rng = recorded.rng_fingerprints()
    replayed_rng = replayed.rng_fingerprints()
    if recorded_rng != replayed_rng:
        _fail(
            f"replayed session RNG fingerprints {replayed_rng} do not "
            f"match the recorded {recorded_rng}; the replay drew from "
            "different streams or a different number of times"
        )
    return replayed


def check_work_budget(
    ops: int,
    budget_chunks: int,
    *,
    chunk: int | None = None,
    constant: float = 4.0,
    slack: int = 0,
) -> float:
    """Assert one update's counted work respects the Theorem 3.5 cap.

    ``ops`` is the operation count :class:`repro.instrument.workmeter.
    WorkMeter` accumulated for one session update; ``budget_chunks`` is
    the session's ``theorem_work_budget(beta, epsilon)`` (a number of
    rebuild *chunks*, each ``chunk`` operations — defaults to
    :data:`repro.dynamic.incremental.DEFAULT_CHUNK`).  The check is

    ``ops <= constant * budget_chunks * chunk + slack``

    where ``constant`` absorbs the bookkeeping overhead of counting
    every touched edge rather than amortized chunks, and ``slack`` is an
    additive allowance for the non-interruptible tail of a single
    rebuild step (one augmentation search may perform up to
    ``64 * delta + n`` operations between yields; sessions pass exactly
    that).  Returns the *observed* constant ``ops / (budget_chunks *
    chunk)`` so callers (the work meter, the hotspot report) can track
    how close the implementation runs to the theoretical bound.
    """
    if budget_chunks < 1:
        _fail(f"work budget must be >= 1 chunk, got {budget_chunks}")
    if chunk is None:
        from repro.dynamic.incremental import DEFAULT_CHUNK

        chunk = DEFAULT_CHUNK
    budget_ops = budget_chunks * chunk
    observed = ops / budget_ops
    cap = constant * budget_ops + slack
    if ops > cap:
        _fail(
            f"update performed {ops} counted operations > cap {cap:.0f} "
            f"(= {constant} x theorem_work_budget {budget_chunks} chunks "
            f"x {chunk} ops + slack {slack}); observed constant "
            f"{observed:.2f} — the Theorem 3.5 per-update bound does not "
            "hold for the implementation"
        )
    return observed


def check_interleaving_replay(recorded, replayed):
    """Assert a replayed interleaving trace is byte-identical to the
    recorded one.

    Both arguments are
    :class:`repro.service.sanitizer.InterleavingTrace` objects (duck-
    typed: anything with ``entries`` and a canonical ``to_json``).  The
    deterministic scheduler's guarantee is not "same answer" but "same
    *schedule*": replaying a trace must make the identical sequence of
    scheduling decisions over identically-labelled tasks.  Comparing the
    canonical JSON encodings asserts exactly that, and on divergence the
    first differing step is named so the failure is debuggable.

    Returns ``replayed`` so it composes as a pass-through.
    """
    recorded_json = recorded.to_json()
    replayed_json = replayed.to_json()
    if recorded_json == replayed_json:
        return replayed
    for index, (a, b) in enumerate(zip(recorded.entries, replayed.entries)):
        if a != b:
            _fail(
                f"interleaving replay diverged at step {index}: recorded "
                f"(choice={a.choice}, label={a.label!r}) vs replayed "
                f"(choice={b.choice}, label={b.label!r})"
            )
    _fail(
        f"interleaving replay diverged: recorded {len(recorded.entries)} "
        f"steps vs replayed {len(replayed.entries)} (or the seeds differ: "
        f"{recorded.seed!r} vs {replayed.seed!r})"
    )


__all__ = [
    "CONTRACTS_ENV",
    "ContractViolation",
    "check_interleaving_replay",
    "check_matching",
    "check_replay_fingerprints",
    "check_replay_sessions",
    "check_sparsifier_degree",
    "check_stream_fingerprints",
    "check_subgraph",
    "check_work_budget",
    "contracts_enabled",
]
