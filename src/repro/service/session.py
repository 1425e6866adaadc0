"""A served graph session: the Theorem 3.5 matcher + certificate + journal.

A :class:`Session` is the unit the server multiplexes.  It owns

* a :class:`~repro.dynamic.lazy_rebuild.LazyRebuildMatching` answering
  ``query_matching`` — Theorem 3.5's adaptive-adversary-safe matcher,
  the only one the service runs since 8.0.0 (the ``oblivious`` and
  ``baseline`` backends are retired, :data:`RETIRED_BACKENDS`).  The
  matcher's ``graph`` is the session's one live graph: validation,
  ``stats``, ``snapshot`` and the fingerprint all read it;
* a :class:`~repro.dynamic.stability.StabilityTracker` restarted at
  every completed rebuild, so ``stats`` can report the approximation
  factor Lemma 3.4 *certifies* right now, not just measurements.

Theorem 3.5 draws fresh Δ-samples for every rebuild, so the session
keeps no maintained G_Δ of its own: ``snapshot`` samples one on demand
(:meth:`Session.sample_sparsifier`) from a stream that is a pure
function of the session's RngSpec and ``seq``.

Determinism: the session's root generator is resolved once from
``seed=``/``rng=``; its :class:`~repro.instrument.rng.RngSpec` is
captured before any draw and recorded in the replay journal header, and
the matcher's stream is a spawned child, so replaying the journaled
update sequence through a fresh session rebuilds the *same* stream and
therefore a byte-identical matching and fingerprint.  Under
``REPRO_RNG_SANITIZE=1`` the matcher's stream is draw-counted and the
replay contract additionally compares its fingerprint.

The per-update **work budget** is derived from the Theorem 3.5 bound
(:func:`theorem_work_budget`) and handed to the matcher as a hard
``max_chunks_per_update`` cap, making the theorem's worst-case
guarantee the service's admission-control primitive.
"""

from __future__ import annotations

import math
from dataclasses import replace
from hashlib import sha256

import numpy as np

from repro.core.delta import DeltaPolicy
from repro.core.sparsifier import SparsifierResult, build_sparsifier
from repro.dynamic.lazy_rebuild import LazyRebuildMatching
from repro.contracts import check_work_budget
from repro.dynamic.stability import StabilityTracker
from repro.instrument import workmeter
from repro.instrument.rng import (
    RngFingerprint,
    RngSpec,
    SanitizedGenerator,
    resolve_rng,
    rng_from_spec,
    rng_sanitize_enabled,
    rng_spec,
    sanitize_rng,
)
from repro.matching.matching import Matching
from repro.service.journal import ReplayJournal
from repro.service.metrics import DEFAULT_BUDGET_MS, ServiceMetrics


class UpdateError(ValueError):
    """An update the session refuses (bad endpoints, absent edge, …).

    Attributes
    ----------
    code:
        Stable protocol error code (``bad-update``).
    """

    def __init__(self, message: str) -> None:
        """Record the rejection reason."""
        super().__init__(message)
        self.code = "bad-update"


def theorem_work_budget(beta: int, epsilon: float, constant: float = 8.0) -> int:
    """Per-update work cap in rebuild chunks from the Theorem 3.5 bound.

    The theorem's worst-case update time is O(β/ε³·log(1/ε)); this
    returns ``ceil(constant · β/ε³ · ln(1/ε))`` (floored at 1 chunk so
    rebuilds always make progress).  The matcher takes it as a hard
    ``max_chunks_per_update``; quality under the cap is measured, never
    assumed (Lemma 3.4 stretches gracefully).
    """
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    bound = constant * (beta / epsilon**3) * math.log(1.0 / epsilon)
    return max(1, math.ceil(bound))


def validate_session_params(num_vertices: int, beta: int, epsilon: float) -> None:
    """Raise ``ValueError`` unless the session parameters are admissible.

    The server calls this *before* opening a replay journal, so a
    doomed ``create`` never truncates an existing journal; the
    :class:`Session` constructor calls it again as its own guard.
    """
    if num_vertices < 1:
        raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


#: Backends earlier releases served, with the last release serving each.
RETIRED_BACKENDS = {"oblivious": "7.1.0", "baseline": "7.1.0"}


class Session:
    """One named dynamic-matching session (see module docstring).

    Parameters
    ----------
    name:
        Session identifier (the journal records it).
    num_vertices:
        Fixed vertex set size.
    beta:
        Neighborhood-independence bound the update stream promises.
    epsilon:
        Target approximation slack.
    rng:
        Existing generator to adopt (replay passes one rebuilt from the
        journal's RngSpec).
    journal:
        Open :class:`~repro.service.journal.ReplayJournal` to append
        applied updates to, or ``None``.
    budget_ms:
        Per-update latency budget for the metrics layer.
    seed:
        Integer root seed (the usual client-facing form).
    """

    #: The served matcher's name: the ``backend`` field of the ``create``
    #: reply, ``stats`` and the journal header, and the fingerprint's
    #: prefix.
    backend = "lazy_rebuild"

    @classmethod
    def check_backend(cls, backend: object) -> None:
        """Raise ``ValueError`` unless ``backend`` names the served matcher.

        ``create`` requests and journal headers still carry a
        ``backend`` field; only :attr:`backend` is served.
        """
        if backend == cls.backend:
            return
        if isinstance(backend, str) and backend in RETIRED_BACKENDS:
            raise ValueError(
                f"backend {backend!r} is retired: this version serves only "
                f"{cls.backend!r}; repro {RETIRED_BACKENDS[backend]} is "
                f"the last release that serves it"
            )
        raise ValueError(
            f"unknown backend {backend!r}; this version serves only "
            f"{cls.backend!r}"
        )

    def __init__(
        self,
        name: str,
        num_vertices: int,
        beta: int,
        epsilon: float,
        rng: np.random.Generator | None = None,
        journal: ReplayJournal | None = None,
        budget_ms: float = DEFAULT_BUDGET_MS,
        *,
        seed: int | None = None,
    ) -> None:
        validate_session_params(num_vertices, beta, epsilon)
        self.name = name
        self.num_vertices = num_vertices
        self.beta = beta
        self.epsilon = epsilon
        root = resolve_rng(seed=seed, rng=rng, owner="Session")
        if rng_sanitize_enabled():
            root = sanitize_rng(root)
        #: Stream identity of the root generator, captured before any
        #: draw — what the replay journal header records.
        self.rng_spec: RngSpec = rng_spec(root)
        # The matcher takes child 1.  Child 0's key space belongs to the
        # on-demand snapshot samples (spawn key + (0, seq)), so sampling
        # never touches the matcher's stream.
        self._matcher_rng = root.spawn(2)[1]
        policy = DeltaPolicy.practical()
        self.delta = policy.delta(beta, epsilon, num_vertices)
        self.work_budget = theorem_work_budget(beta, epsilon)
        self.matcher = LazyRebuildMatching(
            num_vertices, beta, epsilon, rng=self._matcher_rng,
            max_chunks_per_update=self.work_budget,
        )
        self.journal = journal
        self.metrics = ServiceMetrics()
        self.metrics.latency.budget_ms = budget_ms
        self.seq = 0
        self._tracker: StabilityTracker | None = None
        self._tracked_rebuilds = -1
        # Work auditing (REPRO_WORK_AUDIT=1): installs the ambient op
        # meter; apply() then verifies every update against the Theorem
        # 3.5 cap via contracts.check_work_budget.
        workmeter.enable_from_env()
        if journal is not None:
            journal.write_header(self)

    # ------------------------------------------------------------------ #
    # Updates                                                            #
    # ------------------------------------------------------------------ #
    def _validate(self, op: str, u: int, v: int) -> None:
        n = self.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise UpdateError(
                f"endpoints ({u}, {v}) out of range for {n} vertices"
            )
        if u == v:
            raise UpdateError(f"self-loop ({u}, {v})")
        present = self.matcher.graph.has_edge(u, v)
        if op == "insert" and present:
            raise UpdateError(f"edge ({u}, {v}) already present")
        if op == "delete" and not present:
            raise UpdateError(f"edge ({u}, {v}) not present")

    def apply(self, op: str, u: int, v: int) -> dict:
        """Validate and apply one update to the matcher.

        Returns an applied-update record ``{"seq", "op", "work"}``;
        raises :class:`UpdateError` (nothing applied, nothing
        journaled) for invalid updates.  The journal line is written
        immediately; flushing is batched by the caller
        (:meth:`flush_journal`).  Under ``REPRO_WORK_AUDIT=1`` a work-cap
        violation raises only after the update is journaled and
        accounted, so the live session and its journal never diverge.
        """
        if op not in ("insert", "delete"):
            raise UpdateError(f"unknown update op {op!r}")
        self._validate(op, u, v)
        meter = workmeter.active()
        if meter is not None:
            meter.begin_update()
        self.matcher.update(op, u, v)
        if meter is not None:
            ops = meter.end_update()
        self.seq += 1
        if self.journal is not None:
            self.journal.record(self.seq, op, u, v)
        self._advance_certificate(op, u, v)
        work = self.matcher.work_log[-1]
        self.metrics.counters["updates"].increment()
        self.metrics.counters["inserts" if op == "insert" else "deletes"].increment()
        if meter is not None:
            # One rebuild step is non-interruptible: a single pumped
            # chunk may run an augmentation search (≤ 64·Δ ops) plus a
            # stage-boundary vertex sweep (≤ n ops) before yielding —
            # additive slack, not part of the multiplicative constant.
            meter.record_constant(check_work_budget(
                ops, self.work_budget,
                slack=64 * self.delta + self.num_vertices,
            ))
        return {"seq": self.seq, "op": op, "work": int(work)}

    def flush_journal(self) -> None:
        """Flush buffered journal lines (called once per micro-batch)."""
        if self.journal is not None:
            self.journal.flush()

    # ------------------------------------------------------------------ #
    # Stability certificate (Lemma 3.4)                                  #
    # ------------------------------------------------------------------ #
    def _advance_certificate(self, op: str, u: int, v: int) -> None:
        rebuilds = self.matcher.rebuilds_completed
        if rebuilds != self._tracked_rebuilds:
            # ``matcher.matching`` validates the swapped-in mate array as
            # an involution once, on the update that swapped it in and
            # before any read sees it; the reads then answer from the
            # array unchecked (``matching_payload``, ``stats_payload``).
            self._tracker = StabilityTracker(self.matcher.matching, self.epsilon)
            self._tracked_rebuilds = rebuilds
        elif self._tracker is not None:
            if op == "insert":
                self._tracker.on_insert(u, v)
            else:
                self._tracker.on_delete(u, v)

    def certified_factor(self) -> float | None:
        """The Lemma 3.4 factor certified since the last rebuild.

        ``None`` when the certificate is vacuous (window overrun → ∞).
        """
        if self._tracker is None:
            return None
        factor = self._tracker.guaranteed_factor()
        return None if math.isinf(factor) else factor

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #
    @property
    def matching(self) -> Matching:
        """The matcher's current output matching."""
        return self.matcher.matching

    def matching_payload(self) -> dict:
        """JSON-ready matching: ``{"size", "edges"}`` with sorted edges.

        Read straight from the served mate array
        (:meth:`~repro.dynamic.lazy_rebuild.WindowedRebuild.matched_pairs`):
        no copy, no re-validation, one pass.
        """
        edges = self.matcher.matched_pairs()
        return {"size": len(edges), "edges": edges}

    def fingerprint(self) -> str:
        """SHA-256 digest of the session's full replayable state.

        Covers the matcher name, the applied sequence number, the vertex
        count, the output matching (mate array bytes) and the sorted
        live-graph edges — two sessions agree on this hex string iff
        replay reproduced the state byte-for-byte.
        """
        return self._fingerprint(sorted(self.matcher.graph.edges()))

    def _fingerprint(self, graph_edges: list[tuple[int, int]]) -> str:
        """:meth:`fingerprint` over the already sorted live edges.

        The edges are hashed as one ``e{u},{v};…`` buffer, the same
        digest as one ``update`` per edge: SHA-256 over a stream equals
        SHA-256 over its concatenation.
        """
        digest = sha256()
        digest.update(f"{self.backend}/{self.seq}/{self.num_vertices}".encode())
        digest.update(self.matching.mate.tobytes())
        digest.update("".join(f"e{u},{v};" for u, v in graph_edges).encode())
        return digest.hexdigest()

    def rng_fingerprints(self) -> tuple[RngFingerprint, ...]:
        """Draw-count fingerprint of the matcher's stream.

        Empty unless ``REPRO_RNG_SANITIZE=1`` wrapped the stream at
        construction; the replay contract compares these to assert the
        replayed session consumed the same randomness.
        """
        if isinstance(self._matcher_rng, SanitizedGenerator):
            return (self._matcher_rng.fingerprint(),)
        return ()

    def sample_sparsifier(self) -> SparsifierResult:
        """A Δ-sample G_Δ of the live graph, drawn on demand.

        The generator is rebuilt from the session's RngSpec with spawn
        key ``+ (0, seq)``: the same ``seq`` always yields the same
        sample, and no stream the matcher or the replay contract counts
        is touched.
        """
        spec = self.rng_spec
        rng = rng_from_spec(replace(spec, spawn_key=spec.spawn_key + (0, self.seq)))
        return build_sparsifier(self.matcher.graph.snapshot(), self.delta, rng=rng)

    def snapshot_payload(self) -> dict:
        """JSON-ready ``snapshot`` response: graph + G_Δ + fingerprint."""
        sample = self.sample_sparsifier().subgraph
        graph_edges = sorted(self.matcher.graph.edges())
        return {
            "num_vertices": self.num_vertices,
            "seq": self.seq,
            "graph_edges": [[int(u), int(v)] for u, v in graph_edges],
            "sparsifier_edges": sorted(sample.edge_array().tolist()),
            "fingerprint": self._fingerprint(graph_edges),
        }

    def stats_payload(self) -> dict:
        """JSON-ready ``stats`` response (see docs/SERVICE.md)."""
        payload = {
            "session": self.name,
            "backend": self.backend,
            "num_vertices": self.num_vertices,
            "beta": self.beta,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "matcher_delta": self.matcher.delta,
            "seq": self.seq,
            "work_budget_chunks": self.work_budget,
            "max_work_per_update": self.matcher.max_work_per_update(),
            "rebuilds_completed": self.matcher.rebuilds_completed,
            "certified_factor": self.certified_factor(),
            "matching_size": self.matcher.matching_size,
            "graph_edges": self.matcher.graph.num_edges,
        }
        payload.update(self.metrics.snapshot())
        return payload

    def close(self) -> None:
        """Close the session's journal (idempotent)."""
        if self.journal is not None:
            self.journal.close()
