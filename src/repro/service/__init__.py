"""repro.service — a dynamic-matching server around Theorem 3.5.

The paper's headline systems result — a fully dynamic (1+ε)-MCM with
*worst-case* update time O(β/ε³·log(1/ε)) that survives an adaptive
adversary — is exactly the guarantee a live service needs.  This package
is that service: an asyncio JSON-lines TCP server hosting named graph
**sessions**, each owning a Theorem 3.5 matcher whose live graph is the
session's only copy of the graph.

Layers (bottom-up):

* :mod:`repro.service.protocol` — the JSON-lines wire format
  (``repro-service-v1``): request validation, response envelopes,
  error codes.
* :mod:`repro.service.metrics` — per-session latency recorder
  (p50/p95/p99 against a configured budget) and operation counters.
* :mod:`repro.service.session` — :class:`Session`: the Theorem 3.5
  matcher (``lazy_rebuild``) owning the live graph, a Lemma 3.4
  stability certificate, an on-demand G_Δ sample for ``snapshot``, and
  a deterministic state fingerprint.
* :mod:`repro.service.journal` — the per-session deterministic replay
  journal (``repro-service-journal-v2``): RngSpec-captured streams +
  applied-update log, replayable offline to a byte-identical matching.
* :mod:`repro.service.batching` — micro-batching with bounded queues
  and backpressure (rejected-over-budget accounting).
* :mod:`repro.service.server` — the asyncio TCP server and the
  in-thread :class:`BackgroundServer` used by tests and benchmarks.
* :mod:`repro.service.client` — the blocking client.
* :mod:`repro.service.loadgen` — deterministic oblivious/adaptive
  load generation driven through the client.

CLI: ``repro-experiments serve`` starts a server,
``repro-experiments replay <journal>`` re-derives a session offline.
See ``docs/SERVICE.md`` for the protocol schema and semantics.
"""

from repro._lazy import attach

#: Public names and their defining modules, each imported on first
#: access (:mod:`repro._lazy`).
_EXPORTS = {
    "BackgroundServer": "repro.service.transport",
    "JOURNAL_FORMAT": "repro.service.journal",
    "JournalError": "repro.service.journal",
    "MatchingService": "repro.service.server",
    "PROTOCOL": "repro.service.protocol",
    "ProtocolError": "repro.service.protocol",
    "ReplayJournal": "repro.service.journal",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "Session": "repro.service.session",
    "UpdateError": "repro.service.session",
    "read_journal": "repro.service.journal",
    "replay_journal": "repro.service.journal",
    "run_server": "repro.service.server",
    "theorem_work_budget": "repro.service.session",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
