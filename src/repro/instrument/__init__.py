"""Instrumentation: counters, deterministic RNG plumbing, and timers.

Every quantitative claim in the paper is either a *count* (probes,
messages, rounds, work units) or a *ratio* (approximation factors).  This
package provides the shared counting and randomness infrastructure so that
experiments are reproducible bit-for-bit given a seed.

Randomized entry points resolve the uniform ``seed=``/``rng=`` pair
with :func:`~repro.instrument.rng.resolve_rng`.
"""

from repro._lazy import attach

#: Public names and their defining modules, each imported on first
#: access (:mod:`repro._lazy`).
_EXPORTS = {
    "Counter": "repro.instrument.counters",
    "CounterSet": "repro.instrument.counters",
    "RngFingerprint": "repro.instrument.rng",
    "RngSpec": "repro.instrument.rng",
    "SanitizedGenerator": "repro.instrument.rng",
    "Timer": "repro.instrument.timers",
    "WorkMeter": "repro.instrument.workmeter",
    "resolve_rng": "repro.instrument.rng",
    "rng_from_spec": "repro.instrument.rng",
    "rng_sanitize_enabled": "repro.instrument.rng",
    "rng_spec": "repro.instrument.rng",
    "sanitize_rng": "repro.instrument.rng",
    "spawn_rngs": "repro.instrument.rng",
    "stream_id": "repro.instrument.rng",
    "work_audit_enabled": "repro.instrument.workmeter",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
