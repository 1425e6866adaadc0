"""Instrumentation: counters, deterministic RNG plumbing, and timers.

Every quantitative claim in the paper is either a *count* (probes,
messages, rounds, work units) or a *ratio* (approximation factors).  This
package provides the shared counting and randomness infrastructure so that
experiments are reproducible bit-for-bit given a seed.

Randomized entry points resolve the uniform ``seed=``/``rng=`` pair
with :func:`~repro.instrument.rng.resolve_rng`.
"""

from repro.instrument.counters import Counter, CounterSet
from repro.instrument.rng import (
    RngFingerprint,
    RngSpec,
    SanitizedGenerator,
    resolve_rng,
    rng_from_spec,
    rng_sanitize_enabled,
    rng_spec,
    sanitize_rng,
    spawn_rngs,
    stream_id,
)
from repro.instrument.timers import Timer
from repro.instrument.workmeter import (
    WorkMeter,
    work_audit_enabled,
)

__all__ = [
    "Counter",
    "CounterSet",
    "RngFingerprint",
    "RngSpec",
    "SanitizedGenerator",
    "Timer",
    "WorkMeter",
    "resolve_rng",
    "rng_from_spec",
    "rng_sanitize_enabled",
    "rng_spec",
    "sanitize_rng",
    "spawn_rngs",
    "stream_id",
    "work_audit_enabled",
]
