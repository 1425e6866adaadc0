"""Deterministic randomness plumbing.

All randomized components (the sparsifier, the distributed protocols, the
adversaries) accept a :class:`numpy.random.Generator`.  These helpers
derive independent child generators from a root seed so that

* experiments are reproducible given one integer seed, and
* per-vertex random choices are genuinely independent, which the proof of
  Theorem 2.1 relies on (Observation 2.9).

Three layers live here:

* **Resolution** — :func:`resolve_rng` (the uniform ``seed=``/``rng=``
  pair) and :func:`spawn_rngs` (independent children via numpy's
  spawn-key mechanism).
* **Process-boundary specs** — :class:`RngSpec` /
  :func:`rng_spec` / :func:`rng_from_spec` capture a generator's
  *identity* (bit-generator class, entropy, spawn key) as a tiny
  picklable record, so engine task payloads ship the spec and rebuild
  the identical stream inside the worker instead of pickling a live
  generator (lint rule R8).
* **Sanitizer** — :class:`SanitizedGenerator` /
  :func:`sanitize_rng`, enabled by ``REPRO_RNG_SANITIZE=1``: a
  :class:`~numpy.random.Generator` subclass that stamps every stream
  with a stable id and counts draws, yielding
  :class:`RngFingerprint` records the engine uses to detect two tasks
  drawing from one stream and to assert ``workers=1`` / ``workers=N``
  equivalence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: ``Generator`` methods that consume the underlying bit stream.  Kept in
#: sync with ``repro.lint.flow.DRAW_METHODS`` (the static analyzer's
#: consumption set); a unit test asserts the two agree.
DRAW_METHODS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
    "integers", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_hypergeometric", "multivariate_normal",
    "negative_binomial", "noncentral_chisquare", "noncentral_f", "normal",
    "pareto", "permutation", "permuted", "poisson", "power", "random",
    "rayleigh", "shuffle", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_normal", "standard_t", "triangular",
    "uniform", "vonmises", "wald", "weibull", "zipf",
})


def rng_sanitize_enabled() -> bool:
    """Whether ``REPRO_RNG_SANITIZE=1`` turned the runtime sanitizer on."""
    return os.environ.get("REPRO_RNG_SANITIZE", "") == "1"


def resolve_rng(
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    *,
    owner: str = "this function",
) -> np.random.Generator:
    """Resolve the uniform ``seed=`` / ``rng=`` keyword pair to a generator.

    The public surface accepts both keywords on every randomized entry
    point: ``seed`` is an integer (or ``None`` for fresh OS entropy) and
    ``rng`` is an existing :class:`numpy.random.Generator` to thread
    through a pipeline.  Passing both is an error, and so is passing a
    value through the wrong keyword (an integer via ``rng=`` or a
    generator via ``seed=``): each raises :class:`TypeError` naming the
    right keyword.

    Parameters
    ----------
    seed:
        Integer root seed, or ``None``.
    rng:
        Existing generator (returned unchanged), or ``None``.
    owner:
        Name of the calling API, used in error messages.
    """
    if seed is not None and rng is not None:
        raise ValueError(f"{owner}: pass either seed= or rng=, not both")
    if rng is not None:
        if not isinstance(rng, np.random.Generator):
            raise TypeError(
                f"{owner}: rng= takes a numpy.random.Generator, got "
                f"{type(rng).__name__}; pass an integer seed via seed="
            )
        return rng
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            f"{owner}: seed= takes an integer, got a Generator; thread "
            "a Generator via rng="
        )
    return np.random.default_rng(seed)


# Generator-transformer primitive: it forks children from an *existing*
# generator, so a seed= twin would be ambiguous (resolve first, then spawn).
def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:  # repro-lint: ignore[R4]
    """Derive ``count`` statistically independent child generators.

    Uses :meth:`numpy.random.Generator.spawn`, which is the supported way
    to fork independent streams from one generator.  When ``rng`` is a
    :class:`SanitizedGenerator`, the children are sanitized too (numpy's
    ``spawn`` constructs ``type(self)``).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return rng.spawn(count)


def _seed_seq_of(rng: np.random.Generator) -> np.random.SeedSequence:
    """The generator's :class:`~numpy.random.SeedSequence`, or raise.

    Every generator this package creates (``default_rng``, ``spawn``,
    :func:`rng_from_spec`) carries one; a generator built from a raw
    bit-generator state does not, and cannot be given a stable identity.
    """
    seed_seq = rng.bit_generator.seed_seq
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise ValueError(
            "generator has no SeedSequence (built from raw bit-generator "
            "state?); create generators via resolve_rng/spawn_rngs so "
            "they carry a spawn-key identity"
        )
    return seed_seq


# Identity primitive over an existing generator (like spawn_rngs): a
# seed= twin would be ambiguous.
def stream_id(rng: np.random.Generator) -> str:  # repro-lint: ignore[R4]
    """Stable identity of the generator's stream: ``entropy/spawn.key``.

    Two generators share a stream id exactly when they were created from
    the same entropy and spawn key — i.e. they *are* the same stream,
    wherever each copy lives.  The id survives pickling and process
    boundaries, which is what lets the engine detect two tasks drawing
    from one stream even across workers.
    """
    seed_seq = _seed_seq_of(rng)
    entropy = seed_seq.entropy
    key = ".".join(str(k) for k in seed_seq.spawn_key) or "root"
    return f"{entropy:x}/{key}"


@dataclass(frozen=True, order=True)
class RngSpec:
    """Picklable identity of a generator stream (not its position).

    Ship this across a process boundary instead of a live generator:
    :func:`rng_from_spec` rebuilds the *identical* stream from it
    (same bit-generator class, same entropy, same spawn key), drawing
    the same values in the same order.  Capture the spec before any
    draws — it records where the stream starts, not how far a
    particular copy has advanced.
    """

    bit_generator: str
    entropy: int
    spawn_key: tuple[int, ...]


def rng_spec(rng: np.random.Generator) -> RngSpec:  # repro-lint: ignore[R4]
    """Capture a generator's stream identity as a :class:`RngSpec`."""
    seed_seq = _seed_seq_of(rng)
    return RngSpec(
        bit_generator=type(rng.bit_generator).__name__,
        entropy=seed_seq.entropy,
        spawn_key=tuple(seed_seq.spawn_key),
    )


def spec_stream_id(spec: RngSpec) -> str:
    """The :func:`stream_id` a generator rebuilt from ``spec`` will carry.

    Lets the engine know, *before* running anything, which stream a
    task's successful attempt must have drawn from — the expectation the
    retry-replay contract checks against.
    """
    key = ".".join(str(k) for k in spec.spawn_key) or "root"
    return f"{spec.entropy:x}/{key}"


def rng_from_spec(spec: RngSpec) -> np.random.Generator:
    """Rebuild the stream a :class:`RngSpec` describes, from the start.

    Under ``REPRO_RNG_SANITIZE=1`` the rebuilt generator is a
    :class:`SanitizedGenerator`, so worker-side draws are fingerprinted
    like everything else.
    """
    bit_cls = getattr(np.random, spec.bit_generator)
    seed_seq = np.random.SeedSequence(
        entropy=spec.entropy, spawn_key=spec.spawn_key
    )
    bit_gen = bit_cls(seed_seq)
    if rng_sanitize_enabled():
        return SanitizedGenerator(bit_gen)
    return np.random.Generator(bit_gen)


@dataclass(frozen=True, order=True)
class RngFingerprint:
    """What one generator did: which stream, and how many draws.

    Produced by :meth:`SanitizedGenerator.fingerprint` and collected per
    task by ``engine.execute``.  Two fingerprints with one ``stream``
    mean two tasks shared a generator — the race the sanitizer exists to
    catch; the full per-task sequence is what the ``workers=1`` vs
    ``workers=N`` equivalence test compares.
    """

    stream: str
    draws: int


class SanitizedGenerator(np.random.Generator):
    """A :class:`numpy.random.Generator` that knows who it is.

    Behaves identically to the wrapped bit generator's stream — every
    draw method delegates to numpy after bumping a counter — and adds a
    stable :func:`stream_id` plus a draw count, exposed as
    :meth:`fingerprint`.  ``spawn`` returns sanitized children (numpy
    constructs ``type(self)``), and pickling preserves both the class
    and the counter, so fingerprints taken inside pool workers are
    faithful.

    Enable globally with ``REPRO_RNG_SANITIZE=1`` (the engine wraps task
    generators via :func:`sanitize_rng`); wrapping changes no drawn
    value, only bookkeeping.
    """

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        """Wrap one bit generator; the draw counter starts at zero."""
        super().__init__(bit_generator)
        self._draws = 0

    @property
    def draws(self) -> int:
        """Number of stream-consuming calls made through this object."""
        return self._draws

    @property
    def stream(self) -> str:
        """This generator's stable stream id (see :func:`stream_id`)."""
        return stream_id(self)

    def fingerprint(self) -> RngFingerprint:
        """Snapshot (stream id, draw count) as a picklable record."""
        return RngFingerprint(stream=self.stream, draws=self._draws)

    def __reduce__(self):
        """Pickle as (class, bit generator, counter) — numpy's default
        reduce would come back as a plain ``Generator``."""
        return (_rebuild_sanitized, (self.bit_generator, self._draws))


def _rebuild_sanitized(
    bit_generator: np.random.BitGenerator, draws: int
) -> SanitizedGenerator:
    """Unpickle helper for :class:`SanitizedGenerator`."""
    out = SanitizedGenerator(bit_generator)
    out._draws = draws
    return out


def _counting_method(name: str):
    """Build the draw-counting override for one ``Generator`` method."""
    base = getattr(np.random.Generator, name)

    def _method(self, *args, **kwargs):
        self._draws += 1
        return base(self, *args, **kwargs)

    _method.__name__ = name
    _method.__qualname__ = f"SanitizedGenerator.{name}"
    _method.__doc__ = base.__doc__
    return _method


for _name in sorted(DRAW_METHODS):
    setattr(SanitizedGenerator, _name, _counting_method(_name))
del _name


def sanitize_rng(rng: np.random.Generator) -> SanitizedGenerator:  # repro-lint: ignore[R4]
    """Wrap a generator in a :class:`SanitizedGenerator`, sharing state.

    The wrapper adopts the same bit generator object, so the stream
    continues exactly where the original left off; an already-sanitized
    generator passes through unchanged.
    """
    if isinstance(rng, SanitizedGenerator):
        return rng
    return SanitizedGenerator(rng.bit_generator)
