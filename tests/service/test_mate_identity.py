"""Served-behaviour oracle: the mate array after every update, pinned.

Each matcher is driven through two update streams on a union of two
cliques whose degrees exceed the matcher's Δ, so the rebuilds really
sample:

* ``oblivious`` — a shuffled prefill of every clique edge, then a
  pre-generated :class:`ObliviousAdversary` stream;
* ``adaptive`` — the same prefill, then an :class:`AdaptiveAdversary`
  that watches the output matching and deletes matched edges.

The sha256 over the mate-array bytes after every single update is
pinned below.  Refactors of the session or the matchers must leave
these digests unchanged: they are the proof that every matching a
client could have observed stayed byte-for-byte the same.

``lazy_rebuild``, the one matcher the service runs, is driven through a
:class:`Session`.  The ``oblivious`` and ``baseline`` matchers were
served until 7.1.0 and remain experiment classes (E10, E15, E17); they
are driven directly, with the generator a session handed its matcher
(child 1 of the session root), so their digests are the ones 7.1.0
served.

The ``lazy_rebuild`` and ``oblivious`` digests were re-pinned once, with
the ``repro-service-journal-v2`` format: the neighbour sampler draws
its k-subset from random keys instead of ``Generator.choice``, so a
vertex whose degree exceeds Δ samples different (equally distributed)
neighbours.  The ``baseline`` digests never draw and did not move.
"""

from hashlib import sha256

import numpy as np
import pytest

from repro.dynamic.adversaries import AdaptiveAdversary, ObliviousAdversary
from repro.dynamic.baseline import DynamicMaximalMatching
from repro.dynamic.oblivious import ObliviousDynamicMatching
from repro.graphs.generators import clique_union
from repro.service.session import Session

#: Two K_46: degree 45 exceeds the matcher's Δ = 42 at β = 1, ε = 0.9.
NUM_CLIQUES, CLIQUE_SIZE = 2, 46
NUM_VERTICES = NUM_CLIQUES * CLIQUE_SIZE
BETA, EPSILON = 1, 0.9
SESSION_SEED, STREAM_SEED = 5, 11
ADVERSARY_STEPS = 900

EXPECTED = {
    ("lazy_rebuild", "oblivious"):
        "1a8c974befa5edaf2f5e1b4b14aa33dca3c8d35ea678f4044dc541c345847753",
    ("lazy_rebuild", "adaptive"):
        "23bb38fc3d449361c8f7a8561361edf2b60ec8b8fc65bb0e44bad50e6684af30",
    ("oblivious", "oblivious"):
        "925cdbce2c1ae3bd487f503a8c88c1ea1dd17a7099b0688ec21aefdd4c22183d",
    ("oblivious", "adaptive"):
        "89d12f7d866d02174cdafe464d7af323b08513019dd558881f6f1f6c54232abc",
    ("baseline", "oblivious"):
        "ec0c374df25e4429f4eee89868843f07ec37292e9c7c772caf8165b82dc386f3",
    ("baseline", "adaptive"):
        "2560d8fa36bd8f09651af97bf403d8946a966a8e593854376ac8c03d6b312339",
}


def _universe() -> list[tuple[int, int]]:
    edges = clique_union(NUM_CLIQUES, CLIQUE_SIZE).edge_array()
    return [(int(u), int(v)) for u, v in edges]


def _session():
    """The served matcher, updated through a session's ``apply``."""
    session = Session("oracle", NUM_VERTICES, BETA, EPSILON, seed=SESSION_SEED)
    return session.apply, lambda: session.matching


def _driven(matcher):
    """A retired backend's matcher, updated directly."""
    return matcher.update, lambda: matcher.matching


def _session_matcher_rng():
    """The generator a session gives its matcher: child 1 of its root."""
    return np.random.default_rng(SESSION_SEED).spawn(2)[1]


#: Matcher name → a fresh ``(apply, matching)`` pair.
MATCHERS = {
    "lazy_rebuild": _session,
    "oblivious": lambda: _driven(ObliviousDynamicMatching(
        NUM_VERTICES, BETA, EPSILON, rng=_session_matcher_rng())),
    "baseline": lambda: _driven(DynamicMaximalMatching(NUM_VERTICES)),
}


def mate_digest(backend: str, stream: str) -> str:
    """sha256 over the mate array after each update of the stream."""
    universe = _universe()
    step, matching = MATCHERS[backend]()
    digest = sha256()
    applied = 0

    def apply(op: str, u: int, v: int) -> None:
        nonlocal applied
        step(op, u, v)
        applied += 1
        digest.update(matching().mate.tobytes())

    rng = np.random.default_rng(STREAM_SEED)
    for i in rng.permutation(len(universe)).tolist():
        apply("insert", *universe[i])
    if stream == "oblivious":
        adversary = ObliviousAdversary(universe, rng=rng)
        adversary.preload(universe)
        for update in adversary.stream(ADVERSARY_STEPS):
            apply(update.op, update.u, update.v)
    else:
        adversary = AdaptiveAdversary(universe, matching, rng=rng)
        adversary.preload(universe)
        for _ in range(ADVERSARY_STEPS):
            update = adversary.next_update()
            apply(update.op, update.u, update.v)
    assert applied == len(universe) + ADVERSARY_STEPS
    return digest.hexdigest()


def test_every_backend_is_pinned():
    assert {backend for backend, _ in EXPECTED} == set(MATCHERS)


@pytest.mark.parametrize("backend,stream", sorted(EXPECTED))
def test_mate_array_digest(backend, stream):
    assert mate_digest(backend, stream) == EXPECTED[(backend, stream)]
