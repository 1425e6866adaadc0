"""Tests for counters, RNG plumbing, and timers."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.instrument.counters import Counter, CounterSet
from repro.instrument.rng import (
    DRAW_METHODS,
    RngFingerprint,
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

pytestmark = pytest.mark.fast


class TestCounter:
    def test_increment_add(self):
        c = Counter("x")
        c.increment()
        c.add(4)
        assert c.value == 5

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_reset(self):
        c = Counter("x")
        c.add(3)
        c.reset()
        assert c.value == 0

    def test_merge_counter(self):
        a = Counter("probes")
        a.add(3)
        b = Counter("probes")
        b.add(4)
        assert a.merge(b).value == 7

    def test_merge_int(self):
        c = Counter("probes")
        c.add(1)
        c.merge(9)
        assert c.value == 10

    def test_merge_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").merge(-1)


class TestCounterSet:
    def test_lazy_creation(self):
        cs = CounterSet()
        cs["messages"].add(2)
        assert cs.value("messages") == 2
        assert cs.value("never-touched") == 0

    def test_snapshot_and_reset(self):
        cs = CounterSet()
        cs["a"].add(1)
        cs["b"].add(2)
        assert cs.snapshot() == {"a": 1, "b": 2}
        cs.reset()
        assert cs.snapshot() == {"a": 0, "b": 0}

    def test_merge_counterset(self):
        parent = CounterSet()
        parent["rounds"].add(2)
        child = CounterSet()
        child["rounds"].add(3)
        child["messages"].add(5)
        assert parent.merge(child) is parent
        assert parent.snapshot() == {"rounds": 5, "messages": 5}

    def test_merge_mapping(self):
        cs = CounterSet()
        cs.merge({"probes": 4})
        cs.merge({"probes": 6, "bits": 1})
        assert cs.snapshot() == {"probes": 10, "bits": 1}

    def test_merge_is_lossless_and_order_independent_in_totals(self):
        parts = []
        for i in range(4):
            part = CounterSet()
            part["work"].add(i + 1)
            parts.append(part)
        forward = CounterSet()
        for p in parts:
            forward.merge(p)
        backward = CounterSet()
        for p in reversed(parts):
            backward.merge(p)
        assert forward.snapshot() == backward.snapshot() == {"work": 10}


class TestRng:
    def test_spawn(self):
        children = spawn_rngs(resolve_rng(seed=1), 3)
        assert len(children) == 3
        draws = sorted(int(c.integers(10**9)) for c in children)
        assert len(set(draws)) == 3  # independent streams

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_rngs(resolve_rng(seed=1), -1)


class TestResolveRng:
    def test_seed_keyword(self):
        a = resolve_rng(seed=5)
        b = np.random.default_rng(5)
        assert a.integers(1000) == b.integers(1000)

    def test_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert resolve_rng(rng=gen) is gen

    def test_neither_gives_fresh_generator(self):
        assert isinstance(resolve_rng(), np.random.Generator)

    def test_both_rejected(self):
        with pytest.raises(ValueError):
            resolve_rng(seed=0, rng=np.random.default_rng(0))

    def test_int_via_rng_raises(self):
        with pytest.raises(TypeError, match="via seed="):
            resolve_rng(rng=7)

    def test_generator_via_seed_raises(self):
        with pytest.raises(TypeError, match="via rng="):
            resolve_rng(seed=np.random.default_rng(3))

    def test_legacy_shapes_rejected_by_public_api(self):
        from repro.core.sparsifier import build_sparsifier
        from repro.graphs.generators import clique

        g = clique(12)
        with pytest.raises(TypeError, match="via seed="):
            build_sparsifier(g, 3, rng=0)
        with pytest.raises(TypeError, match="via rng="):
            build_sparsifier(g, 3, seed=np.random.default_rng(0))


class TestStreamIdentity:
    def test_root_and_child_ids(self):
        root = np.random.default_rng(7)
        assert stream_id(root) == "7/root"
        child = root.spawn(1)[0]
        assert stream_id(child) == "7/0"

    def test_spec_round_trip_is_byte_identical(self):
        original = np.random.default_rng(42).spawn(3)[2]
        rebuilt = rng_from_spec(rng_spec(original))
        assert stream_id(rebuilt) == stream_id(original)
        assert list(original.integers(10**9, size=8)) == list(
            rebuilt.integers(10**9, size=8)
        )

    def test_spec_is_picklable_and_ordered(self):
        spec = rng_spec(np.random.default_rng(3))
        assert pickle.loads(pickle.dumps(spec)) == spec
        other = rng_spec(np.random.default_rng(4))
        assert sorted([other, spec]) == sorted([spec, other])

    def test_raw_bit_generator_state_is_rejected(self):
        bare = SimpleNamespace(bit_generator=SimpleNamespace(seed_seq=None))
        with pytest.raises(ValueError, match="SeedSequence"):
            stream_id(bare)


class TestSanitizedGenerator:
    def test_draws_match_plain_generator(self):
        plain = np.random.default_rng(11)
        wrapped = sanitize_rng(np.random.default_rng(11))
        assert list(plain.integers(100, size=5)) == list(
            wrapped.integers(100, size=5)
        )
        assert plain.normal() == wrapped.normal()

    def test_draw_counter(self):
        gen = sanitize_rng(np.random.default_rng(0))
        assert gen.draws == 0
        gen.integers(10)
        gen.normal(size=4)  # one call, one count, regardless of size
        assert gen.draws == 2
        assert gen.fingerprint() == RngFingerprint(stream="0/root", draws=2)

    def test_sanitize_is_idempotent(self):
        gen = sanitize_rng(np.random.default_rng(0))
        assert sanitize_rng(gen) is gen

    def test_sanitize_continues_the_stream(self):
        plain = np.random.default_rng(9)
        reference = np.random.default_rng(9)
        reference.integers(100, size=3)
        plain.integers(100, size=3)
        wrapped = sanitize_rng(plain)
        assert wrapped.integers(10**9) == reference.integers(10**9)

    def test_spawn_returns_sanitized_children(self):
        children = spawn_rngs(sanitize_rng(np.random.default_rng(5)), 2)
        assert all(isinstance(c, SanitizedGenerator) for c in children)
        assert [c.stream for c in children] == ["5/0", "5/1"]

    def test_pickle_preserves_class_and_counter(self):
        gen = sanitize_rng(np.random.default_rng(8))
        gen.integers(100, size=2)
        clone = pickle.loads(pickle.dumps(gen))
        assert isinstance(clone, SanitizedGenerator)
        assert clone.draws == 1
        assert clone.integers(10**9) == gen.integers(10**9)

    def test_rng_from_spec_sanitizes_when_enabled(self, monkeypatch):
        spec = rng_spec(np.random.default_rng(2))
        monkeypatch.delenv("REPRO_RNG_SANITIZE", raising=False)
        assert not isinstance(rng_from_spec(spec), SanitizedGenerator)
        monkeypatch.setenv("REPRO_RNG_SANITIZE", "1")
        assert rng_sanitize_enabled()
        assert isinstance(rng_from_spec(spec), SanitizedGenerator)


def test_draw_methods_agree_with_static_analyzer():
    from repro.lint.flow import DRAW_METHODS as ANALYZER_DRAW_METHODS

    assert DRAW_METHODS == ANALYZER_DRAW_METHODS


def test_draw_methods_exist_on_numpy_generator():
    for name in DRAW_METHODS:
        assert callable(getattr(np.random.Generator, name))


def test_timer():
    with Timer() as t:
        sum(range(100))
    assert t.elapsed >= 0.0
