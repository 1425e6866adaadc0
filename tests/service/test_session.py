"""Tests for the served Session: construction, validation, determinism."""

import pytest

from repro.contracts import check_sparsifier_degree
from repro.service.session import Session, UpdateError, theorem_work_budget

pytestmark = pytest.mark.fast

PATH_UPDATES = [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 3),
                ("delete", 1, 2), ("insert", 4, 5)]


def make_session(seed=0, **kwargs):
    kwargs.setdefault("num_vertices", 8)
    kwargs.setdefault("beta", 1)
    kwargs.setdefault("epsilon", 0.4)
    return Session("t", seed=seed, **kwargs)


def dense_session(size=30):
    """A K_size session: degrees exceed Δ, so G_Δ samples are proper."""
    session = make_session(num_vertices=size)
    assert session.delta < size - 1
    for u in range(size):
        for v in range(u + 1, size):
            session.apply("insert", u, v)
    return session


class TestWorkBudget:
    def test_matches_theorem_shape(self):
        import math

        beta, eps = 2, 0.25
        expected = math.ceil(8.0 * beta / eps**3 * math.log(1 / eps))
        assert theorem_work_budget(beta, eps) == expected

    def test_monotone_in_beta(self):
        assert theorem_work_budget(4, 0.3) >= theorem_work_budget(1, 0.3)

    def test_floors_at_one(self):
        # Huge epsilon → tiny bound, still at least one chunk of progress.
        assert theorem_work_budget(1, 0.99) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem_work_budget(0, 0.4)
        with pytest.raises(ValueError):
            theorem_work_budget(1, 0.0)
        with pytest.raises(ValueError):
            theorem_work_budget(1, 1.0)


class TestConstruction:
    def test_unknown_backend(self):
        Session.check_backend("lazy_rebuild")
        for backend in ("quantum", None, ["lazy_rebuild"]):
            with pytest.raises(ValueError, match="unknown backend"):
                Session.check_backend(backend)

    def test_bad_num_vertices(self):
        with pytest.raises(ValueError):
            make_session(num_vertices=0)

    def test_all_backends_construct_and_update(self):
        # One backend is served since 8.0.0.
        session = make_session()
        assert session.backend == "lazy_rebuild"
        for op, u, v in PATH_UPDATES:
            session.apply(op, u, v)
        assert session.seq == len(PATH_UPDATES)
        assert session.matching.size >= 1

    def test_rng_spec_captured(self):
        session = make_session(seed=42)
        assert session.rng_spec.entropy == 42
        assert session.work_budget == theorem_work_budget(1, 0.4)
        assert session.delta >= 1


class TestValidation:
    def test_out_of_range(self):
        with pytest.raises(UpdateError, match="out of range"):
            make_session().apply("insert", 0, 99)

    def test_self_loop(self):
        with pytest.raises(UpdateError, match="self-loop"):
            make_session().apply("insert", 3, 3)

    def test_duplicate_insert(self):
        session = make_session()
        session.apply("insert", 0, 1)
        with pytest.raises(UpdateError, match="already present"):
            session.apply("insert", 0, 1)

    def test_delete_missing(self):
        with pytest.raises(UpdateError, match="not present"):
            make_session().apply("delete", 0, 1)

    def test_unknown_op(self):
        with pytest.raises(UpdateError, match="unknown update op"):
            make_session().apply("upsert", 0, 1)

    def test_rejected_update_changes_nothing(self):
        session = make_session()
        session.apply("insert", 0, 1)
        before = session.fingerprint()
        with pytest.raises(UpdateError):
            session.apply("insert", 0, 1)
        assert session.seq == 1
        assert session.fingerprint() == before

    def test_error_code_is_stable(self):
        with pytest.raises(UpdateError) as excinfo:
            make_session().apply("insert", 1, 1)
        assert excinfo.value.code == "bad-update"


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        prints = set()
        for _ in range(2):
            session = make_session(seed=7)
            for op, u, v in PATH_UPDATES:
                session.apply(op, u, v)
            prints.add(session.fingerprint())
        assert len(prints) == 1

    def test_fingerprint_tracks_state(self):
        session = make_session(seed=7)
        empty = session.fingerprint()
        session.apply("insert", 0, 1)
        assert session.fingerprint() != empty

    def test_rng_fingerprints_empty_without_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_RNG_SANITIZE", raising=False)
        assert make_session().rng_fingerprints() == ()

    def test_rng_fingerprints_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_RNG_SANITIZE", "1")
        session = make_session()
        prints = session.rng_fingerprints()
        assert len(prints) == 1  # the backend's stream only
        assert prints[0].stream.endswith("/1")

    def test_session_holds_one_graph(self):
        session = make_session()
        session.apply("insert", 0, 1)
        assert not hasattr(session, "sparsifier")
        assert session.matcher.graph.has_edge(0, 1)


class TestPayloads:
    def test_matching_payload_sorted(self):
        session = make_session()
        for op, u, v in PATH_UPDATES:
            session.apply(op, u, v)
        payload = session.matching_payload()
        assert payload["size"] == len(payload["edges"])
        assert payload["edges"] == sorted(payload["edges"])

    def test_snapshot_payload(self):
        session = make_session()
        session.apply("insert", 0, 1)
        snap = session.snapshot_payload()
        assert snap["num_vertices"] == 8
        assert snap["seq"] == 1
        assert [0, 1] in snap["graph_edges"]
        assert set(map(tuple, snap["sparsifier_edges"])) <= set(
            map(tuple, snap["graph_edges"])
        )
        assert snap["fingerprint"] == session.fingerprint()

    def test_snapshot_sample_is_a_function_of_seq(self):
        session = dense_session()
        first = session.snapshot_payload()
        again = session.snapshot_payload()
        assert first["sparsifier_edges"] == again["sparsifier_edges"]
        assert first["sparsifier_edges"] != first["graph_edges"]
        session.apply("delete", 0, 1)
        later = session.snapshot_payload()
        assert later["seq"] == first["seq"] + 1
        assert set(map(tuple, later["sparsifier_edges"])) <= set(
            map(tuple, later["graph_edges"])
        )

    def test_snapshot_sample_obeys_the_marking_law(self):
        session = dense_session()
        sample = session.sample_sparsifier()
        check_sparsifier_degree(sample, session.delta,
                                graph=session.matcher.graph.snapshot())

    @pytest.mark.parametrize("sanitize", ["0", "1"])
    def test_snapshot_changes_no_fingerprint(self, monkeypatch, sanitize):
        monkeypatch.setenv("REPRO_RNG_SANITIZE", sanitize)
        session = dense_session()
        before = (session.fingerprint(), session.rng_fingerprints())
        snap = session.snapshot_payload()
        assert snap["fingerprint"] == before[0]
        assert (session.fingerprint(), session.rng_fingerprints()) == before
        assert len(before[1]) == (1 if sanitize == "1" else 0)

    def test_stats_payload(self):
        session = make_session()
        for op, u, v in PATH_UPDATES:
            session.apply(op, u, v)
        stats = session.stats_payload()
        assert stats["seq"] == len(PATH_UPDATES)
        assert stats["counters"]["updates"] == len(PATH_UPDATES)
        assert stats["counters"]["inserts"] == 4
        assert stats["counters"]["deletes"] == 1
        assert stats["work_budget_chunks"] == session.work_budget
        assert stats["matching_size"] == session.matching.size
        factor = stats["certified_factor"]
        assert factor is None or factor >= 1.0

    def test_stats_reports_matcher_delta(self):
        # Session Δ(β, ε) and the matcher's Δ(β, ε/4) side by side.
        session = Session("d", 128, beta=1, epsilon=0.8, seed=7)
        stats = session.stats_payload()
        assert stats["backend"] == "lazy_rebuild"
        assert (stats["delta"], stats["matcher_delta"]) == (9, 48)
        assert stats["matcher_delta"] == session.matcher.delta
