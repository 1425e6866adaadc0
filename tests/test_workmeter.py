"""The work meter (``REPRO_WORK_AUDIT=1``) and the Theorem 3.5 cap check.

Unit tests cover the meter's counting/reporting machinery and the
``check_work_budget`` contract; the integration tests drive a real
session under audit and assert the two properties the subsystem
promises: every update's counted work respects the cap, and the audit
is *observation-free* — a session's replay fingerprint is byte-identical
with the meter on or off.  ``benchmarks/hotspots.py``, the ranked
report built on the meter, is driven end to end at the bottom.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.contracts import ContractViolation, check_work_budget
from repro.dynamic.incremental import DEFAULT_CHUNK
from repro.instrument import workmeter
from repro.instrument.rng import resolve_rng
from repro.service.session import Session

pytestmark = pytest.mark.fast

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _no_ambient_meter():
    """Keep the module-global meter state out of neighboring tests."""
    previous = workmeter.active()
    workmeter.disable()
    yield
    workmeter.disable()
    if previous is not None:
        workmeter.enable()


class TestWorkMeter:
    def test_count_accumulates_by_site_and_category(self):
        meter = workmeter.WorkMeter()
        meter.count("edge-touch", "A.scan")
        meter.count("edge-touch", "A.scan", 4)
        meter.count("vertex-scan", "A.scan")
        assert meter.sites[("edge-touch", "A.scan")] == 5
        assert meter.sites[("vertex-scan", "A.scan")] == 1
        assert meter.total_ops == 6

    def test_update_windows_track_the_max(self):
        meter = workmeter.WorkMeter()
        meter.begin_update()
        meter.count("edge-touch", "A.scan", 3)
        assert meter.end_update() == 3
        meter.begin_update()
        meter.count("edge-touch", "A.scan", 7)
        assert meter.end_update() == 7
        assert meter.updates == 2
        assert meter.per_update_max == 7

    def test_record_constant_keeps_the_largest(self):
        meter = workmeter.WorkMeter()
        meter.record_constant(0.25)
        meter.record_constant(0.10)
        assert meter.max_observed_constant == 0.25

    def test_report_ranks_by_count_then_site(self):
        meter = workmeter.WorkMeter()
        meter.count("edge-touch", "B.loop", 10)
        meter.count("vertex-scan", "A.scan", 10)
        meter.count("allocation", "C.build", 30)
        rows = meter.report()
        assert [row["site"] for row in rows] == ["C.build", "A.scan", "B.loop"]
        assert rows[0]["share"] == pytest.approx(0.6)
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)

    def test_report_on_empty_meter(self):
        assert workmeter.WorkMeter().report() == []

    def test_reset_clears_everything(self):
        meter = workmeter.WorkMeter()
        meter.begin_update()
        meter.count("edge-touch", "A.scan", 5)
        meter.end_update()
        meter.record_constant(1.5)
        meter.reset()
        assert meter.sites == {}
        assert meter.total_ops == 0
        assert meter.updates == 0
        assert meter.per_update_max == 0
        assert meter.max_observed_constant == 0.0


class TestGlobalMeter:
    def test_enable_disable_round_trip(self):
        assert workmeter.active() is None
        meter = workmeter.enable()
        assert workmeter.active() is meter
        assert workmeter.enable() is meter  # idempotent
        workmeter.disable()
        assert workmeter.active() is None

    def test_audit_installs_fresh_and_restores_previous(self):
        outer = workmeter.enable()
        with workmeter.audit() as meter:
            assert meter is not outer
            assert workmeter.active() is meter
        assert workmeter.active() is outer

    def test_audit_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with workmeter.audit():
                raise RuntimeError("boom")
        assert workmeter.active() is None

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), (" on ", True),
        ("0", False), ("", False), ("off", False),
    ])
    def test_env_switch_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv(workmeter.WORK_AUDIT_ENV, value)
        assert workmeter.work_audit_enabled() is expected

    def test_enable_from_env_installs_iff_asked(self, monkeypatch):
        monkeypatch.delenv(workmeter.WORK_AUDIT_ENV, raising=False)
        assert workmeter.enable_from_env() is None
        monkeypatch.setenv(workmeter.WORK_AUDIT_ENV, "1")
        meter = workmeter.enable_from_env()
        assert meter is workmeter.active() is not None


class TestCheckWorkBudget:
    def test_within_cap_returns_observed_constant(self):
        observed = check_work_budget(512, 4, chunk=256)
        assert observed == pytest.approx(0.5)

    def test_over_cap_raises_with_constant_in_message(self):
        with pytest.raises(ContractViolation) as err:
            check_work_budget(5000, 4, chunk=256, constant=1.0)
        assert "observed constant" in str(err.value)

    def test_slack_absorbs_the_non_interruptible_tail(self):
        ops = 4 * 256 + 100
        with pytest.raises(ContractViolation):
            check_work_budget(ops, 4, chunk=256, constant=1.0)
        check_work_budget(ops, 4, chunk=256, constant=1.0, slack=100)

    def test_default_chunk_is_the_incremental_default(self):
        # ops exactly at constant * budget * DEFAULT_CHUNK passes ...
        check_work_budget(4 * 2 * DEFAULT_CHUNK, 2)
        # ... one more op fails.
        with pytest.raises(ContractViolation):
            check_work_budget(4 * 2 * DEFAULT_CHUNK + 1, 2)

    def test_degenerate_budget_rejected(self):
        with pytest.raises(ContractViolation):
            check_work_budget(1, 0)


def _drive(session, steps, seed):
    """Apply a deterministic toggled insert/delete stream."""
    stream = resolve_rng(seed=seed, owner="workmeter-test")
    present = set()
    applied = 0
    while applied < steps:
        u = int(stream.integers(0, session.num_vertices))
        v = int(stream.integers(0, session.num_vertices))
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        op = "delete" if edge in present else "insert"
        session.apply(op, edge[0], edge[1])
        (present.discard if op == "delete" else present.add)(edge)
        applied += 1


class TestSessionIntegration:
    def test_audited_session_counts_and_respects_the_cap(self):
        with workmeter.audit() as meter:
            session = Session("audited", num_vertices=48, beta=2,
                              epsilon=0.25, seed=3)
            _drive(session, 120, seed=3)
        # Session.apply runs check_work_budget per update (a violation
        # would have raised); the meter saw every one of them.
        assert meter.updates == 120
        assert meter.total_ops > 0
        assert meter.per_update_max > 0
        assert 0.0 < meter.max_observed_constant < 4.0
        sites = {site for _cat, site in meter.sites}
        assert any(site.startswith("incremental_rebuild.")
                   for site in sites)

    def test_env_enabled_session_is_audited(self, monkeypatch):
        monkeypatch.setenv(workmeter.WORK_AUDIT_ENV, "1")
        session = Session("ambient", num_vertices=32, beta=2,
                          epsilon=0.25, seed=1)
        _drive(session, 30, seed=1)
        meter = workmeter.active()
        assert meter is not None
        assert meter.updates == 30

    def test_fingerprint_is_byte_identical_with_audit_on_and_off(self):
        def fingerprint(audited):
            if audited:
                with workmeter.audit():
                    session = Session("fp", num_vertices=40, beta=2,
                                      epsilon=0.25, seed=11)
                    _drive(session, 80, seed=11)
                    return session.fingerprint()
            session = Session("fp", num_vertices=40, beta=2,
                              epsilon=0.25, seed=11)
            _drive(session, 80, seed=11)
            return session.fingerprint()

        assert fingerprint(audited=True) == fingerprint(audited=False)


def _hotspots_script():
    """Import ``benchmarks/hotspots.py`` (a script, not a package)."""
    spec = importlib.util.spec_from_file_location(
        "hotspots", REPO / "benchmarks" / "hotspots.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHotspotReport:
    def test_report_writes_ranked_hotspots(self, tmp_path, capsys):
        report = tmp_path / "hotspots.json"
        assert _hotspots_script().main([str(report)]) == 0
        assert "hotspot report" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["format"] == "repro-hotspots-v1"
        assert payload["updates"] == 400
        assert payload["total_ops"] > 0
        assert payload["per_update"]["max_ops"] > 0
        assert payload["per_update"]["max_observed_constant"] < 4.0
        sites = {row["site"] for row in payload["hotspots"]}
        assert any(site.startswith("incremental_rebuild.")
                   for site in sites)
        assert any(site.startswith("DynamicGraph.") for site in sites)
        counts = [row["count"] for row in payload["hotspots"]]
        assert counts == sorted(counts, reverse=True)
        assert all(row["count"] > 0 for row in payload["hotspots"])

    def test_report_is_deterministic(self):
        script = _hotspots_script()
        assert script.hotspot_report() == script.hotspot_report()
