"""Tests for the deterministic load generator (and its CLI)."""

import json

import pytest

from repro.contracts import check_replay_sessions
from repro.service.client import ServiceClient
from repro.service.journal import replay_journal
from repro.service.loadgen import main as loadgen_main
from repro.service.loadgen import run_load
from repro.service.server import BackgroundServer

pytestmark = pytest.mark.fast


class TestRunLoad:
    def test_unknown_adversary(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            run_load(None, "s", adversary="byzantine")

    def test_oblivious_burst_report(self, tmp_path):
        with BackgroundServer(journal_dir=tmp_path) as srv:
            with ServiceClient(srv.host, srv.port) as cli:
                report = run_load(cli, "burst", adversary="oblivious",
                                  steps=80, seed=3)
        assert report["applied"] == 80
        assert report["errors"] == 0
        assert report["size"] == len(report["matching"])
        assert report["stats"]["seq"] == 80
        assert report["stats"]["latency"]["count"] == 80
        assert report["universe"]["num_vertices"] == 64
        assert report["backend"] == report["stats"]["backend"] == "lazy_rebuild"

    def test_adaptive_is_deterministic_and_adaptive(self, tmp_path):
        # Same seed, two fresh sessions: the full adaptivity loop
        # (observe matching -> attack) must reproduce byte-for-byte.
        reports = []
        for name in ("a", "b"):
            with BackgroundServer(journal_dir=tmp_path / name) as srv:
                with ServiceClient(srv.host, srv.port) as cli:
                    reports.append(run_load(
                        cli, name, adversary="adaptive", steps=150, seed=11
                    ))
        first, second = reports
        assert first["attacks"] > 0  # the adversary really attacked
        assert first["fingerprint"] == second["fingerprint"]
        assert first["matching"] == second["matching"]
        assert first["attacks"] == second["attacks"]

    @pytest.mark.parametrize("adversary, batch_size", [
        ("oblivious", 1), ("oblivious", 32), ("adaptive", 16),
    ])
    def test_journal_replays_to_live_state(self, tmp_path, adversary,
                                           batch_size):
        with BackgroundServer(journal_dir=tmp_path) as srv:
            with ServiceClient(srv.host, srv.port) as cli:
                report = run_load(cli, "replayed", adversary=adversary,
                                  steps=600, batch_size=batch_size, seed=0)
                live = srv.service.sessions["replayed"]
                replayed = replay_journal(tmp_path / "replayed.jsonl")
                check_replay_sessions(live, replayed)
        assert replayed.fingerprint() == report["fingerprint"]
        assert replayed.matching_payload()["edges"] == report["matching"]
        latency = report["stats"]["latency"]
        assert latency["p99_ms"] <= latency["budget_ms"]


class TestCli:
    def test_cli_writes_report_and_shuts_down(self, tmp_path):
        out = tmp_path / "report.json"
        with BackgroundServer(journal_dir=tmp_path / "journals") as srv:
            code = loadgen_main([
                "--port", str(srv.port), "--host", srv.host,
                "--session", "cli", "--adversary", "oblivious",
                "--steps", "40", "--seed", "2", "--out", str(out),
                "--shutdown",
            ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["applied"] == 40
        assert report["session"] == "cli"
        # --shutdown implies the session was closed (journal flushed).
        journal = tmp_path / "journals" / "cli.jsonl"
        assert len(journal.read_text().splitlines()) == 41

    def test_cli_prints_to_stdout(self, capsys, tmp_path):
        with BackgroundServer() as srv:
            code = loadgen_main([
                "--port", str(srv.port), "--steps", "10", "--seed", "1",
            ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["applied"] == 10

    def test_backend_flag_is_a_usage_error(self, capsys):
        # The service runs one matcher since 8.0.0; parsing fails before
        # any connection is opened.
        with pytest.raises(SystemExit) as excinfo:
            loadgen_main(["--port", "1", "--backend", "oblivious"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
