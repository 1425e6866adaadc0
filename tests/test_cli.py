"""Tests for the repro-experiments CLI."""

import re

import pytest

from repro.cli import main

pytestmark = pytest.mark.fast


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "e12" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "e1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_e4(self, capsys):
        assert main(["e4"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 2.2" in out

    def test_seed_flag(self, capsys):
        assert main(["e4", "--seed", "3"]) == 0
        assert "Lemma 2.2" in capsys.readouterr().out

    def test_markdown_flag(self, capsys):
        assert main(["e4", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### ")
        assert "|---" in out

    def test_output_dir(self, capsys, tmp_path):
        assert main(["e4", "--output", str(tmp_path / "results")]) == 0
        assert (tmp_path / "results" / "e4.json").exists()
        assert (tmp_path / "results" / "e4.csv").exists()


class TestServe:
    @pytest.fixture
    def started(self, monkeypatch):
        """Record the servers ``serve`` would start instead of starting them."""
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return 0

        monkeypatch.setattr("repro.service.server.run_server", record)
        monkeypatch.setattr("repro.cluster.runner.run_cluster", record)
        return calls

    def test_help_lists_five_options(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--host", "--port", "--journal-dir",
                           "--allow-shutdown", "--shards"}

    @pytest.mark.parametrize("flag", ["--max-batch", "--max-queue",
                                      "--max-inflight", "--budget-ms",
                                      "--window"])
    def test_retired_tuning_flags_are_usage_errors(self, flag, started,
                                                   capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", flag, "8"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert started == []
