"""Performance rule R15, ``lint --select R15``, baselines, and the
hotspot report (``benchmarks/hotspots.py``).

R15 gets a pass/fail fixture pair under ``fixtures/`` (asserted line by
line) plus targeted snippet tests for the semantics that keep the rule
quiet on correct code — loops without array work, store-only bodies,
the vectorized-prune idiom.  The CLI and baseline tests drive the perf
selection end to end on R15 inputs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import RULES, lint_file, lint_source
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

#: The performance rules, as ``--select`` spells them.
PERF = "R15"

pytestmark = pytest.mark.fast

#: One R15 finding: a scalar loop over ``edges()`` doing numpy work.
SCALAR_LOOP = (
    "import numpy as np\n"
    "def walk(graph):\n"
    "    for u, v in graph.edges():\n"
    "        np.add(u, v)\n"
)


def perf_audit_main(argv):
    """``lint`` restricted to the perf rule (the perf audit)."""
    return lint_main(["--select", PERF, *argv])


def _codes(source, *rules, path="snippet.py"):
    selected = [RULES[c] for c in (rules or PERF.split(","))]
    return [v.rule for v in lint_source(source, path=path, rules=selected)]


def _fixture_lines(code, kind):
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    violations = lint_file(path, [RULES[code]])
    assert all(v.rule == code for v in violations)
    return [v.line for v in violations]


class TestFixtures:
    """The acceptance matrix: the rule has a firing and a clean file."""

    @pytest.mark.parametrize("code,lines", [
        ("R15", [7, 15, 24]),
    ])
    def test_fail_fixture_fires_on_exact_lines(self, code, lines):
        assert _fixture_lines(code, "fail") == lines

    @pytest.mark.parametrize("code", ["R15"])
    def test_pass_fixture_is_clean(self, code):
        assert _fixture_lines(code, "pass") == []


class TestR15ScalarLoop:
    def test_loop_over_edges_with_numpy_body_fires(self):
        assert _codes(SCALAR_LOOP, "R15") == ["R15"]

    def test_loop_without_array_work_is_clean(self):
        src = (
            "def walk(graph, out):\n"
            "    for u, v in graph.edges():\n"
            "        out.append((u, v))\n"
        )
        assert _codes(src, "R15") == []

    def test_range_over_vertex_count_with_subscript_read_fires(self):
        src = (
            "import numpy as np\n"
            "def scan(graph, mate: np.ndarray):\n"
            "    n = graph.num_vertices\n"
            "    for u in range(n):\n"
            "        if mate[u] >= 0:\n"
            "            pass\n"
        )
        assert _codes(src, "R15") == ["R15"]

    def test_subscript_store_only_body_is_clean(self):
        # Writes into the array are how a scalar fixup loop ends; only
        # per-element *reads*/calls mark the loop as vectorizable work.
        src = (
            "import numpy as np\n"
            "def clear(items, mate: np.ndarray):\n"
            "    for u in items:\n"
            "        mate[u] = -1\n"
        )
        assert _codes(src, "R15") == []

    def test_zip_of_tolist_is_clean(self):
        # The vectorized-prune idiom: select candidates with flatnonzero,
        # then iterate plain python lists — the loop iterable is a zip,
        # not the substrate.
        src = (
            "import numpy as np\n"
            "def prune(graph, mate: np.ndarray):\n"
            "    lower = np.flatnonzero(mate >= 0)\n"
            "    partners = mate[lower]\n"
            "    for v, u in zip(lower.tolist(), partners.tolist()):\n"
            "        graph.drop(v, u)\n"
        )
        assert _codes(src, "R15") == []

    def test_loop_over_flatnonzero_with_int_conversion_fires(self):
        src = (
            "import numpy as np\n"
            "def collect(mate: np.ndarray):\n"
            "    for v in np.flatnonzero(mate >= 0):\n"
            "        yield int(mate[v])\n"
        )
        assert _codes(src, "R15") == ["R15"]

    def test_pragma_on_loop_line_suppresses(self):
        src = SCALAR_LOOP.replace(
            "graph.edges():", "graph.edges():  # repro-lint: ignore[R15]"
        )
        assert _codes(src, "R15") == []


class TestPerfRulesAreOptIn:
    def test_default_lint_skips_perf_rules(self, tmp_path):
        loop = tmp_path / "loop.py"
        loop.write_text(SCALAR_LOOP)
        assert lint_main([str(loop)]) == 0
        assert perf_audit_main([str(loop)]) == 1

    def test_select_reaches_perf_rules_from_lint(self, tmp_path):
        loop = tmp_path / "loop.py"
        loop.write_text(SCALAR_LOOP)
        assert lint_main(["--select", "R15", str(loop)]) == 1

    def test_lint_explain_still_lists_perf_rules(self, capsys):
        assert lint_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in PERF.split(","):
            assert code in out


class TestPerfAuditCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert perf_audit_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violating_file_exits_one(self, capsys):
        assert perf_audit_main([str(FIXTURES / "r15_fail.py")]) == 1
        assert "R15" in capsys.readouterr().out

    def test_runs_only_perf_rules(self, tmp_path):
        # A file violating syntactic rule R1 is out of the audit's scope.
        (tmp_path / "r1.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert perf_audit_main([str(tmp_path)]) == 0
        assert lint_main([str(tmp_path)]) == 1

    def test_explain_lists_exactly_the_perf_rules(self, capsys):
        assert perf_audit_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in PERF.split(","):
            assert code in out
        assert "R1 " not in out and "R10 " not in out

    def test_json_format(self, capsys):
        assert perf_audit_main(
            ["--format", "json", str(FIXTURES / "r15_fail.py")]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3
        assert {v["rule"] for v in payload["violations"]} == {"R15"}

    def test_dispatch_through_repro_experiments(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli_main(["lint", "--select", PERF, str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_shipped_dynamic_and_service_trees_are_clean(self):
        # The acceptance gate: the hot paths the repo ships audit clean
        # (the scalar prune loops there are vectorized).
        repo_root = Path(__file__).resolve().parents[2]
        assert perf_audit_main([
            str(repo_root / "src" / "repro" / "dynamic"),
            str(repo_root / "src" / "repro" / "service"),
        ]) == 0


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


class TestBaseline:
    """The --baseline / --write-baseline ratchet."""

    def _violating_tree(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(SCALAR_LOOP)
        return bad

    def test_write_then_suppress_round_trip(self, tmp_path, capsys):
        bad = self._violating_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert perf_audit_main(
            ["--write-baseline", str(baseline), str(bad)]
        ) == 0
        assert "1 finding" in capsys.readouterr().out
        assert perf_audit_main(
            ["--baseline", str(baseline), str(bad)]
        ) == 0
        captured = capsys.readouterr()
        assert "suppressed 1 known finding" in captured.err

    def test_new_finding_still_fails_under_baseline(self, tmp_path):
        bad = self._violating_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert perf_audit_main(
            ["--write-baseline", str(baseline), str(bad)]
        ) == 0
        # A loop over a *different substrate* has a new message key; the
        # same loop again would share the (path, rule, message) identity
        # and stay suppressed by design.
        bad.write_text(SCALAR_LOOP + (
            "def fan(graph, u):\n"
            "    for w in graph.neighbors(u):\n"
            "        np.add(u, w)\n"
        ))
        assert perf_audit_main(
            ["--baseline", str(baseline), str(bad)]
        ) == 1

    def test_baseline_survives_line_shifts(self, tmp_path):
        bad = self._violating_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert perf_audit_main(
            ["--write-baseline", str(baseline), str(bad)]
        ) == 0
        bad.write_text("# a comment pushing everything down\n"
                       + bad.read_text())
        assert perf_audit_main(
            ["--baseline", str(baseline), str(bad)]
        ) == 0

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        bad = self._violating_tree(tmp_path)
        assert perf_audit_main(
            ["--baseline", str(tmp_path / "nope.json"), str(bad)]
        ) == 2

    def test_non_baseline_file_is_usage_error(self, tmp_path, capsys):
        bad = self._violating_tree(tmp_path)
        rogue = tmp_path / "rogue.json"
        rogue.write_text("{\"findings\": []}\n")
        assert perf_audit_main(
            ["--baseline", str(rogue), str(bad)]
        ) == 2
        assert "format" in capsys.readouterr().err

    def test_write_baseline_is_byte_stable(self, tmp_path):
        bad = self._violating_tree(tmp_path)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for baseline in (first, second):
            assert perf_audit_main(
                ["--write-baseline", str(baseline), str(bad)]
            ) == 0
        assert first.read_text() == second.read_text()

    @pytest.mark.parametrize("entry_args", [
        ["lint"],
        ["lint", "--select", "R6,R7,R8,R9"],
        ["lint", "--select", "R10,R11,R12,R13,R14"],
        ["lint", "--select", PERF],
    ])
    def test_every_audit_cli_accepts_baseline_options(
        self, entry_args, tmp_path, capsys
    ):
        (tmp_path / "ok.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        assert cli_main(
            entry_args + ["--write-baseline", str(baseline), str(tmp_path)]
        ) == 0
        assert cli_main(
            entry_args + ["--baseline", str(baseline), str(tmp_path)]
        ) == 0
        capsys.readouterr()


class TestDedupOverlappingTargets:
    """Satellite: overlapping path arguments do not double-report."""

    def test_nested_directory_overlap_reports_once(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert lint_main(["--format", "json", str(tmp_path), str(pkg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_relative_and_absolute_spellings_dedupe(
        self, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--format", "json", "bad.py", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_discover_files_keeps_first_spelling(self, tmp_path):
        from repro.lint import discover_files

        (tmp_path / "ok.py").write_text("x = 1\n")
        found = discover_files([tmp_path, tmp_path])
        assert len(found) == 1
