"""Runner/CLI behavior: pragmas, discovery skips, formats, exit codes."""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import RULES, discover_files, lint_paths, lint_source
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"

VIOLATING = "import numpy as np\nx = np.random.rand(3)\n"


@pytest.mark.fast
class TestPragmas:
    def test_rule_specific_ignore_suppresses(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro-lint: ignore[R1]\n"
        assert lint_source(src, rules=[RULES["R1"]]) == []

    def test_bare_ignore_suppresses_all(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro-lint: ignore\n"
        assert lint_source(src) == []

    def test_other_rule_pragma_does_not_suppress(self):
        src = "import numpy as np\nx = np.random.rand(3)  # repro-lint: ignore[R2]\n"
        assert len(lint_source(src, rules=[RULES["R1"]])) == 1

    def test_pragma_on_other_line_does_not_suppress(self):
        src = "# repro-lint: ignore[R1]\nimport numpy as np\nx = np.random.rand(3)\n"
        assert len(lint_source(src, rules=[RULES["R1"]])) == 1


@pytest.mark.fast
class TestSkipFilePragma:
    def test_bare_skip_file_suppresses_everything(self):
        src = "# repro-lint: skip-file\n" + VIOLATING
        assert lint_source(src) == []

    def test_bracketed_skip_file_suppresses_named_rule(self):
        src = "# repro-lint: skip-file[R1]\n" + VIOLATING
        assert lint_source(src, rules=[RULES["R1"]]) == []

    def test_other_rule_skip_does_not_suppress(self):
        src = "# repro-lint: skip-file[R2]\n" + VIOLATING
        assert len(lint_source(src, rules=[RULES["R1"]])) == 1

    def test_skip_file_works_from_any_line(self):
        src = VIOLATING + "# repro-lint: skip-file[R1]\n"
        assert lint_source(src, rules=[RULES["R1"]]) == []

    def test_multiple_skip_lists_union(self):
        src = ("# repro-lint: skip-file[R1]\n"
               "# repro-lint: skip-file[R2]\n"
               "import datetime\n"
               + VIOLATING)
        assert lint_source(src, rules=[RULES["R1"], RULES["R2"]]) == []


@pytest.mark.fast
class TestGithubFormat:
    def violation(self, message, path="src/mod.py", rule="R1"):
        from repro.lint import Violation

        return Violation(path=path, line=3, col=4, rule=rule, message=message)

    def render(self, *violations):
        from repro.lint import format_github

        return format_github(list(violations))

    def test_basic_annotation_shape(self):
        out = self.render(self.violation("plain message"))
        assert out.splitlines()[0] == (
            "::error file=src/mod.py,line=3,col=5,title=R1::plain message"
        )

    def test_newlines_in_message_are_escaped(self):
        # A raw newline would truncate the annotation at the first line.
        out = self.render(self.violation("first\nsecond\rthird"))
        line = out.splitlines()[0]
        assert "first%0Asecond%0Dthird" in line
        assert len(out.splitlines()) == 2  # annotation + summary

    def test_percent_is_escaped_first(self):
        out = self.render(self.violation("50% done\n"))
        assert "50%25 done%0A" in out.splitlines()[0]

    def test_double_colon_in_message_survives(self):
        # `::` inside the data portion must not start a new command.
        out = self.render(self.violation("dict::value mismatch"))
        assert out.splitlines()[0].endswith("::dict::value mismatch")

    def test_property_escapes_colon_and_comma(self):
        out = self.render(
            self.violation("msg", path="weird,name::x.py")
        )
        assert "file=weird%2Cname%3A%3Ax.py," in out.splitlines()[0]


@pytest.mark.fast
class TestDiscovery:
    def test_fixture_directories_are_skipped(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "fixtures").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "fixtures" / "bad.py").write_text(VIOLATING)
        found = discover_files([tmp_path])
        assert [p.name for p in found] == ["ok.py"]

    def test_explicit_file_path_always_linted(self):
        violations = lint_paths([FIXTURES / "r1_fail.py"], rules=[RULES["R1"]])
        assert violations

    def test_tree_lint_skips_this_suites_fixtures(self):
        assert lint_paths([Path(__file__).parent]) == []

    def test_non_python_target_rejected(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        with pytest.raises(FileNotFoundError):
            discover_files([target])


@pytest.mark.fast
class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_text(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(VIOLATING)
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R1" in out and "bad.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(VIOLATING)
        assert lint_main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["violations"][0]["rule"] == "R1"

    def test_select_filters_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(VIOLATING)
        assert lint_main(["--select", "R2", str(bad)]) == 0
        assert lint_main(["--select", "R1", str(bad)]) == 1

    def test_unknown_rule_code_is_usage_error(self, tmp_path, capsys):
        # R15, the retired scalar-loop rule, is as unknown as a typo.
        for code in ("R99", "R15"):
            assert lint_main(["--select", code, str(tmp_path)]) == 2
            assert "unknown rule codes" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--baseline", "--write-baseline"])
    def test_retired_baseline_options_are_usage_errors(
        self, option, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([option, str(tmp_path / "x.json"), str(tmp_path)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_repeated_code_reports_each_finding_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(VIOLATING)
        assert lint_main(["--format", "json", "--select", "R1", str(bad)]) == 1
        once = json.loads(capsys.readouterr().out)["count"]
        assert lint_main(
            ["--format", "json", "--select", "R1,r1, R1", str(bad)]
        ) == 1
        assert json.loads(capsys.readouterr().out)["count"] == once

    def test_missing_target_is_usage_error(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.txt")]) == 2

    def test_syntax_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert lint_main([str(bad)]) == 2

    def test_explain_lists_all_rules(self, capsys):
        assert lint_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_dispatch_through_repro_experiments(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out


@pytest.mark.fast
class TestDedupOverlappingTargets:
    """Overlapping path arguments do not double-report."""

    def test_nested_directory_overlap_reports_once(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(VIOLATING)
        assert lint_main(["--format", "json", str(tmp_path), str(pkg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_relative_and_absolute_spellings_dedupe(
        self, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "bad.py"
        bad.write_text(VIOLATING)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--format", "json", "bad.py", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_discover_files_keeps_first_spelling(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        found = discover_files([tmp_path, tmp_path])
        assert len(found) == 1


@pytest.mark.fast
def test_repository_tree_is_clean():
    """The enforced gate: src and tests lint clean (fixtures excepted).

    Mirrors the default ``lint`` CLI: every rule.
    """
    repo_root = Path(__file__).resolve().parents[2]
    assert lint_paths([repo_root / "src", repo_root / "tests"]) == []
