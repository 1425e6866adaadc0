"""Interprocedural flow rules R6-R9: tracking behaviors, cross-module
summaries, pragma suppression, and ``lint --select R6,R7,R8,R9``."""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import RULES, lint_paths, lint_source
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"

#: The flow rules, as ``--select`` spells them.
FLOW = "R6,R7,R8,R9"


def audit_main(argv):
    """``lint`` restricted to the flow rules (the RNG stream audit)."""
    return lint_main(["--select", FLOW, *argv])

#: A deliberately racy module: one generator threaded into two sibling
#: trial tasks (the stream race the audit exists to catch).
RACY = """\
import numpy as np

from repro.engine import TrialTask


def submit(fn):
    rng = np.random.default_rng(0)
    return [TrialTask(fn=fn, rng=rng), TrialTask(fn=fn, rng=rng)]
"""

CLEAN = """\
from repro.instrument.rng import resolve_rng


def draw(seed=None, rng=None):
    gen = resolve_rng(seed=seed, rng=rng)
    return int(gen.integers(10))
"""


def _codes(source, *rules, path="snippet.py"):
    selected = [RULES[c] for c in rules] if rules else None
    return [v.rule for v in lint_source(source, path=path, rules=selected)]


@pytest.mark.fast
class TestR6StreamReuse:
    def test_consume_after_spawn_fires(self):
        src = (
            "import numpy as np\n"
            "from repro.instrument.rng import spawn_rngs\n"
            "def f():\n"
            "    rng = np.random.default_rng(0)\n"
            "    kids = spawn_rngs(rng, 2)\n"
            "    return rng.integers(5), kids\n"
        )
        assert _codes(src, "R6") == ["R6"]

    def test_consume_before_spawn_is_clean(self):
        src = (
            "import numpy as np\n"
            "from repro.instrument.rng import spawn_rngs\n"
            "def f():\n"
            "    rng = np.random.default_rng(0)\n"
            "    burn = rng.integers(5)\n"
            "    return burn, spawn_rngs(rng, 2)\n"
        )
        assert _codes(src, "R6") == []

    def test_spawn_method_is_tracked_like_spawn_rngs(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    rng = np.random.default_rng(0)\n"
            "    kids = rng.spawn(2)\n"
            "    return rng.integers(5), kids\n"
        )
        assert _codes(src, "R6") == ["R6"]

    def test_alias_through_resolve_rng_shares_the_stream(self):
        src = (
            "from repro.instrument.rng import resolve_rng, spawn_rngs\n"
            "def f(rng):\n"
            "    gen = resolve_rng(rng=rng)\n"
            "    kids = spawn_rngs(gen, 2)\n"
            "    return rng.integers(5), kids\n"
        )
        assert _codes(src, "R6") == ["R6"]

    def test_task_rng_also_consumed_locally_fires(self):
        src = (
            "import numpy as np\n"
            "from repro.engine import TrialTask\n"
            "def f(fn):\n"
            "    rng = np.random.default_rng(0)\n"
            "    task = TrialTask(fn=fn, rng=rng)\n"
            "    return task, rng.integers(5)\n"
        )
        assert _codes(src, "R6") == ["R6"]

    def test_sibling_tasks_with_distinct_children_are_clean(self):
        src = (
            "import numpy as np\n"
            "from repro.engine import TrialTask\n"
            "from repro.instrument.rng import spawn_rngs\n"
            "def f(fn):\n"
            "    kids = spawn_rngs(np.random.default_rng(0), 2)\n"
            "    return [TrialTask(fn=fn, rng=kids[0]),\n"
            "            TrialTask(fn=fn, rng=kids[1])]\n"
        )
        assert _codes(src, "R6") == []


@pytest.mark.fast
class TestR7GeneratorEscape:
    def test_module_level_generator_fires(self):
        src = "import numpy as np\nRNG = np.random.default_rng(0)\n"
        assert _codes(src, "R7") == ["R7"]

    def test_function_local_generator_is_clean(self):
        src = (
            "import numpy as np\n"
            "def f():\n"
            "    rng = np.random.default_rng(0)\n"
            "    return int(rng.integers(5))\n"
        )
        assert _codes(src, "R7") == []

    def test_escaping_closure_fires(self):
        src = (
            "import numpy as np\n"
            "def make():\n"
            "    rng = np.random.default_rng(0)\n"
            "    def sample():\n"
            "        return rng.integers(5)\n"
            "    return sample\n"
        )
        assert _codes(src, "R7") == ["R7"]


@pytest.mark.fast
class TestR8BoundaryCrossing:
    def test_generator_in_kwargs_fires(self):
        src = (
            "import numpy as np\n"
            "from repro.engine import TrialTask\n"
            "def f(fn):\n"
            "    rng = np.random.default_rng(0)\n"
            '    return TrialTask(fn=fn, kwargs={"gen": rng})\n'
        )
        assert _codes(src, "R8") == ["R8"]

    def test_spawn_list_element_in_payload_fires(self):
        src = (
            "import numpy as np\n"
            "from repro.engine import TrialTask\n"
            "from repro.instrument.rng import spawn_rngs\n"
            "def f(fn):\n"
            "    kids = spawn_rngs(np.random.default_rng(0), 2)\n"
            '    return TrialTask(fn=fn, kwargs={"gen": kids[0]})\n'
        )
        assert _codes(src, "R8") == ["R8"]

    def test_rng_spec_call_in_payload_is_sanctioned(self):
        # The call runs before pickling; only its (picklable) result
        # crosses the boundary, so rng_spec(child) must not be flagged.
        src = (
            "import numpy as np\n"
            "from repro.engine import TrialTask\n"
            "from repro.instrument.rng import rng_spec, spawn_rngs\n"
            "def f(fn):\n"
            "    kids = spawn_rngs(np.random.default_rng(0), 2)\n"
            '    return TrialTask(fn=fn, kwargs={"spec": rng_spec(kids[0])},\n'
            "                     rng=kids[1])\n"
        )
        assert _codes(src, "R8") == []


@pytest.mark.fast
class TestR9DrawOrderHazard:
    def test_draw_inside_set_loop_fires(self):
        src = (
            "def f(vertices, rng):\n"
            "    return {v: rng.integers(2) for v in set(vertices)}\n"
        )
        assert _codes(src, "R9") == ["R9"]

    def test_sorted_iteration_is_clean(self):
        src = (
            "def f(vertices, rng):\n"
            "    return {v: rng.integers(2) for v in sorted(set(vertices))}\n"
        )
        assert _codes(src, "R9") == []

    def test_per_element_child_stream_is_exempt(self):
        src = (
            "from repro.instrument.rng import resolve_rng, spawn_rngs\n"
            "def f(count, seed=None, rng=None):\n"
            "    kids = spawn_rngs(resolve_rng(seed=seed, rng=rng), count)\n"
            "    return {i: kids[i].integers(2) for i in set(range(count))}\n"
        )
        assert _codes(src, "R9") == []


@pytest.mark.fast
class TestCrossModule:
    def _write_pair(self, tmp_path):
        (tmp_path / "helpers.py").write_text(
            "import numpy as np\n"
            "def make_gen():\n"
            "    return np.random.default_rng(0)\n"
        )
        (tmp_path / "use.py").write_text(
            "from helpers import make_gen\n"
            "from repro.instrument.rng import spawn_rngs\n"
            "def bad():\n"
            "    rng = make_gen()\n"
            "    kids = spawn_rngs(rng, 2)\n"
            "    return rng.integers(5), kids\n"
        )

    def test_imported_factory_is_summarized(self, tmp_path):
        self._write_pair(tmp_path)
        violations = lint_paths([tmp_path], rules=[RULES["R6"]])
        assert [v.rule for v in violations] == ["R6"]
        assert violations[0].path.endswith("use.py")

    def test_single_file_view_cannot_see_the_factory(self, tmp_path):
        self._write_pair(tmp_path)
        source = (tmp_path / "use.py").read_text()
        assert lint_source(source, rules=[RULES["R6"]]) == []


@pytest.mark.fast
class TestFlowPragmas:
    def test_rule_specific_ignore_suppresses(self):
        src = (
            "import numpy as np\n"
            "RNG = np.random.default_rng(0)  # repro-lint: ignore[R7]\n"
        )
        assert _codes(src, "R7") == []

    def test_bare_ignore_suppresses(self):
        src = (
            "import numpy as np\n"
            "RNG = np.random.default_rng(0)  # repro-lint: ignore\n"
        )
        assert _codes(src) == []


@pytest.mark.fast
class TestAuditCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert audit_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_stream_race_reported_in_text(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(RACY)
        assert audit_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R6" in out and "racy.py" in out

    def test_stream_race_reported_in_json(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(RACY)
        assert audit_main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1
        assert {v["rule"] for v in payload["violations"]} == {"R6"}

    def test_audit_ignores_syntactic_rules(self, tmp_path):
        # np.random.rand is an R1 finding; the audit runs R6-R9 only.
        (tmp_path / "legacy.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert audit_main([str(tmp_path)]) == 0

    def test_explain_lists_exactly_the_flow_rules(self, capsys):
        assert audit_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in FLOW.split(","):
            assert code in out
        assert "R1" not in out

    def test_dispatch_through_repro_experiments(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(RACY)
        assert cli_main(["lint", "--select", FLOW, str(bad)]) == 1
        assert "R6" in capsys.readouterr().out


@pytest.mark.fast
class TestGithubFormat:
    def test_lint_emits_error_annotations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert lint_main(["--format", "github", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"::error file={bad}" in out
        assert "title=R1" in out

    def test_audit_emits_error_annotations(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(RACY)
        assert audit_main(["--format", "github", str(bad)]) == 1
        assert "title=R6" in capsys.readouterr().out

    def test_clean_run_emits_no_annotations(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert lint_main(["--format", "github", str(tmp_path)]) == 0
        assert "::error" not in capsys.readouterr().out
