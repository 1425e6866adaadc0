"""Async-concurrency rules R10-R14 and ``lint --select R10,...,R14``.

Each rule gets a pass/fail fixture pair under ``fixtures/`` (asserted
line by line) plus targeted snippet tests for the semantics that keep
the rule quiet on correct code — lock discipline, re-check-after-await,
queue handoff, loop-fresh spawn arguments.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import RULES, lint_file, lint_source
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"

#: The async-concurrency rules, as ``--select`` spells them.
ASYNC = "R10,R11,R12,R13,R14"

pytestmark = pytest.mark.fast


def race_audit_main(argv):
    """``lint`` restricted to the async rules (the race audit)."""
    return lint_main(["--select", ASYNC, *argv])


def audit_main(argv):
    """``lint`` restricted to the flow rules (the RNG stream audit)."""
    return lint_main(["--select", "R6,R7,R8,R9", *argv])


def cli_main_lint(argv):
    """``lint`` reached through the ``repro-experiments`` dispatcher."""
    return cli_main(["lint", *argv])


def _codes(source, *rules, path="snippet.py"):
    selected = [RULES[c] for c in (rules or ASYNC.split(","))]
    return [v.rule for v in lint_source(source, path=path, rules=selected)]


def _fixture_lines(code, kind):
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    violations = lint_file(path, [RULES[code]])
    assert all(v.rule == code for v in violations)
    return [v.line for v in violations]


class TestFixtures:
    """The acceptance matrix: every rule has a firing and a clean file."""

    @pytest.mark.parametrize("code,lines", [
        ("R10", [20, 25, 31]),
        ("R11", [15, 16, 20]),
        ("R12", [14, 15, 16]),
        ("R13", [13, 17, 21, 25]),
        ("R14", [21, 27]),
    ])
    def test_fail_fixture_fires_on_exact_lines(self, code, lines):
        assert _fixture_lines(code, "fail") == lines

    @pytest.mark.parametrize("code", ["R10", "R11", "R12", "R13", "R14"])
    def test_pass_fixture_is_clean(self, code):
        assert _fixture_lines(code, "pass") == []


class TestR10Interleaving:
    def test_read_await_write_fires(self):
        src = (
            "import asyncio\n"
            "class S:\n"
            "    async def bump(self):\n"
            "        n = self.count\n"
            "        await asyncio.sleep(0)\n"
            "        self.count = n + 1\n"
        )
        assert _codes(src, "R10") == ["R10"]

    def test_common_lock_across_both_accesses_is_clean(self):
        src = (
            "import asyncio\n"
            "class S:\n"
            "    async def bump(self):\n"
            "        async with self._lock:\n"
            "            n = self.count\n"
            "            await asyncio.sleep(0)\n"
            "            self.count = n + 1\n"
        )
        assert _codes(src, "R10") == []

    def test_recheck_after_await_is_clean(self):
        # Re-reading the shared state after the suspension point is the
        # canonical fix; the stale pre-await read no longer feeds the
        # write.
        src = (
            "import asyncio\n"
            "class S:\n"
            "    async def bump(self):\n"
            "        n = self.count\n"
            "        await asyncio.sleep(0)\n"
            "        n = self.count\n"
            "        self.count = n + 1\n"
        )
        assert _codes(src, "R10") == []

    def test_mutate_before_await_is_clean(self):
        src = (
            "import asyncio\n"
            "class S:\n"
            "    async def drain(self):\n"
            "        item = self.pending.pop()\n"
            "        await self.apply(item)\n"
        )
        assert _codes(src, "R10") == []


class TestR11Blocking:
    def test_direct_time_sleep_fires(self):
        src = (
            "import time\n"
            "async def nap():\n"
            "    time.sleep(1)\n"
        )
        assert _codes(src, "R11") == ["R11"]

    def test_asyncio_sleep_is_clean(self):
        src = (
            "import asyncio\n"
            "async def nap():\n"
            "    await asyncio.sleep(1)\n"
        )
        assert _codes(src, "R11") == []

    def test_transitive_blocking_through_helper_fires(self):
        src = (
            "import time\n"
            "def pause():\n"
            "    time.sleep(1)\n"
            "async def nap():\n"
            "    pause()\n"
        )
        assert _codes(src, "R11") == ["R11"]

    def test_await_free_spin_loop_fires(self):
        src = (
            "async def spin(flag):\n"
            "    while True:\n"
            "        if flag.is_set():\n"
            "            return\n"
        )
        assert _codes(src, "R11") == ["R11"]


class TestR12LostTask:
    def test_bare_coroutine_call_fires(self):
        src = (
            "async def tick():\n"
            "    pass\n"
            "async def main():\n"
            "    tick()\n"
        )
        assert _codes(src, "R12") == ["R12"]

    def test_awaited_coroutine_is_clean(self):
        src = (
            "async def tick():\n"
            "    pass\n"
            "async def main():\n"
            "    await tick()\n"
        )
        assert _codes(src, "R12") == []

    def test_retained_task_handle_is_clean(self):
        src = (
            "import asyncio\n"
            "async def tick():\n"
            "    pass\n"
            "async def main(tasks):\n"
            "    tasks.append(asyncio.create_task(tick()))\n"
        )
        assert _codes(src, "R12") == []


class TestR13LockQueue:
    def test_unbounded_queue_fires(self):
        # The module check only applies to modules with async code in
        # them — an unbounded queue in a sync-only helper file is some
        # other program's problem.
        src = (
            "import asyncio\n"
            "def build():\n"
            "    return asyncio.Queue()\n"
            "async def drain(q):\n"
            "    await q.get()\n"
        )
        assert _codes(src, "R13") == ["R13"]

    def test_bounded_queue_is_clean(self):
        src = (
            "import asyncio\n"
            "def build(n):\n"
            "    return asyncio.Queue(maxsize=n)\n"
            "async def drain(q):\n"
            "    await q.get()\n"
        )
        assert _codes(src, "R13") == []

    def test_sync_only_module_is_out_of_scope(self):
        src = (
            "import asyncio\n"
            "def build():\n"
            "    return asyncio.Queue()\n"
        )
        assert _codes(src, "R13") == []

    def test_sync_lock_held_across_await_fires(self):
        src = (
            "import asyncio\n"
            "class S:\n"
            "    async def work(self):\n"
            "        with self._lock:\n"
            "            await asyncio.sleep(0)\n"
        )
        assert _codes(src, "R13") == ["R13"]


class TestR14Aliasing:
    def test_same_object_into_two_tasks_fires(self):
        src = (
            "import asyncio\n"
            "async def worker(state):\n"
            "    state['hits'] = state.get('hits', 0) + 1\n"
            "async def main(state):\n"
            "    await asyncio.gather(worker(state), worker(state))\n"
        )
        assert _codes(src, "R14") == ["R14"]

    def test_queue_fanout_is_exempt(self):
        src = (
            "import asyncio\n"
            "async def worker(q):\n"
            "    await q.get()\n"
            "async def main():\n"
            "    jobs = asyncio.Queue(maxsize=8)\n"
            "    await asyncio.gather(worker(jobs), worker(jobs))\n"
        )
        assert _codes(src, "R14") == []

    def test_loop_fresh_payload_is_clean(self):
        src = (
            "import asyncio\n"
            "async def handle(item):\n"
            "    pass\n"
            "async def main(items, tasks):\n"
            "    for item in items:\n"
            "        tasks.append(asyncio.create_task(handle(item)))\n"
        )
        assert _codes(src, "R14") == []


class TestRaceAuditCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(
            "import asyncio\nasync def main():\n    await asyncio.sleep(0)\n"
        )
        assert race_audit_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violating_file_exits_one(self, capsys):
        assert race_audit_main([str(FIXTURES / "r10_fail.py")]) == 1
        assert "R10" in capsys.readouterr().out

    def test_runs_only_async_rules(self, tmp_path):
        # A file violating syntactic rule R1 is out of the audit's scope.
        (tmp_path / "r1.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert race_audit_main([str(tmp_path)]) == 0
        assert lint_main([str(tmp_path)]) == 1

    def test_explain_lists_exactly_the_async_rules(self, capsys):
        assert race_audit_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for code in ASYNC.split(","):
            assert code in out
        assert "R1 " not in out and "R6 " not in out

    def test_select_subsets_rules(self):
        target = str(FIXTURES / "r11_fail.py")
        assert race_audit_main(["--select", "R10", target]) == 0
        assert race_audit_main(["--select", "R11", target]) == 1

    def test_json_format(self, capsys):
        assert race_audit_main(
            ["--format", "json", str(FIXTURES / "r14_fail.py")]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert {v["rule"] for v in payload["violations"]} == {"R14"}

    def test_dispatch_through_repro_experiments(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli_main(["lint", "--select", ASYNC, str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_shipped_service_tree_is_clean(self, capsys):
        # The acceptance gate: the service the repo ships audits clean.
        repo_root = Path(__file__).resolve().parents[2]
        assert race_audit_main([str(repo_root / "src" / "repro")]) == 0


class TestSelectValidation:
    """Every lint front-end rejects degenerate selections, also when
    they follow a family selection (the last ``--select`` wins)."""

    ENTRIES = [lint_main, audit_main, race_audit_main, cli_main_lint]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_empty_select_is_usage_error(self, entry, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert entry(["--select", ",,", str(tmp_path)]) == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_unknown_code_is_usage_error(self, entry, tmp_path, capsys):
        assert entry(["--select", "R99", str(tmp_path)]) == 2
        assert "unknown rule codes" in capsys.readouterr().err
