"""Findings oracle: every rule's exact findings on every fixture.

Pins the sorted ``(line, col, code)`` findings of all fourteen rules
over each of the files in ``tests/lint/fixtures`` (passed explicitly,
since directory discovery skips ``fixtures/``), so a refactor of the
analyzer's plumbing cannot move, add or drop a finding unnoticed.  Two
views are pinned:

* the fixtures as they are, linted together as one program;
* each fixture on its own under a path inside ``repro/experiments/``,
  where R4 (package scope) and R5's set-iteration half (table scope)
  also apply.
"""

from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths, lint_source

pytestmark = pytest.mark.fast

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture -> findings when all fixtures are linted together as they are.
AS_IS = {
    "r10_fail.py": [(20, 12, "R10"), (25, 8, "R10"), (31, 4, "R10")],
    "r10_pass.py": [],
    "r11_fail.py": [(15, 4, "R11"), (16, 11, "R11"), (20, 4, "R11")],
    "r11_pass.py": [],
    "r12_fail.py": [(14, 4, "R12"), (15, 4, "R12"), (16, 4, "R12")],
    "r12_pass.py": [],
    "r13_fail.py": [
        (13, 21, "R13"), (17, 8, "R13"), (21, 8, "R13"), (25, 8, "R13"),
    ],
    "r13_pass.py": [],
    "r14_fail.py": [(21, 10, "R14"), (27, 21, "R14")],
    "r14_pass.py": [],
    "r1_fail.py": [(4, 0, "R1"), (9, 11, "R1"), (14, 11, "R1")],
    "r1_pass.py": [],
    "r2_fail.py": [(5, 0, "R2"), (10, 11, "R2"), (15, 11, "R2")],
    "r2_pass.py": [],
    "r3_fail.py": [(11, 30, "R3"), (12, 24, "R3")],
    "r3_pass.py": [],
    "r4_fail.py": [],
    "r4_pass.py": [],
    "r5_fail.py": [(8, 27, "R5")],
    "r5_pass.py": [],
    "r6_fail.py": [(11, 11, "R6"), (17, 34, "R6")],
    "r6_pass.py": [],
    "r7_fail.py": [(5, 0, "R7"), (11, 4, "R7"), (16, 4, "R7")],
    "r7_pass.py": [],
    "r8_fail.py": [(8, 50, "R8"), (9, 37, "R8")],
    "r8_pass.py": [],
    "r9_fail.py": [(8, 19, "R9")],
    "r9_pass.py": [],
}

#: fixture -> findings when linted alone as ``repro/experiments/<name>``.
IN_PACKAGE = {
    "r10_fail.py": [(20, 12, "R10"), (25, 8, "R10"), (31, 4, "R10")],
    "r10_pass.py": [],
    "r11_fail.py": [(15, 4, "R11"), (16, 11, "R11"), (20, 4, "R11")],
    "r11_pass.py": [],
    "r12_fail.py": [(14, 4, "R12"), (15, 4, "R12"), (16, 4, "R12")],
    "r12_pass.py": [],
    "r13_fail.py": [
        (13, 21, "R13"), (17, 8, "R13"), (21, 8, "R13"), (25, 8, "R13"),
    ],
    "r13_pass.py": [],
    "r14_fail.py": [(21, 10, "R14"), (27, 21, "R14")],
    "r14_pass.py": [],
    "r1_fail.py": [(4, 0, "R1"), (9, 11, "R1"), (14, 11, "R1")],
    "r1_pass.py": [],
    "r2_fail.py": [(5, 0, "R2"), (10, 11, "R2"), (15, 11, "R2")],
    "r2_pass.py": [],
    "r3_fail.py": [(6, 0, "R4"), (11, 30, "R3"), (12, 24, "R3")],
    "r3_pass.py": [(6, 0, "R4"), (11, 0, "R4")],
    "r4_fail.py": [(10, 0, "R4"), (18, 4, "R4")],
    "r4_pass.py": [],
    "r5_fail.py": [(8, 27, "R5"), (17, 16, "R5")],
    "r5_pass.py": [],
    "r6_fail.py": [(11, 11, "R6"), (14, 0, "R4"), (17, 34, "R6")],
    "r6_pass.py": [],
    "r7_fail.py": [(5, 0, "R7"), (11, 4, "R7"), (14, 0, "R4"), (16, 4, "R7")],
    "r7_pass.py": [(18, 0, "R4")],
    "r8_fail.py": [(6, 0, "R4"), (8, 50, "R8"), (9, 37, "R8")],
    "r8_pass.py": [],
    "r9_fail.py": [(4, 0, "R4"), (7, 13, "R5"), (8, 19, "R9")],
    "r9_pass.py": [(15, 53, "R5")],
}


def _fixtures() -> list[Path]:
    return sorted(FIXTURES.glob("*.py"))


def _by_fixture(rows) -> dict[str, list[tuple[int, int, str]]]:
    out: dict[str, list[tuple[int, int, str]]] = {
        path.name: [] for path in _fixtures()
    }
    for name, line, col, code in sorted(rows):
        out[name].append((line, col, code))
    return out


def test_fixture_set_is_the_pinned_one():
    assert [path.name for path in _fixtures()] == sorted(AS_IS)
    assert sorted(AS_IS) == sorted(IN_PACKAGE)


def test_findings_as_is():
    violations = lint_paths([str(p) for p in _fixtures()],
                            list(RULES.values()))
    found = _by_fixture(
        (Path(v.path).name, v.line, v.col, v.rule) for v in violations
    )
    assert found == AS_IS


def test_findings_in_package():
    rows = []
    for path in _fixtures():
        rows.extend(
            (path.name, v.line, v.col, v.rule)
            for v in lint_source(
                path.read_text(encoding="utf-8"),
                path=f"src/repro/experiments/{path.name}",
                rules=list(RULES.values()),
            )
        )
    assert _by_fixture(rows) == IN_PACKAGE
