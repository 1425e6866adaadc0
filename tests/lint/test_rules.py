"""Per-rule fixture tests: every rule fires on its failing snippet and
stays silent on the conforming twin."""

from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    collect_file_pragmas,
    collect_pragmas,
    discover_files,
    lint_source,
)

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

# R4 only applies inside the repro package and R5's set-iteration half
# only near tables, so those fixtures are linted under synthetic paths.
SYNTHETIC_PATHS = {
    "R4": "src/repro/synthetic_module.py",
    "R5": "src/repro/experiments/synthetic_module.py",
}


def _lint_fixture(rule_code: str, kind: str):
    path = FIXTURES / f"{rule_code.lower()}_{kind}.py"
    synthetic = SYNTHETIC_PATHS.get(rule_code, str(path))
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=synthetic,
        rules=[RULES[rule_code]],
    )


@pytest.mark.fast
@pytest.mark.parametrize("rule_code", sorted(RULES))
def test_failing_fixture_fires(rule_code):
    violations = _lint_fixture(rule_code, "fail")
    assert violations, f"{rule_code} did not fire on its failing fixture"
    assert all(v.rule == rule_code for v in violations)


@pytest.mark.fast
@pytest.mark.parametrize("rule_code", sorted(RULES))
def test_passing_fixture_clean(rule_code):
    assert _lint_fixture(rule_code, "pass") == []


@pytest.mark.fast
def test_r1_flags_each_shape():
    messages = "\n".join(v.message for v in _lint_fixture("R1", "fail"))
    assert "np.random.rand" in messages
    assert "default_rng" in messages
    assert "stdlib `random`" in messages


@pytest.mark.fast
def test_r2_exempts_timers_module():
    source = "import time\n\ndef f():\n    return time.perf_counter()\n"
    inside = lint_source(
        source, path="src/repro/instrument/timers.py", rules=[RULES["R2"]]
    )
    outside = lint_source(
        source, path="src/repro/instrument/counters.py", rules=[RULES["R2"]]
    )
    assert inside == []
    assert len(outside) == 1


@pytest.mark.fast
def test_r3_flags_both_shapes():
    violations = _lint_fixture("R3", "fail")
    messages = "\n".join(v.message for v in violations)
    assert "lambda" in messages
    assert "local_trial" in messages


@pytest.mark.fast
def test_r4_is_scoped_to_the_repro_package():
    source = (FIXTURES / "r4_fail.py").read_text(encoding="utf-8")
    outside = lint_source(source, path="tests/helpers.py", rules=[RULES["R4"]])
    assert outside == []


@pytest.mark.fast
def test_r4_accepts_kwonly_rng_with_default():
    source = (
        "def draw(n, *, seed=None, rng=None):\n"
        '    """Doc."""\n'
        "    return n\n"
    )
    assert lint_source(
        source, path="src/repro/mod.py", rules=[RULES["R4"]]
    ) == []


@pytest.mark.fast
def test_r5_set_iteration_only_near_tables():
    source = "def rows(edges):\n    return [e for e in set(edges)]\n"
    near = lint_source(
        source, path="src/repro/experiments/e0.py", rules=[RULES["R5"]]
    )
    far = lint_source(
        source, path="src/repro/matching/greedy.py", rules=[RULES["R5"]]
    )
    assert len(near) == 1
    assert far == []


@pytest.mark.fast
def test_rule_registry_is_complete():
    assert sorted(RULES, key=lambda c: int(c[1:])) == [
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
        "R10", "R11", "R12", "R13", "R14",
    ]
    for code, rule in RULES.items():
        assert rule.code == code
        assert rule.summary
    families = {}
    for code, rule in RULES.items():
        families.setdefault(rule.family, []).append(code)
    assert families == {
        "syntactic": ["R1", "R2", "R3", "R4", "R5"],
        "flow": ["R6", "R7", "R8", "R9"],
        "async": ["R10", "R11", "R12", "R13", "R14"],
    }


@pytest.mark.fast
def test_every_pragma_names_a_known_rule():
    # The pragma parsers accept any code, so a pragma naming a retired
    # or misspelled rule would silently suppress nothing.
    unknown = []
    for path in discover_files([REPO / "src", REPO / "tests",
                                REPO / "benchmarks", REPO / "examples"]):
        source = path.read_text(encoding="utf-8")
        codes = set(collect_file_pragmas(source))
        for line_codes in collect_pragmas(source).values():
            codes.update(line_codes)
        unknown.extend(
            (path.relative_to(REPO).as_posix(), code)
            for code in sorted(codes - {"*"}) if code not in RULES
        )
    assert unknown == []
