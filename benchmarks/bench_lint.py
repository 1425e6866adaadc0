"""Shared-AST vs per-rule-walk benchmark for the lint runner.

The 1.3 runner parses each file once and serves every rule from one
``ast.walk`` (the node-type index on ``RuleContext``); the pre-1.3
runner let each of the five syntactic rules re-walk the full tree
independently.  This benchmark measures both modes on the real ``src/``
tree, asserts they find the identical violations, and reports the
timings and speedup as JSON.

The legacy mode is simulated faithfully: a *fresh* ``RuleContext`` per
(file, rule) pair, so no rule shares the node index with another —
exactly one full tree walk per rule per file, which is what the old
per-rule ``ast.walk`` calls cost.  Only the syntactic rules R1-R5 are
compared (the flow rules R6-R9 and the async-concurrency rules R10-R14
postdate the shared index and never had a per-rule-walk form); the
full fourteen-rule runtime and the async-only runtime are reported
alongside for context.
Every timing is the best of ``--repeats`` runs.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint.py \
        --output results/bench_lint.json
"""

from __future__ import annotations

import argparse
import ast
import json
import platform
import sys
import time

from repro.lint.runner import discover_files, lint_paths
from repro.lint.rules import RULES, RuleContext
from repro.lint.violations import collect_pragmas, is_suppressed

#: The rules that exist in both modes (whole-program rules — the flow
#: and async families — have no per-rule-walk form to compare against).
_SYNTACTIC = [rule for rule in RULES.values() if rule.family == "syntactic"]

#: The async-concurrency rules, timed as their own workload.
_ASYNC = [rule for rule in RULES.values() if rule.family == "async"]


def _timed(fn, *args, **kwargs):
    # Wall-clock is the *measurand* of this benchmark, not hidden
    # nondeterminism leaking into results — hence the R2 pragmas.
    start = time.perf_counter()  # repro-lint: ignore[R2]
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start  # repro-lint: ignore[R2]


def _legacy_lint(sources):
    """Pre-1.3 dispatch: one fresh context (and tree walk) per rule."""
    out = []
    for path, (tree, text) in sources.items():
        pragmas = collect_pragmas(text)
        for rule in _SYNTACTIC:
            ctx = RuleContext(path=path, tree=tree, source=text)
            for violation in rule.check(ctx):
                if not is_suppressed(violation, pragmas):
                    out.append(violation)
    return sorted(out)


def _shared_lint(sources):
    """1.3 dispatch: one context per file, node index shared by rules."""
    out = []
    for path, (tree, text) in sources.items():
        pragmas = collect_pragmas(text)
        ctx = RuleContext(path=path, tree=tree, source=text)
        for rule in _SYNTACTIC:
            for violation in rule.check(ctx):
                if not is_suppressed(violation, pragmas):
                    out.append(violation)
    return sorted(out)


def bench_lint(target: str, repeats: int) -> dict:
    """Compare both dispatch modes on one tree; best-of-``repeats``."""
    sources = {}
    for path in discover_files([target]):
        text = path.read_text(encoding="utf-8")
        sources[str(path)] = (ast.parse(text, filename=str(path)), text)

    legacy_times, shared_times = [], []
    for _ in range(repeats):
        legacy, t_legacy = _timed(_legacy_lint, sources)
        shared, t_shared = _timed(_shared_lint, sources)
        assert legacy == shared, "shared-index lint diverged from legacy"
        legacy_times.append(t_legacy)
        shared_times.append(t_shared)

    full_times, async_times = [], []
    for _ in range(repeats):
        _, t_full = _timed(lint_paths, [target])
        full_times.append(t_full)
        _, t_async = _timed(lint_paths, [target], _ASYNC)
        async_times.append(t_async)
    async_defs = sum(
        sum(isinstance(node, ast.AsyncFunctionDef) for node in ast.walk(tree))
        for tree, _text in sources.values()
    )
    best_legacy, best_shared = min(legacy_times), min(shared_times)
    return {
        "target": target,
        "files": len(sources),
        "rules_compared": [rule.code for rule in _SYNTACTIC],
        "per_rule_walk_seconds": round(best_legacy, 4),
        "shared_index_seconds": round(best_shared, 4),
        "speedup": round(best_legacy / best_shared, 3),
        "identical_findings": True,
        "full_r1_r14_seconds": round(min(full_times), 4),
        "async_rules": [rule.code for rule in _ASYNC],
        "async_defs": int(async_defs),
        "async_r10_r14_seconds": round(min(async_times), 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", default="src",
                        help="tree to lint (default src)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions, best-of (default 5)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = {
        "benchmark": "lint shared node index vs per-rule tree walks",
        "python": platform.python_version(),
        "workloads": [bench_lint(args.target, args.repeats)],
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
