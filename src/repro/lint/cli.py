"""The ``repro-experiments lint`` subcommand.

Usage::

    repro-experiments lint                       # lint src and tests
    repro-experiments lint src/repro/core        # lint a subtree
    repro-experiments lint --format json src     # CI-friendly output
    repro-experiments lint --format github src   # Actions annotations
    repro-experiments lint --select R1,R4 src    # subset of rules
    repro-experiments lint --select R6,R7,R8,R9 src   # RNG-flow rules
    repro-experiments lint --explain             # print the rule table

The default run is every rule, R1-R14: the syntactic rules, the
whole-program RNG-flow rules R6-R9 (the static half of the
``REPRO_RNG_SANITIZE=1`` runtime sanitizer) and the async-concurrency
rules R10-R14 (the static half of the ``REPRO_ASYNC_SANITIZE=1``
deterministic-scheduler sanitizer).  Performance is not a lint
concern: the per-update work cap is checked at run time under
``REPRO_WORK_AUDIT=1`` (:mod:`repro.instrument.workmeter`).
``--explain`` prints the rules ``--select`` names, or the whole
catalogue.

Exit status: 0 clean, 1 violations found, 2 usage error — so the
command drops straight into CI and pre-commit hooks.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.rules import RULES, Rule
from repro.lint.runner import (
    format_github,
    format_json,
    format_text,
    lint_paths,
)

#: ``--format`` name -> formatter.
_FORMATS = {
    "text": format_text,
    "json": format_json,
    "github": format_github,
}


def _explain(rules: list[Rule]) -> str:
    """Render the rule table (kept in sync with docs/LINTING.md)."""
    width = max(len(rule.title) for rule in rules)
    return "\n".join(
        f"{rule.code}  {rule.title:<{width}}  {rule.summary}"
        for rule in rules
    )


def main(argv: list[str] | None = None) -> int:
    """Parse lint arguments, run the selected rules, print the report."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments lint",
        description="AST determinism & invariant linter (rules R1-R14; "
                    "suppress per line with `# repro-lint: ignore[R..]`).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to check (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=tuple(_FORMATS), default="text",
        help="report format (default text; github emits Actions "
             "::error annotations)",
    )
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule codes to run (default: every rule)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the rule catalogue (or the --select rules) and exit",
    )
    args = parser.parse_args(argv)

    rules = list(RULES.values())
    if args.select is not None:
        # dict.fromkeys: a code named twice must not report twice.
        codes = list(dict.fromkeys(
            c.strip().upper() for c in args.select.split(",") if c.strip()
        ))
        if not codes:
            # An empty selection would "lint" with zero rules and exit 0
            # — a green CI gate that checks nothing.  Usage error.
            print("--select is empty; pass one or more rule codes like R1",
                  file=sys.stderr)
            return 2
        unknown = [c for c in codes if c not in RULES]
        if unknown:
            print(f"unknown rule codes {unknown}; known: {sorted(RULES)}",
                  file=sys.stderr)
            return 2
        rules = [RULES[c] for c in codes]
    if args.explain:
        print(_explain(rules))
        return 0

    try:
        violations = lint_paths(args.paths, rules)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"could not parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2

    print(_FORMATS[args.format](violations))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
