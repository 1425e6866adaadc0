"""The ``repro-experiments lint`` subcommand.

Usage::

    repro-experiments lint                       # lint src and tests
    repro-experiments lint src/repro/core        # lint a subtree
    repro-experiments lint --format json src     # CI-friendly output
    repro-experiments lint --format github src   # Actions annotations
    repro-experiments lint --select R1,R4 src    # subset of rules
    repro-experiments lint --select R6,R7,R8,R9 src   # RNG-flow rules
    repro-experiments lint --select R15 \\
        --baseline results/perf_baseline.json src     # the perf gate
    repro-experiments lint --explain             # print the rule table

The default run covers the correctness rules R1-R14: the syntactic
rules, the whole-program RNG-flow rules R6-R9 (the static half of the
``REPRO_RNG_SANITIZE=1`` runtime sanitizer) and the async-concurrency
rules R10-R14 (the static half of the ``REPRO_ASYNC_SANITIZE=1``
deterministic-scheduler sanitizer).  The performance rule R15 of
:mod:`repro.lint.perf_flow` runs only when ``--select`` names it; the
per-update work cap itself is checked at run time under
``REPRO_WORK_AUDIT=1`` (:mod:`repro.instrument.workmeter`).
``--explain`` prints the rules ``--select`` names, or the whole
catalogue.

``--baseline FILE`` / ``--write-baseline FILE`` (see
:mod:`repro.lint.baseline`): a recorded baseline suppresses known
findings so CI gates ratchet instead of block.

Exit status: 0 clean, 1 violations found, 2 usage error — so the
command drops straight into CI and pre-commit hooks.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.baseline import (
    filter_baselined,
    load_baseline,
    write_baseline,
)
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
        description="AST determinism & invariant linter (rules R1-R14 by "
                    "default, perf rule R15 via --select; suppress "
                    "per line with `# repro-lint: ignore[R..]`).",
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
        help="comma-separated rule codes to run (default: every rule "
             "but the perf rule R15)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the rule catalogue (or the --select rules) and exit",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="suppress findings recorded in this baseline file "
             "(generate with --write-baseline); the suppressed count "
             "is noted on stderr",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="record the current findings as the baseline and exit 0",
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
    if args.select is None:
        # The perf rule is opt-in: the default run is the correctness gate.
        rules = [rule for rule in rules if rule.family != "perf"]

    try:
        violations = lint_paths(args.paths, rules)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"could not parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        count = write_baseline(args.write_baseline, violations)
        print(f"baseline written: {count} finding"
              f"{'' if count == 1 else 's'} recorded in "
              f"{args.write_baseline}")
        return 0
    if args.baseline is not None:
        try:
            keys = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        violations, suppressed = filter_baselined(violations, keys)
        if suppressed:
            # stderr so json/github stdout stays machine-parseable.
            print(f"baseline suppressed {suppressed} known finding"
                  f"{'' if suppressed == 1 else 's'}", file=sys.stderr)

    print(_FORMATS[args.format](violations))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
