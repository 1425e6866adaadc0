"""File discovery, rule dispatch, pragma filtering, and output formats.

The runner is the library face of the linter: :func:`lint_paths` is what
the CLI and the test suite call, :func:`lint_source` is the unit-test
entry point for individual snippets.

Two performance properties (measured by ``benchmarks/bench_lint.py``):

* **Parse once, share everywhere.**  Each file is read and parsed
  exactly once; the resulting tree is shared by all rules through
  :class:`~repro.lint.rules.RuleContext`, whose node index is built with
  a single ``ast.walk``.  The pre-1.3 runner let every rule re-walk the
  tree independently.
* **One directory walk.**  Discovery uses a single pruned ``os.walk``
  per root — skip directories are never descended into (``rglob`` would
  enumerate ``__pycache__``/``.git`` contents only to discard them).

Directory walks skip any component named ``fixtures`` — the lint test
suite keeps deliberately-violating snippets there — and hidden/cache
directories.  A path given *explicitly* is always linted, so tests can
point at fixture files directly.

All files linted together form one
:class:`~repro.lint.callgraph.Program`, which is what lets the
whole-program rules (RNG flow R6-R9, async R10-R14) resolve imports,
generator summaries and helper calls across modules.
"""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.callgraph import Program
from repro.lint.rules import RULES, Rule, RuleContext
from repro.lint.violations import (
    Violation,
    collect_file_pragmas,
    collect_pragmas,
    is_suppressed,
)

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset({"fixtures", "__pycache__", ".git", ".venv", "build"})


def _walk_py(root: Path) -> Iterable[Path]:
    """Yield ``.py`` files under ``root`` in one pruned directory walk."""
    for dirpath, dirnames, filenames in os.walk(root):
        # Pruning in place stops os.walk from ever entering skip dirs.
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith(".")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield Path(dirpath) / name


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` targets.

    Directories are walked recursively (one pruned ``os.walk`` each),
    skipping :data:`SKIP_DIRS` components and hidden directories;
    explicit file paths pass through unconditionally (this is how the
    test suite lints fixtures that a tree walk would skip).

    Overlapping targets (``src src/repro``, a relative and an absolute
    spelling of one tree, symlinked duplicates) are deduplicated by
    *resolved* path, keeping the first spelling seen — so every file is
    parsed, linted, and reported exactly once regardless of how many of
    the given roots cover it.
    """
    found: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(_walk_py(path))
        elif path.suffix == ".py":
            found.append(path)
        else:
            raise FileNotFoundError(f"lint target {path} is not a .py file "
                                    "or directory")
    unique: dict[Path, Path] = {}
    for path in found:
        unique.setdefault(path.resolve(), path)
    return list(unique.values())


def _lint_parsed(
    sources: dict[str, tuple[ast.Module, str]],
    rules: Iterable[Rule] | None,
) -> list[Violation]:
    """Run the rules over pre-parsed modules sharing one program."""
    program = Program.from_sources(sources)
    active = list(RULES.values() if rules is None else rules)
    out: list[Violation] = []
    for path, (tree, source) in sources.items():
        ctx = RuleContext(path=path, tree=tree, source=source,
                          program=program)
        pragmas = collect_pragmas(source)
        file_skips = collect_file_pragmas(source)
        for rule in active:
            # File-level skips elide the rule entirely (cheaper than
            # filtering its findings, and `skip-file` with no list
            # suppresses every rule).
            if "*" in file_skips or rule.code in file_skips:
                continue
            for violation in rule.check(ctx):
                if not is_suppressed(violation, pragmas):
                    out.append(violation)
    return sorted(out)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[Rule] | None = None,
) -> list[Violation]:
    """Lint one source string; the core everything else wraps.

    Pragma suppression is applied here so every entry point honors
    ``# repro-lint: ignore[...]`` identically.
    """
    tree = ast.parse(source, filename=path)
    return _lint_parsed({path: (tree, source)}, rules)


def lint_file(
    path: str | Path, rules: Iterable[Rule] | None = None
) -> list[Violation]:
    """Lint one file from disk (explicitly, bypassing discovery skips)."""
    target = Path(path)
    return lint_source(target.read_text(encoding="utf-8"), str(target), rules)


def lint_paths(
    paths: Sequence[str | Path],
    rules: Iterable[Rule] | None = None,
) -> list[Violation]:
    """Lint every discovered file under ``paths``; sorted violations.

    Every file is parsed once, and all of them are linted as one
    :class:`~repro.lint.callgraph.Program`, so the flow rules see
    cross-module generator flow (and the syntactic rules share the
    parse).
    """
    sources: dict[str, tuple[ast.Module, str]] = {}
    for target in discover_files(paths):
        text = target.read_text(encoding="utf-8")
        sources[str(target)] = (ast.parse(text, filename=str(target)), text)
    return _lint_parsed(sources, rules)


def format_text(violations: Sequence[Violation]) -> str:
    """Human-readable report: one ``path:line:col: RULE msg`` per line."""
    lines = [v.format() for v in violations]
    lines.append(f"{len(violations)} violation"
                 f"{'' if len(violations) == 1 else 's'} found"
                 if violations else "clean: no violations")
    return "\n".join(lines)


def format_json(violations: Sequence[Violation]) -> str:
    """Machine-readable report for CI annotation tooling."""
    return json.dumps(
        {"violations": [v.to_dict() for v in violations],
         "count": len(violations)},
        indent=2,
    )


def _escape_data(value: str) -> str:
    """Escape a workflow-command message per the Actions toolkit rules.

    ``%`` must go first (it is the escape character itself); raw
    newlines would otherwise truncate the annotation at the first line.
    """
    return (value.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A"))


def _escape_property(value: str) -> str:
    """Escape a workflow-command property value (``file=``, ``title=``).

    Properties additionally reserve ``:`` and ``,`` — a message
    containing ``::`` inside a property would end the property list
    early and corrupt the annotation.
    """
    return (_escape_data(value)
            .replace(":", "%3A")
            .replace(",", "%2C"))


def format_github(violations: Sequence[Violation]) -> str:
    """GitHub Actions workflow commands: one ``::error`` per finding.

    Emitting these to stdout inside a workflow step makes every finding
    render as an inline annotation on the PR diff.  Columns are
    converted to GitHub's 1-based convention; messages and property
    values are escaped per the workflow-command spec so multi-line or
    ``::``-bearing rule messages cannot truncate the annotation.
    """
    lines = [
        f"::error file={_escape_property(v.path)},line={v.line},"
        f"col={v.col + 1},title={_escape_property(v.rule)}"
        f"::{_escape_data(v.message)}"
        for v in violations
    ]
    lines.append(f"{len(violations)} violation"
                 f"{'' if len(violations) == 1 else 's'} found"
                 if violations else "clean: no violations")
    return "\n".join(lines)
