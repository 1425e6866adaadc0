"""Determinism & invariant linter for the reproduction (rules R1-R14).

The paper's guarantees are only reproducible if every random bit flows
through the package's ``seed=``/``rng=`` convention and every engine
trial stays byte-deterministic.  This package enforces those properties
mechanically with a stdlib-``ast`` static analysis:

* :data:`~repro.lint.rules.RULES` — the rule registry, one
  :class:`~repro.lint.rules.Rule` per code, each tagged with its
  ``family``:

  - ``syntactic``: R1 global-state randomness, R2 wall-clock reads, R3
    engine-task purity, R4 seed/rng signature conformance, R5 order
    discipline;
  - ``flow``: R6 stream reuse, R7 generator escape, R8 process-boundary
    crossing, R9 draw-order hazard (:mod:`repro.lint.flow`);
  - ``async``: R10 interleaving hazard, R11 blocking call in the event
    loop, R12 lost task, R13 lock/queue discipline, R14 cross-task
    aliasing (:mod:`repro.lint.async_flow`).

  The whole-program families run over one
  :class:`~repro.lint.callgraph.Program` per lint run;
* :func:`~repro.lint.runner.lint_paths` / ``lint_file`` /
  ``lint_source`` — the library entry points;
* ``repro-experiments lint`` — the CLI (see :mod:`repro.lint.cli`).
  It runs every rule unless ``--select`` names a subset.

Suppress a finding per line with ``# repro-lint: ignore[R4]`` (or bare
``ignore`` for all rules), or a whole file with
``# repro-lint: skip-file[R10]``.  See ``docs/LINTING.md`` for the
catalogue.
"""

from repro.lint.rules import (
    RULES,
    Rule,
    RuleContext,
)
from repro.lint.runner import (
    discover_files,
    format_github,
    format_json,
    format_text,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.violations import (
    Violation,
    collect_file_pragmas,
    collect_pragmas,
)

__all__ = [
    "RULES",
    "Rule",
    "RuleContext",
    "Violation",
    "collect_file_pragmas",
    "collect_pragmas",
    "discover_files",
    "format_github",
    "format_json",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_source",
]
