"""The rule catalogue: fourteen checks behind one registry.

Each rule is a pure function from a parsed module to a list of
:class:`~repro.lint.violations.Violation`.  The registry drives the
runner, the CLI's ``--select`` filter, and the rule table in
``docs/LINTING.md`` — add a rule here and every consumer picks it up.

The rules encode the package's determinism discipline (see
CONTRIBUTING.md "Determinism" and ``docs/ENGINE.md``):

R1
    No global-state randomness.  Random bits must flow through a seeded
    :class:`numpy.random.Generator` (the ``seed=``/``rng=`` convention),
    never through ``np.random.<fn>`` module calls, the stdlib ``random``
    module, or an unseeded ``default_rng()``.
R2
    No wall-clock or OS nondeterminism (``time.time``, ``datetime.now``,
    ``os.urandom``, …) outside ``repro/instrument/timers.py`` — counts
    over clocks.
R3
    Engine-task purity.  Callables handed to the engine's submission
    points (``TrialTask``/``fanout``) must be module-top-level functions:
    lambdas and nested functions break pickling and can close over
    ``Generator`` state, destroying worker-count independence.
R4
    Signature conformance.  Public callables in ``repro`` that accept
    randomness expose the uniform ``seed=``/``rng=`` pair with ``rng``
    defaulting (never a bare required ``rng: Generator`` positional).
R5
    Order discipline.  No mutable default arguments anywhere; no
    iteration over set expressions in ``experiments/``/``engine/`` —
    set order feeds tables, and tables must be byte-deterministic.

The other rules are whole-program: each belongs to a *family* whose
pass analyzes a module once and serves every rule of the family its
findings (:func:`repro.lint.callgraph.pass_findings`).

R6-R9, family ``flow``
    The RNG-flow pass of :mod:`repro.lint.flow` (stream reuse,
    generator escape, process-boundary crossing, draw-order hazard).
R10-R14, family ``async``
    The async-concurrency pass of :mod:`repro.lint.async_flow`.

See each pass's docstring for the semantics and ``docs/LINTING.md`` for
worked examples.

Rules R1-R5 read the parsed module through :meth:`RuleContext.nodes`, a
node index built with **one** ``ast.walk`` per file and shared by every
rule — the pre-1.3 runner re-walked the full tree once per rule
(``benchmarks/bench_lint.py`` measures the difference).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePath
from typing import Callable

from repro.lint import async_flow, flow
from repro.lint.callgraph import (
    Program,
    _dotted,
    _is_set_expression,
    _numpy_aliases,
    pass_findings,
)
from repro.lint.violations import Violation

#: ``np.random`` attributes that are constructors/types, not the legacy
#: global-state API (calling these is fine; ``np.random.rand`` etc. is not).
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Wall-clock / OS-entropy callables banned outside the timers module.
_NONDETERMINISTIC_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
    "os.urandom",
})

#: ``from <module> import <name>`` pairs banned by R2.
_NONDETERMINISTIC_IMPORTS = {
    "time": frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    }),
    "os": frozenset({"urandom"}),
}

#: Engine submission points whose ``fn`` argument R3 inspects.
_SUBMISSION_POINTS = frozenset({"TrialTask", "fanout"})


@dataclass(frozen=True)
class RuleContext:
    """Everything a rule sees: one parsed module plus its origin.

    Attributes
    ----------
    path:
        The file's path as given to the runner (used in messages and for
        per-rule scoping, e.g. R2's timers exemption).
    tree:
        The parsed :class:`ast.Module`.
    source:
        Raw file text (rules rarely need it; pragmas are handled by the
        runner, not per rule).
    program:
        The :class:`~repro.lint.callgraph.Program` this module was linted
        with, when the runner linted several files together.  The flow
        rules use it to resolve cross-module helpers; ``None`` makes them
        fall back to a private single-module program.
    """

    path: str
    tree: ast.Module
    source: str
    program: Program | None = field(default=None, compare=False)

    @property
    def parts(self) -> tuple[str, ...]:
        """Path components, for directory-scoped rules."""
        return PurePath(self.path).parts

    def is_module(self, *suffix: str) -> bool:
        """Whether the file path ends with the given components."""
        return self.parts[-len(suffix):] == suffix

    @cached_property
    def _buckets(self) -> dict[type, list[ast.AST]]:
        """Node lists bucketed by type — one ``ast.walk`` for all rules."""
        buckets: dict[type, list[ast.AST]] = {}
        for node in ast.walk(self.tree):
            buckets.setdefault(type(node), []).append(node)
        return buckets

    def nodes(self, *types: type) -> list[ast.AST]:
        """All nodes of the given AST types, from the shared index."""
        if len(types) == 1:
            return self._buckets.get(types[0], [])
        out: list[ast.AST] = []
        for t in types:
            out.extend(self._buckets.get(t, []))
        return out


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    Attributes
    ----------
    code:
        Stable identifier (``"R1"``), used in output and ignore pragmas.
    title:
        Short name for the rule table.
    summary:
        One-line description rendered by ``lint --explain`` and the docs.
    check:
        The implementation: ``RuleContext -> list[Violation]``.
    family:
        ``"syntactic"`` (R1-R5), or the whole-program pass the rule
        belongs to: ``"flow"`` (R6-R9) or ``"async"`` (R10-R14).
    """

    code: str
    title: str
    summary: str
    check: Callable[[RuleContext], list[Violation]]
    family: str = "syntactic"


def _stdlib_random_aliases(ctx: RuleContext) -> set[str]:
    """Names the module binds to the stdlib ``random`` module."""
    aliases: set[str] = set()
    for node in ctx.nodes(ast.Import):
        for alias in node.names:
            if alias.name == "random":
                aliases.add(alias.asname or "random")
    return aliases


def _check_r1(ctx: RuleContext) -> list[Violation]:
    """R1 — no global-state randomness."""
    in_rng_module = ctx.is_module("instrument", "rng.py")
    np_aliases = _numpy_aliases(ctx.nodes(ast.Import))
    random_aliases = _stdlib_random_aliases(ctx)
    out: list[Violation] = []

    def flag(node: ast.AST, message: str) -> None:
        out.append(Violation(ctx.path, node.lineno, node.col_offset, "R1", message))

    for node in ctx.nodes(ast.ImportFrom):
        if node.module == "random":
            flag(node, "stdlib `random` import; use a seeded "
                       "numpy.random.Generator via the seed=/rng= convention")
    for node in ctx.nodes(ast.Call):
        name = _dotted(node.func)
        if name is None:
            continue
        head, _, tail = name.rpartition(".")
        if head in random_aliases:
            flag(node, f"global-state `{name}()` call; thread a seeded "
                       "numpy.random.Generator instead")
        elif any(head == f"{alias}.random" for alias in np_aliases):
            if tail not in _NP_RANDOM_ALLOWED:
                flag(node, f"legacy global-state `{name}()` call; use a "
                           "Generator from resolve_rng/spawn_rngs")
        if tail == "default_rng" or name == "default_rng":
            if not node.args and not node.keywords and not in_rng_module:
                flag(node, "unseeded `default_rng()`; derive generators "
                           "from an explicit seed (resolve_rng) so runs "
                           "are reproducible")
    return out


def _check_r2(ctx: RuleContext) -> list[Violation]:
    """R2 — no wall-clock/OS nondeterminism outside the timers module."""
    if ctx.is_module("instrument", "timers.py"):
        return []
    out: list[Violation] = []
    for node in ctx.nodes(ast.ImportFrom):
        banned = _NONDETERMINISTIC_IMPORTS.get(node.module or "")
        if banned:
            for alias in node.names:
                if alias.name in banned:
                    out.append(Violation(
                        ctx.path, node.lineno, node.col_offset, "R2",
                        f"nondeterministic import `from {node.module} "
                        f"import {alias.name}`; wall-clock reads belong "
                        "in repro/instrument/timers.py",
                    ))
    for node in ctx.nodes(ast.Call):
        name = _dotted(node.func)
        if name in _NONDETERMINISTIC_CALLS:
            out.append(Violation(
                ctx.path, node.lineno, node.col_offset, "R2",
                f"nondeterministic `{name}()` call; use "
                "repro.instrument.timers (counts over clocks)",
            ))
    return out


class _ScopeCollector(ast.NodeVisitor):
    """Classify function definitions by nesting depth for R3."""

    def __init__(self) -> None:
        self.nested_defs: set[str] = set()
        self.lambda_names: set[str] = set()
        self._depth = 0

    def _visit_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._depth > 0:
            self.nested_defs.add(node.name)
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.lambda_names.add(target.id)
        self.generic_visit(node)


def _task_fn_argument(call: ast.Call) -> ast.AST | None:
    """The expression passed as the task function to a submission point."""
    for keyword in call.keywords:
        if keyword.arg == "fn":
            return keyword.value
    # ``fn`` is the first positional of both TrialTask and fanout.
    return call.args[0] if call.args else None


def _check_r3(ctx: RuleContext) -> list[Violation]:
    """R3 — engine tasks must be module-top-level functions."""
    submissions = [
        node for node in ctx.nodes(ast.Call)
        if (name := _dotted(node.func)) is not None
        and name.rpartition(".")[2] in _SUBMISSION_POINTS
    ]
    if not submissions:
        return []
    scopes = _ScopeCollector()
    scopes.visit(ctx.tree)
    out: list[Violation] = []
    for node in submissions:
        callee = _dotted(node.func).rpartition(".")[2]
        fn = _task_fn_argument(node)
        if fn is None:
            continue
        if isinstance(fn, ast.Lambda):
            out.append(Violation(
                ctx.path, fn.lineno, fn.col_offset, "R3",
                f"lambda passed to {callee}; engine tasks must be "
                "module-top-level functions (picklable, no closed-over "
                "Generator state)",
            ))
        elif isinstance(fn, ast.Name) and (
            fn.id in scopes.nested_defs or fn.id in scopes.lambda_names
        ):
            kind = ("lambda-valued name" if fn.id in scopes.lambda_names
                    else "nested function")
            out.append(Violation(
                ctx.path, fn.lineno, fn.col_offset, "R3",
                f"{kind} `{fn.id}` passed to {callee}; hoist it to module "
                "top level so it pickles and cannot close over a Generator",
            ))
    return out


def _rng_param_facts(
    args: ast.arguments,
) -> tuple[bool, bool, bool, ast.arg | None]:
    """(has_rng, has_seed, rng_has_default, rng_node) for a signature."""
    has_seed = any(
        a.arg == "seed" for a in args.posonlyargs + args.args + args.kwonlyargs
    )
    rng_node: ast.arg | None = None
    rng_has_default = False
    positional = args.posonlyargs + args.args
    # Defaults align with the tail of the positional parameter list.
    first_defaulted = len(positional) - len(args.defaults)
    for index, a in enumerate(positional):
        if a.arg == "rng":
            rng_node = a
            rng_has_default = index >= first_defaulted
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if a.arg == "rng":
            rng_node = a
            rng_has_default = default is not None
    return rng_node is not None, has_seed, rng_has_default, rng_node


def _check_r4(ctx: RuleContext) -> list[Violation]:
    """R4 — public randomness-accepting callables use the seed=/rng= pair."""
    if "repro" not in ctx.parts or "tests" in ctx.parts:
        return []
    out: list[Violation] = []

    def visit(body: list[ast.stmt], class_name: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    visit(node.body, node.name)
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qualname = (f"{class_name}.{node.name}" if class_name
                        else node.name)
            public = (not node.name.startswith("_")
                      or (class_name is not None and node.name == "__init__"))
            if not public:
                continue
            has_rng, has_seed, rng_defaulted, rng_node = _rng_param_facts(
                node.args
            )
            if not has_rng:
                continue
            if not has_seed:
                out.append(Violation(
                    ctx.path, node.lineno, node.col_offset, "R4",
                    f"`{qualname}` accepts rng but no seed=; public "
                    "randomized callables expose the uniform seed=/rng= "
                    "pair (resolve_rng)",
                ))
            elif not rng_defaulted:
                assert rng_node is not None
                out.append(Violation(
                    ctx.path, node.lineno, node.col_offset, "R4",
                    f"`{qualname}` takes a required positional rng; the "
                    "convention is rng=None alongside seed=None, resolved "
                    "via resolve_rng",
                ))
    visit(ctx.tree.body, None)
    return out


def _is_mutable_literal(node: ast.AST | None) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name in {"list", "dict", "set", "bytearray",
                        "collections.defaultdict", "defaultdict"}
    return False


def _check_r5(ctx: RuleContext) -> list[Violation]:
    """R5 — mutable defaults anywhere; set-order iteration near tables."""
    out: list[Violation] = []
    for node in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                out.append(Violation(
                    ctx.path, default.lineno, default.col_offset, "R5",
                    "mutable default argument; default to None and "
                    "create the container in the body",
                ))
    ordered_scope = any(part in {"experiments", "engine"} for part in ctx.parts)
    if not ordered_scope:
        return out
    iters: list[ast.AST] = []
    for node in ctx.nodes(ast.For, ast.AsyncFor):
        iters.append(node.iter)
    for node in ctx.nodes(ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp):
        iters.extend(gen.iter for gen in node.generators)
    for it in iters:
        if _is_set_expression(it):
            out.append(Violation(
                ctx.path, it.lineno, it.col_offset, "R5",
                "iteration over a set expression in table-producing "
                "code; wrap in sorted(...) so row order is "
                "deterministic",
            ))
    return out


#: Family -> the whole-program pass computing its rules.
_PASSES = {
    "flow": flow.analyze_module,
    "async": async_flow.analyze_module,
}


def _pass_rule(code: str, family: str, title: str, summary: str) -> Rule:
    """Register one whole-program rule: its code's share of its pass."""
    analyze = _PASSES[family]

    def check(ctx: RuleContext) -> list[Violation]:
        return pass_findings(ctx, analyze, code)

    check.__name__ = f"_check_{code.lower()}"
    check.__doc__ = f"{code} — see {analyze.__module__}."
    return Rule(code, title, summary, check, family)


#: The registry, in report order.  Keys are the pragma/ignore codes.
RULES: dict[str, Rule] = {
    "R1": Rule("R1", "no-global-randomness",
               "random bits flow through seeded Generators "
               "(seed=/rng=), never np.random module calls, stdlib "
               "random, or unseeded default_rng()", _check_r1),
    "R2": Rule("R2", "no-wall-clock",
               "time.time/datetime.now/os.urandom only inside "
               "repro/instrument/timers.py", _check_r2),
    "R3": Rule("R3", "engine-task-purity",
               "TrialTask/fanout callables are module-top-level "
               "functions, never lambdas or nested defs", _check_r3),
    "R4": Rule("R4", "seed-rng-signature",
               "public randomized callables in repro expose the "
               "seed=/rng= keyword pair with rng defaulted", _check_r4),
    "R5": Rule("R5", "order-discipline",
               "no mutable default arguments; no set-order iteration "
               "in experiments/ or engine/", _check_r5),
    "R6": _pass_rule("R6", "flow", "stream-reuse",
                     "no generator consumed after spawning children from "
                     "it, threaded into two sibling trial tasks, or handed "
                     "to a task and also used locally"),
    "R7": _pass_rule("R7", "flow", "generator-escape",
                     "no Generator in module-level state, class attributes, "
                     "or closures that escape their scope"),
    "R8": _pass_rule("R8", "flow", "process-boundary-crossing",
                     "no live Generator in TrialTask/fanout payloads; ship "
                     "the rng= child or a seed/spawn-key spec"),
    "R9": _pass_rule("R9", "flow", "draw-order-hazard",
                     "no shared generator consumed inside unordered (set) "
                     "iteration; per-element child streams are exempt"),
    "R10": _pass_rule("R10", "async", "interleaving-hazard",
                      "no shared attribute read before an await and mutated "
                      "after it without a common lock — stale "
                      "read-modify-write across a suspension point"),
    "R11": _pass_rule("R11", "async", "blocking-in-event-loop",
                      "no time.sleep/sync IO/subprocess (directly or "
                      "through helpers) and no await-free while-True loops "
                      "inside async defs"),
    "R12": _pass_rule("R12", "async", "lost-task",
                      "no un-awaited coroutine calls; every create_task "
                      "handle is awaited, cancelled, stored, or given a "
                      "done-callback"),
    "R13": _pass_rule("R13", "async", "lock-queue-discipline",
                      "no sync lock held across an await, no unbounded "
                      "asyncio.Queue, no future that is never resolved or "
                      "handed off"),
    "R14": _pass_rule("R14", "async", "cross-task-aliasing",
                      "no mutable object escaping into two "
                      "concurrently-live tasks; queues and locks are the "
                      "sanctioned channels"),
}
