"""Interprocedural RNG-flow analysis: the engine room of rules R6-R9.

The syntactic rules R1-R5 judge one statement at a time; the properties
that actually carry the paper's independence structure (Observation 2.9)
and the engine's byte-identical-at-any-``--workers`` promise are *flow*
properties of ``numpy.random.Generator`` values:

R6 — **stream reuse**: a generator consumed after children were spawned
    from it, threaded into two sibling trial tasks, or handed to a task
    and also used locally.  Two consumers of one stream means draw
    interleaving decides the results.
R7 — **generator escape**: a generator stored in module-level state, a
    class attribute, or a closure that escapes its defining scope —
    shared streams that every caller silently advances.
R8 — **process-boundary crossing**: a live generator inside a
    ``TrialTask``/``fanout`` *payload* (``args``/``kwargs``/
    ``kwargs_list``) instead of the engine's sanctioned ``rng=`` child
    channel or a seed/spawn-key spec.
R9 — **draw-order hazard**: a shared generator consumed inside unordered
    (set) iteration, so hash order feeds the stream.  Per-element child
    streams indexed by the loop variable are exempt — that pattern is
    order-independent by construction.

The analysis is an abstract interpreter over each function body: it
tracks which names, attributes, container elements, and dataclass fields
hold generators (kinds ``GEN`` / ``GENLIST``), aliases them through
``resolve_rng`` and plain assignment, follows spawned
child lists through subscripts, ``zip``/``enumerate`` loops and tuple
unpacking, and resolves imported helpers through the
:class:`~repro.lint.callgraph.Program` summaries so a generator returned
by a cross-module factory is tracked like a local one.

Everything is stdlib-``ast``; the inspected code is never imported.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass

from repro.lint.callgraph import _dotted, _is_set_expression
from repro.lint.violations import Violation

#: Expression kinds the tracker distinguishes (``None`` everywhere else).
GEN = "generator"
GENLIST = "generator-list"

#: ``Generator`` methods that consume the underlying stream.  Kept in
#: sync with ``repro.instrument.rng.DRAW_METHODS`` (the runtime
#: sanitizer's counting set); a unit test asserts the two agree.
DRAW_METHODS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "gumbel", "hypergeometric",
    "integers", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_hypergeometric", "multivariate_normal",
    "negative_binomial", "noncentral_chisquare", "noncentral_f", "normal",
    "pareto", "permutation", "permuted", "poisson", "power", "random",
    "rayleigh", "shuffle", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_normal", "standard_t", "triangular",
    "uniform", "vonmises", "wald", "weibull", "zipf",
})

#: Bare callable names treated as generator factories/resolvers even when
#: import resolution fails (e.g. ``lint_source`` snippets).  Resolvers
#: *alias*: a generator argument flows through unchanged.
_RESOLVER_NAMES = frozenset({
    "default_rng", "resolve_rng", "sanitize_rng",
})
_SPAWNER_NAMES = frozenset({"spawn_rngs"})

#: Attribute names assumed generator-valued on any receiver (the
#: ``TrialTask.rng`` dataclass field and the ``self._rng`` idiom).
_GEN_ATTRS = frozenset({"rng", "_rng"})


def _param_is_generator(arg: ast.arg) -> bool:
    """Whether a parameter is generator-typed by name or annotation."""
    name = arg.arg
    if name == "rng" or name.startswith("rng_") or name.endswith("_rng"):
        return True
    if arg.annotation is not None:
        spelled = _dotted(arg.annotation)
        if spelled and spelled.split(".")[-1] in {
            "Generator", "SanitizedGenerator"
        }:
            return True
        # ``np.random.Generator | None`` style unions.
        for sub in ast.walk(arg.annotation):
            if isinstance(sub, ast.Attribute) and sub.attr == "Generator":
                return True
    return False


@dataclass(eq=False)
class Token:
    """One tracked generator value (or list of them).

    Aliased names share a token, so consuming through any alias counts
    against the one underlying stream.
    """

    kind: str
    loop_fresh: bool = False


@dataclass
class _LoopCtx:
    """One active (possibly unordered) loop during traversal."""

    targets: frozenset[str]
    unordered: bool
    node: ast.AST


class _FunctionFlow:
    """Abstract interpreter for one function (or the module top level)."""

    def __init__(
        self,
        program,
        module,
        path: str,
        out: dict[str, list[Violation]] | None,
        env: dict[str, Token] | None = None,
        at_module_level: bool = False,
    ) -> None:
        self.program = program
        self.module = module
        self.path = path
        self.out = out
        self.env: dict[str, Token] = dict(env or {})
        #: ``(receiver, attr)`` -> token, for ``self._rng``-style flow.
        self.attrs: dict[tuple[str, str], Token] = {}
        #: constant-index views into a spawn list share a token.  Keys
        #: hold the Token objects themselves (identity-hashed): keying by
        #: ``id()`` would let a collected token's id be reused by a new
        #: one and falsely alias unrelated streams.
        self.items: dict[tuple[Token, object], Token] = {}
        #: token -> first line children were spawned from it.
        self.spawned: dict[Token, int] = {}
        #: token -> list of (submission Call node, payload expr node).
        self.task_rng: dict[Token, list[tuple[ast.Call, ast.AST]]] = {}
        self.loops: list[_LoopCtx] = []
        self.return_kinds: set[str] = set()
        self.at_module_level = at_module_level
        #: names that escape the current scope (returned / stored on
        #: self / declared global) — for the R7 closure check.
        self.escaping_names: frozenset[str] = frozenset()
        self.global_names: set[str] = set()

    # -- plumbing ------------------------------------------------------ #
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        if self.out is not None:
            self.out.setdefault(code, []).append(Violation(
                self.path, node.lineno, node.col_offset, code, message
            ))

    def _resolve(self, call: ast.Call) -> tuple[str | None, str]:
        """(fully qualified callee, last name component) for a call."""
        name = _dotted(call.func)
        if name is None:
            return None, ""
        return self.module.resolve(name), name.rpartition(".")[2]

    # -- events -------------------------------------------------------- #
    def _spawn(self, token: Token, node: ast.AST) -> None:
        self.spawned.setdefault(token, node.lineno)
        payloads = self.task_rng.get(token)
        if payloads and any(node.lineno > p[1].lineno for p in payloads):
            self._emit(
                node, "R6",
                "children spawned from a generator already handed to a "
                "trial task; the task and the new children would share "
                "one spawn-key sequence",
            )

    def _consume(self, token: Token, node: ast.AST,
                 receiver: ast.AST) -> None:
        spawn_line = self.spawned.get(token)
        if spawn_line is not None and node.lineno > spawn_line:
            self._emit(
                node, "R6",
                "generator consumed after children were spawned from it "
                f"(spawn at line {spawn_line}); draws now interleave with "
                "child-stream creation — spawn a dedicated child via "
                "spawn_rngs instead",
            )
        if token in self.task_rng:
            self._emit(
                node, "R6",
                "generator handed to a trial task is also consumed in the "
                "submitting scope; task and caller would draw from one "
                "stream",
            )
        names = {n.id for n in ast.walk(receiver)
                 if isinstance(n, ast.Name)}
        for ctx in self.loops:
            if ctx.unordered and not (names & ctx.targets):
                self._emit(
                    node, "R9",
                    "shared generator consumed inside unordered (set) "
                    "iteration — hash order feeds the stream; sort the "
                    "iterable or draw from per-element child streams",
                )
                break

    def _task_payload(self, token: Token, call: ast.Call,
                      expr: ast.AST) -> None:
        sites = self.task_rng.setdefault(token, [])
        if any(existing is not call for existing, _ in sites):
            self._emit(
                expr, "R6",
                "same generator threaded into two sibling trial tasks; "
                "every task must own its spawned child stream "
                "(see fanout)",
            )
        sites.append((call, expr))
        if token in self.spawned:
            self._emit(
                expr, "R6",
                "generator handed to a trial task after children were "
                "spawned from it; give the task its own spawned child",
            )

    # -- quiet typing (no event side effects), for payload scans ------- #
    def _type_only(self, node: ast.AST) -> Token | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Subscript):
            base = self._type_only(node.value)
            if base is not None and base.kind == GENLIST:
                return Token(GEN)
            return None
        if isinstance(node, ast.Attribute):
            return self._attr_token(node, create=False)
        if isinstance(node, ast.Call):
            resolved, last = self._resolve(node)
            if resolved in self.program.returns_generator or \
                    last in _RESOLVER_NAMES:
                return Token(GEN)
            if resolved in self.program.returns_generator_list or \
                    last in _SPAWNER_NAMES:
                return Token(GENLIST)
        return None

    def _scan_payload(self, expr: ast.AST, call: ast.Call) -> None:
        """R8: flag generator-typed subexpressions in a task payload."""
        token = self._type_only(expr)
        if token is not None:
            self._emit(
                expr, "R8",
                "live Generator in a task payload crosses the process "
                "boundary; pass the per-trial child via TrialTask(rng=...) "
                "or ship a seed/spawn-key spec (rng_spec) and rebuild in "
                "the worker",
            )
            return
        if isinstance(expr, ast.Call):
            # A call inside a payload runs *before* pickling; only its
            # result crosses the boundary (rng_spec(child) is the
            # sanctioned pattern), so don't descend into the arguments.
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_payload(child, call)

    # -- attribute tokens ---------------------------------------------- #
    def _attr_token(self, node: ast.Attribute,
                    create: bool = True) -> Token | None:
        if not isinstance(node.value, ast.Name):
            return None
        key = (node.value.id, node.attr)
        token = self.attrs.get(key)
        if token is None and node.attr in _GEN_ATTRS and create:
            token = Token(GEN)
            self.attrs[key] = token
        return token

    # -- the expression walker ----------------------------------------- #
    def infer(self, node: ast.AST | None) -> Token | None:
        """Type one expression, recording flow events along the way."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Subscript):
            base = self.infer(node.value)
            self.infer(node.slice)
            if base is not None and base.kind == GENLIST:
                if isinstance(node.slice, ast.Constant):
                    key = (base, node.slice.value)
                    token = self.items.get(key)
                    if token is None:
                        token = Token(GEN)
                        self.items[key] = token
                    return token
                return Token(GEN, loop_fresh=True)
            return None
        if isinstance(node, ast.Attribute):
            self.infer(node.value)
            return self._attr_token(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            kinds = [self.infer(elt) for elt in node.elts]
            if any(t is not None and t.kind == GEN for t in kinds):
                return Token(GENLIST)
            return None
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            body, orelse = self.infer(node.body), self.infer(node.orelse)
            return body if body is not None else orelse
        if isinstance(node, ast.BoolOp):
            tokens = [self.infer(v) for v in node.values]
            return next((t for t in tokens if t is not None), None)
        if isinstance(node, ast.NamedExpr):
            token = self.infer(node.value)
            self._bind(node.target, token)
            return token
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._infer_comprehension(node)
        if isinstance(node, ast.Lambda):
            self._check_closure(node, node.args, node.body)
            return None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.infer(child)
        return None

    def _infer_call(self, node: ast.Call) -> Token | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = self.infer(func.value)
            if receiver is not None and receiver.kind == GEN:
                if func.attr == "spawn":
                    for a in node.args:
                        self.infer(a)
                    self._spawn(receiver, node)
                    return Token(GENLIST)
                if func.attr in DRAW_METHODS:
                    for a in node.args:
                        self.infer(a)
                    for kw in node.keywords:
                        self.infer(kw.value)
                    self._consume(receiver, node, func.value)
                    return None
        resolved, last = self._resolve(node)
        if last == "TrialTask":
            return self._infer_trialtask(node)
        if last == "fanout":
            return self._infer_fanout(node)
        if resolved in self.program.returns_generator_list or \
                last in _SPAWNER_NAMES:
            source = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "rng"), None
            )
            for a in node.args[1:]:
                self.infer(a)
            token = self.infer(source)
            if token is not None and token.kind == GEN:
                self._spawn(token, node)
            return Token(GENLIST)
        if resolved is not None and (
            resolved in self.program.returns_generator
            or last in _RESOLVER_NAMES
        ):
            # Resolver/factory: a generator argument flows through as an
            # alias; a seed produces a fresh stream.
            passed = [self.infer(a) for a in node.args]
            passed += [self.infer(kw.value) for kw in node.keywords]
            alias = next(
                (t for t in passed if t is not None and t.kind == GEN), None
            )
            return alias if alias is not None else Token(GEN)
        # Generic call: passing a generator threads (consumes) it.
        for expr in itertools.chain(
            node.args, (kw.value for kw in node.keywords)
        ):
            token = self.infer(expr)
            if token is not None and token.kind == GEN:
                self._consume(token, expr, expr)
        if isinstance(func, ast.Attribute):
            pass  # receiver already inferred above
        elif not isinstance(func, ast.Name):
            self.infer(func)
        return None

    def _infer_trialtask(self, node: ast.Call) -> Token | None:
        payloads: list[ast.AST] = []
        rng_expr: ast.AST | None = None
        for index, a in enumerate(node.args):
            if index in (1, 2):
                payloads.append(a)
            elif index == 3:
                rng_expr = a
            else:
                self.infer(a)
        for kw in node.keywords:
            if kw.arg in ("args", "kwargs"):
                payloads.append(kw.value)
            elif kw.arg == "rng":
                rng_expr = kw.value
            else:
                self.infer(kw.value)
        if rng_expr is not None:
            token = self.infer(rng_expr)
            if token is not None and token.kind == GEN:
                self._task_payload(token, node, rng_expr)
        for payload in payloads:
            self._scan_payload(payload, node)
        return None

    def _infer_fanout(self, node: ast.Call) -> Token | None:
        rng_expr: ast.AST | None = None
        for index, a in enumerate(node.args):
            if index == 1:
                rng_expr = a
            elif index == 2:
                self._scan_payload(a, node)
            else:
                self.infer(a)
        for kw in node.keywords:
            if kw.arg == "rng":
                rng_expr = kw.value
            elif kw.arg == "kwargs_list":
                self._scan_payload(kw.value, node)
            else:
                self.infer(kw.value)
        if rng_expr is not None:
            token = self.infer(rng_expr)
            if token is not None and token.kind == GEN:
                self._spawn(token, node)
        return None

    def _infer_comprehension(self, node) -> Token | None:
        pushed = 0
        for comp in node.generators:
            self._bind_loop_target(comp.target, comp.iter)
            if _is_set_expression(comp.iter):
                self.loops.append(_LoopCtx(
                    targets=self._target_names(comp.target),
                    unordered=True, node=comp.iter,
                ))
                pushed += 1
            for cond in comp.ifs:
                self.infer(cond)
        element = None
        if isinstance(node, ast.DictComp):
            self.infer(node.key)
            element = self.infer(node.value)
        else:
            element = self.infer(node.elt)
        for _ in range(pushed):
            self.loops.pop()
        if element is not None and element.kind == GEN and \
                isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return Token(GENLIST)
        return None

    # -- binding ------------------------------------------------------- #
    @staticmethod
    def _target_names(target: ast.AST) -> frozenset[str]:
        return frozenset(
            n.id for n in ast.walk(target) if isinstance(n, ast.Name)
        )

    def _bind(self, target: ast.AST, token: Token | None) -> None:
        if isinstance(target, ast.Name):
            if token is not None:
                self.env[target.id] = token
            else:
                self.env.pop(target.id, None)
            if token is not None and target.id in self.global_names:
                self._emit(
                    target, "R7",
                    "Generator assigned to a global name; module-level "
                    "stream state is shared across every caller and task",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if token is not None and token.kind == GENLIST:
                    self._bind(elt, Token(GEN))
                else:
                    self._bind(elt, None)
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and token is not None:
                self.attrs[(target.value.id, target.attr)] = token
        elif isinstance(target, ast.Starred):
            self._bind(target.value, token)

    def _bind_loop_target(self, target: ast.AST, iterable: ast.AST) -> None:
        token = self.infer(iterable)
        if token is not None and token.kind == GENLIST:
            self._bind_fresh(target)
            return
        if isinstance(iterable, ast.Call):
            name = _dotted(iterable.func)
            if name in {"zip", "enumerate"} and \
                    isinstance(target, (ast.Tuple, ast.List)):
                args = iterable.args
                offset = 1 if name == "enumerate" else 0
                kinds = [self._type_only(a) for a in args]
                for j, elt in enumerate(target.elts):
                    source = j - offset
                    if 0 <= source < len(kinds) and \
                            kinds[source] is not None and \
                            kinds[source].kind == GENLIST:
                        self._bind_fresh(elt)
                    else:
                        self._bind(elt, None)
                return
        self._bind(target, None)

    def _bind_fresh(self, target: ast.AST) -> None:
        """Bind a loop target to a fresh per-iteration child stream."""
        if isinstance(target, ast.Name):
            self.env[target.id] = Token(GEN, loop_fresh=True)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_fresh(elt)

    # -- closures (R7) -------------------------------------------------- #
    def _check_closure(self, node: ast.AST, args: ast.arguments,
                       body) -> None:
        """Flag a nested callable that captures a live generator *and*
        escapes the defining scope (returned / stored / global)."""
        own = {a.arg for a in args.posonlyargs + args.args
               + args.kwonlyargs}
        if args.vararg:
            own.add(args.vararg.arg)
        if args.kwarg:
            own.add(args.kwarg.arg)
        statements = body if isinstance(body, list) else [body]
        local = set(own)
        for stmt in statements:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and \
                        isinstance(sub.ctx, ast.Store):
                    local.add(sub.id)
        captured = set()
        for stmt in statements:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and \
                        isinstance(sub.ctx, ast.Load) and \
                        sub.id not in local and sub.id in self.env:
                    captured.add(sub.id)
        if not captured:
            return
        name = getattr(node, "name", None)
        if name is not None and name in self.escaping_names:
            self._emit(
                node, "R7",
                f"closure `{name}` captures live generator(s) "
                f"{sorted(captured)} and escapes this scope; the stream "
                "would be shared across call sites — pass a spawned "
                "child explicitly",
            )

    # -- statements ----------------------------------------------------- #
    def run(self, body: list[ast.stmt]) -> None:
        """Interpret a statement list (call once with a function body)."""
        self.escaping_names = self._escaping_names(body)
        self._run_stmts(body)

    @staticmethod
    def _escaping_names(body: list[ast.stmt]) -> frozenset[str]:
        out: set[str] = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Return) and \
                        isinstance(sub.value, ast.Name):
                    out.add(sub.value.id)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(sub.value, ast.Name):
                            out.add(sub.value.id)
                elif isinstance(sub, ast.Global):
                    out.update(sub.names)
        return frozenset(out)

    def _run_stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._run_stmt(stmt)

    def _run_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            token = self.infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, token)
            if self.at_module_level and token is not None:
                self._emit(
                    stmt, "R7",
                    "Generator stored in module-level state; every "
                    "importer and task shares (and silently advances) "
                    "one stream — create generators per run via "
                    "seed=/rng=",
                )
        elif isinstance(stmt, ast.AnnAssign):
            token = self.infer(stmt.value) if stmt.value else None
            self._bind(stmt.target, token)
            if self.at_module_level and token is not None:
                self._emit(
                    stmt, "R7",
                    "Generator stored in module-level state; every "
                    "importer and task shares one stream",
                )
        elif isinstance(stmt, ast.AugAssign):
            self.infer(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        elif isinstance(stmt, ast.Return):
            token = self.infer(stmt.value)
            if token is not None:
                self.return_kinds.add(token.kind)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(stmt.target, stmt.iter)
            ctx = _LoopCtx(
                targets=self._target_names(stmt.target),
                unordered=_is_set_expression(stmt.iter),
                node=stmt.iter,
            )
            self.loops.append(ctx)
            self._run_stmts(stmt.body)
            self.loops.pop()
            self._run_stmts(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.infer(stmt.test)
            self._run_stmts(stmt.body)
            self._run_stmts(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.infer(stmt.test)
            self._run_stmts(stmt.body)
            self._run_stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.infer(item.context_expr)
            self._run_stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._run_stmts(stmt.body)
            for handler in stmt.handlers:
                self._run_stmts(handler.body)
            self._run_stmts(stmt.orelse)
            self._run_stmts(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_closure(stmt, stmt.args, stmt.body)
            nested = _FunctionFlow(
                self.program, self.module, self.path, self.out,
                env=self.env,
            )
            _seed_params(nested, stmt.args)
            nested.run(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            self._run_class(stmt)
        elif isinstance(stmt, ast.Global):
            self.global_names.update(stmt.names)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.infer(child)

    def _run_class(self, stmt: ast.ClassDef) -> None:
        for item in stmt.body:
            if isinstance(item, (ast.Assign, ast.AnnAssign)):
                value = item.value if isinstance(item, ast.AnnAssign) \
                    else item.value
                token = self._type_only(value) if value is not None else None
                if token is None and value is not None:
                    token = self.infer(value)
                if token is not None:
                    self._emit(
                        item, "R7",
                        f"Generator stored as a class attribute of "
                        f"`{stmt.name}`; the stream is shared by every "
                        "instance — create it per instance in __init__ "
                        "via resolve_rng",
                    )
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = _FunctionFlow(
                    self.program, self.module, self.path, self.out
                )
                _seed_params(method, item.args)
                method.run(item.body)


def _seed_params(flow: _FunctionFlow, args: ast.arguments) -> None:
    """Bind generator-typed parameters in a fresh function scope."""
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if _param_is_generator(arg):
            flow.env[arg.arg] = Token(GEN)


def infer_return_kind(program, module, fndef) -> str | None:
    """GEN/GENLIST if the function's returns type to a generator (list).

    Used by :func:`repro.lint.callgraph.compute_summaries`; runs the
    interpreter with the violation sink disconnected.
    """
    flow = _FunctionFlow(program, module, module.path, out=None)
    _seed_params(flow, fndef.args)
    flow.run(fndef.body)
    if GEN in flow.return_kinds:
        return GEN
    if GENLIST in flow.return_kinds:
        return GENLIST
    return None


def analyze_module(program, module) -> dict[str, list[Violation]]:
    """All R6-R9 findings for one module, keyed by rule code."""
    out: dict[str, list[Violation]] = {}
    top = _FunctionFlow(program, module, module.path, out,
                        at_module_level=True)
    # Module level: R7 for module-global generator state, plus flow
    # through any top-level statements.  Function and class bodies are
    # visited through the statement walker with fresh scopes.
    top.run(module.tree.body)
    return out
