"""Whole-program async-concurrency analysis (rules R10-R14).

The service package (PR 5) moved the reproduction from a library into a
long-running asyncio process, and its determinism anchor — one total
update order per session — is exactly the property that await-point
races destroy.  The post-review hardening of ``_handle_close`` caught
one real close/update race *by hand*; this module catches that class of
bug mechanically, the way :mod:`repro.lint.flow` catches RNG-stream
misuse.

The pass reuses the callgraph layer (:class:`~repro.lint.callgraph.
Program` / :class:`~repro.lint.callgraph.ModuleInfo`) and analyzes every
``async def`` in the program:

R10 — interleaving hazard
    Per shared location (an attribute of ``self``, of a parameter, or a
    module global), an abstract interpreter tracks the last access kind
    through the statement list, branching and merging like the flow
    pass.  A location whose *last* access before an ``await`` was a read
    becomes *armed*; a mutation while armed is the classic stale
    read-modify-write spanning a suspension point.  Re-reading after the
    await disarms; a write as the last pre-await access disarms; both
    accesses under the same ``async with`` lock disarm.  Self-method
    calls are summarized (which self attributes the callee reads/writes,
    to an intra-class fixpoint) so the hazard is visible across helpers
    like ``_session``.
R11 — blocking call in the event loop
    A program-wide fixpoint propagates "performs blocking I/O or sleep"
    through resolvable calls; any call site inside an ``async def``
    whose transitive target blocks (``time.sleep``, sync sockets,
    ``subprocess``, builtin ``open``/``input``) stalls every task on the
    loop.  ``while True`` loops whose body cannot suspend are flagged
    for the same reason.
R12 — lost task / lost exception
    A coroutine called and discarded as a bare expression statement
    never runs; ``create_task``/``ensure_future`` whose handle is
    neither stored, awaited, cancelled, nor given a done-callback loses
    the task's exception (and, under load, the task itself to the
    garbage collector).
R13 — lock-and-queue discipline
    Sync ``with lock:`` held across an await serializes the whole loop;
    an ``asyncio.Queue()`` without ``maxsize`` is an unbounded buffer
    that turns backpressure into memory growth; a future created but
    never resolved or handed off strands its awaiter.
R14 — cross-task aliasing
    A mutable object passed into two concurrently-live tasks (twice
    into ``create_task``/``gather``, or from outside a spawn loop) is
    shared state with no owner; bound-method receivers and
    lock/queue-typed arguments — the sanctioned sharing channels — are
    exempt.

Everything is stdlib-``ast``; the analysis never imports or runs the
code it inspects.  The runtime counterpart is
:mod:`repro.service.sanitizer` (``REPRO_ASYNC_SANITIZE=1``), which
perturbs and replays real interleavings that these rules reason about
statically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import ModuleInfo, Program, _dotted
from repro.lint.violations import Violation

#: Rule codes computed by this pass, in report order.
ASYNC_CODES = ("R10", "R11", "R12", "R13", "R14")

#: Method names that mutate their receiver (container discipline); the
#: consuming-but-coordinating asyncio primitives (``get``, ``get_nowait``,
#: ``task_done``, ``acquire``/``release``, ``cancel``) are deliberately
#: absent — a single-consumer worker loop draining its own queue is the
#: sanctioned pattern, not a hazard.
_MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "put", "put_nowait", "remove", "reverse",
    "setdefault", "sort", "update",
})

#: Fully-qualified callables that block the event loop when called.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "socket.socket", "socket.create_connection", "socket.getaddrinfo",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen", "os.waitpid",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put", "requests.delete",
    "requests.head", "requests.request",
    "open", "input",
})

#: Task-spawning callables (last dotted component).
_SPAWN_TAILS = frozenset({"create_task", "ensure_future"})

#: Constructors whose result is a lock-like synchronization primitive.
_LOCK_FACTORY_TAILS = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
})

#: Name fragments that mark a variable/attribute as lock-like.
_LOCKISH_FRAGMENTS = ("lock", "sem", "mutex", "cond")

#: Queue constructors (unbounded-queue check + R14 exemption).
_QUEUE_FACTORY_TAILS = frozenset({"Queue", "LifoQueue", "PriorityQueue"})

#: Methods that resolve a future.
_FUTURE_RESOLVERS = frozenset({"set_result", "set_exception", "cancel"})


def _is_lockish_name(dotted: str) -> bool:
    tail = dotted.rpartition(".")[2].lower()
    return any(fragment in tail for fragment in _LOCKISH_FRAGMENTS)


def _walk_own(fndef: ast.AST):
    """Walk a function body without descending into nested ``def``s.

    Nested functions are analyzed as frames of their own; counting their
    bodies into the enclosing frame would double-report and mis-scope.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(fndef))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _contains_await(node: ast.AST) -> bool:
    return any(isinstance(sub, (ast.Await, ast.AsyncFor, ast.AsyncWith))
               for sub in _walk_own(node)) or isinstance(
                   node, (ast.Await, ast.AsyncFor, ast.AsyncWith))


# ====================================================================== #
# Shared-location access extraction (R10)                                #
# ====================================================================== #

Loc = tuple[str, str]  # (root name, first attribute)


def _attr_loc(expr: ast.AST, roots: frozenset[str],
              alias: dict[str, Loc]) -> Loc | None:
    """The tracked location an attribute chain refers to, if any.

    ``self.sessions[...]`` and ``self.sessions.pop`` both map to
    ``("self", "sessions")`` — one abstract cell per top-level attribute
    of a root.  Bare roots (``writer.write(...)``) are untracked: a root
    used only through its own methods is single-owner by construction
    here, and tracking it drowns the signal (every ``await
    writer.drain()`` would alias every ``writer.write``).
    """
    attrs: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if node.id in alias and not attrs:
        return alias[node.id]
    if node.id in alias:
        return alias[node.id]
    if node.id in roots and attrs:
        return (node.id, attrs[-1])
    return None


@dataclass
class _Cell:
    """Merged abstract state of one shared location."""

    kinds: set[str] = field(default_factory=set)
    read_node: ast.AST | None = None
    read_lock: str | None = None
    armed: tuple[ast.AST, str | None] | None = None

    def copy(self) -> "_Cell":
        return _Cell(set(self.kinds), self.read_node, self.read_lock,
                     self.armed)


State = dict[Loc, _Cell]


def _copy_state(state: State) -> State:
    return {loc: cell.copy() for loc, cell in state.items()}


def _merge_states(*states: State) -> State:
    out: State = {}
    for state in states:
        for loc, cell in state.items():
            into = out.get(loc)
            if into is None:
                out[loc] = cell.copy()
                continue
            into.kinds |= cell.kinds
            if into.read_node is None:
                into.read_node = cell.read_node
                into.read_lock = cell.read_lock
            if into.armed is None:
                into.armed = cell.armed
    return out


@dataclass
class _Summary:
    """Which self attributes a method (transitively) reads and writes."""

    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    calls_self: set[str] = field(default_factory=set)


def _method_summary(fndef: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> _Summary:
    """Direct (non-transitive) self-attribute access sets of one method."""
    args = fndef.args.posonlyargs + fndef.args.args
    if not args:
        return _Summary()
    self_name = args[0].arg
    roots = frozenset({self_name})
    summary = _Summary()
    for node in _walk_own(fndef):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if (isinstance(func.value, ast.Name)
                        and func.value.id == self_name):
                    summary.calls_self.add(func.attr)
                    continue
                loc = _attr_loc(func.value, roots, {})
                if loc is not None:
                    if func.attr in _MUTATING_METHODS:
                        summary.writes.add(loc[1])
                    else:
                        summary.reads.add(loc[1])
        elif isinstance(node, ast.Attribute):
            loc = _attr_loc(node, roots, {})
            if loc is None:
                continue
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                summary.writes.add(loc[1])
            else:
                summary.reads.add(loc[1])
        elif isinstance(node, (ast.Subscript,)):
            loc = _attr_loc(node.value, roots, {})
            if loc is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
                summary.writes.add(loc[1])
        elif isinstance(node, ast.AugAssign):
            loc = _attr_loc(node.target, roots, {})
            if loc is not None:
                summary.reads.add(loc[1])
                summary.writes.add(loc[1])
    return summary


def _class_summaries(module: ModuleInfo) -> dict[str, dict[str, _Summary]]:
    """Per class: the self-access summary of every method, to a fixpoint.

    The fixpoint folds ``self._helper()`` call chains into the caller's
    sets, so ``_handle_close`` "reads ``sessions``" through
    ``_session`` even though the subscript lives two frames down.
    """
    out: dict[str, dict[str, _Summary]] = {}
    for class_name, classdef in module.classes.items():
        methods: dict[str, _Summary] = {}
        for item in classdef.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[item.name] = _method_summary(item)
        for _ in range(len(methods) + 1):
            changed = False
            for summary in methods.values():
                for callee in summary.calls_self:
                    target = methods.get(callee)
                    if target is None:
                        continue
                    if not (target.reads <= summary.reads
                            and target.writes <= summary.writes):
                        summary.reads |= target.reads
                        summary.writes |= target.writes
                        changed = True
            if not changed:
                break
        out[class_name] = methods
    return out


class _InterleaveScan:
    """The R10 abstract interpreter for one ``async def`` frame."""

    def __init__(self, path: str, fndef: ast.AsyncFunctionDef,
                 summaries: dict[str, _Summary] | None) -> None:
        self.path = path
        self.fndef = fndef
        params = [a.arg for a in (fndef.args.posonlyargs + fndef.args.args
                                  + fndef.args.kwonlyargs)]
        self.roots = frozenset(params)
        self.self_name = params[0] if params and summaries else None
        self.summaries = summaries or {}
        self.alias: dict[str, Loc] = {}
        self.lock: str | None = None
        self.violations: list[Violation] = []
        self._emitted: set[tuple[Loc, int]] = set()

    # -- events --------------------------------------------------------- #
    def _read(self, state: State, loc: Loc, node: ast.AST) -> None:
        cell = state.setdefault(loc, _Cell())
        cell.kinds = {"read"}
        cell.read_node = node
        cell.read_lock = self.lock
        cell.armed = None

    def _write(self, state: State, loc: Loc, node: ast.AST) -> None:
        cell = state.setdefault(loc, _Cell())
        if cell.armed is not None:
            read_node, read_lock = cell.armed
            same_lock = (read_lock is not None and read_lock == self.lock)
            key = (loc, node.lineno)
            if not same_lock and key not in self._emitted:
                self._emitted.add(key)
                root, attr = loc
                read_line = getattr(read_node, "lineno", node.lineno)
                self.violations.append(Violation(
                    self.path, node.lineno, node.col_offset, "R10",
                    f"`{root}.{attr}` is read (line {read_line}) and "
                    "mutated after an intervening await with no common "
                    "lock; another task can interleave at the suspension "
                    "point — re-check state after awaiting, mutate before "
                    "the await, or hold one `async with` lock across both "
                    "accesses",
                ))
        cell.kinds = {"write"}
        cell.armed = None

    def _await_event(self, state: State) -> None:
        for cell in state.values():
            if "read" in cell.kinds and cell.armed is None:
                cell.armed = (cell.read_node, cell.read_lock)

    # -- expression scanning -------------------------------------------- #
    def _apply_summary(self, state: State, method: str,
                       node: ast.AST) -> None:
        summary = self.summaries.get(method)
        if summary is None:
            return
        for attr in sorted(summary.reads):
            self._read(state, (self.self_name, attr), node)
        for attr in sorted(summary.writes):
            self._write(state, (self.self_name, attr), node)

    def _scan_expr(self, state: State, node: ast.AST | None) -> None:
        if node is None or isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            func = node.func
            for arg in node.args:
                self._scan_expr(state, arg)
            for keyword in node.keywords:
                self._scan_expr(state, keyword.value)
            if isinstance(func, ast.Attribute):
                if (self.self_name is not None
                        and isinstance(func.value, ast.Name)
                        and func.value.id == self.self_name
                        and func.attr in self.summaries):
                    self._apply_summary(state, func.attr, node)
                    return
                loc = _attr_loc(func.value, self.roots, self.alias)
                if loc is not None:
                    if func.attr in _MUTATING_METHODS:
                        self._write(state, loc, node)
                    else:
                        self._read(state, loc, func)
                    return
                self._scan_expr(state, func.value)
            return
        if isinstance(node, ast.Attribute):
            loc = _attr_loc(node, self.roots, self.alias)
            if loc is not None:
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    self._write(state, loc, node)
                else:
                    self._read(state, loc, node)
                return
            self._scan_expr(state, node.value)
            return
        if isinstance(node, ast.Subscript):
            loc = _attr_loc(node.value, self.roots, self.alias)
            if loc is not None:
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    self._write(state, loc, node)
                else:
                    self._read(state, loc, node)
            else:
                self._scan_expr(state, node.value)
            self._scan_expr(state, node.slice)
            return
        for child in ast.iter_child_nodes(node):
            self._scan_expr(state, child)

    def _scan_target(self, state: State, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(state, element)
            return
        if isinstance(target, ast.Starred):
            self._scan_target(state, target.value)
            return
        if isinstance(target, ast.Attribute):
            loc = _attr_loc(target, self.roots, self.alias)
            if loc is not None:
                self._write(state, loc, target)
            else:
                self._scan_expr(state, target.value)
            return
        if isinstance(target, ast.Subscript):
            loc = _attr_loc(target.value, self.roots, self.alias)
            if loc is not None:
                self._write(state, loc, target)
            else:
                self._scan_expr(state, target.value)
            self._scan_expr(state, target.slice)

    def _maybe_await(self, state: State, *exprs: ast.AST | None) -> None:
        for expr in exprs:
            if expr is not None and any(
                isinstance(sub, ast.Await)
                for sub in ast.walk(expr)
            ):
                self._await_event(state)
                return

    # -- statement walking ---------------------------------------------- #
    def run(self) -> list[Violation]:
        self._run_block(self.fndef.body, {})
        return self.violations

    def _run_block(self, stmts: list[ast.stmt],
                   state: State) -> tuple[State, bool]:
        for index, stmt in enumerate(stmts):
            state, terminated = self._run_stmt(state, stmt)
            if terminated:
                return state, True
        return state, False

    def _run_stmt(self, state: State,
                  stmt: ast.stmt) -> tuple[State, bool]:
        if isinstance(stmt, ast.Assign):
            self._scan_expr(state, stmt.value)
            self._maybe_await(state, stmt.value)
            for target in stmt.targets:
                self._scan_target(state, target)
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0],
                                                     ast.Name):
                name = stmt.targets[0].id
                loc = _attr_loc(stmt.value, self.roots, self.alias)
                if loc is not None and isinstance(stmt.value, ast.Attribute):
                    self.alias[name] = loc
                else:
                    self.alias.pop(name, None)
            return state, False
        if isinstance(stmt, ast.AnnAssign):
            self._scan_expr(state, stmt.value)
            self._maybe_await(state, stmt.value)
            if stmt.value is not None:
                self._scan_target(state, stmt.target)
            return state, False
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(state, stmt.value)
            loc = _attr_loc(stmt.target, self.roots, self.alias)
            if loc is None and isinstance(stmt.target, ast.Subscript):
                loc = _attr_loc(stmt.target.value, self.roots, self.alias)
            self._maybe_await(state, stmt.value)
            if loc is not None:
                self._read(state, loc, stmt.target)
                self._write(state, loc, stmt.target)
            return state, False
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._scan_target(state, target)
            return state, False
        if isinstance(stmt, (ast.Expr, ast.Assert)):
            value = stmt.value if isinstance(stmt, ast.Expr) else stmt.test
            self._scan_expr(state, value)
            self._maybe_await(state, value)
            return state, False
        if isinstance(stmt, ast.Return):
            self._scan_expr(state, stmt.value)
            self._maybe_await(state, stmt.value)
            return state, True
        if isinstance(stmt, ast.Raise):
            self._scan_expr(state, stmt.exc)
            return state, True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return state, True
        if isinstance(stmt, ast.If):
            self._scan_expr(state, stmt.test)
            self._maybe_await(state, stmt.test)
            body_state, body_term = self._run_block(stmt.body,
                                                    _copy_state(state))
            else_state, else_term = self._run_block(stmt.orelse,
                                                    _copy_state(state))
            if body_term and else_term:
                return state, True
            if body_term:
                return else_state, False
            if else_term:
                return body_state, False
            return _merge_states(body_state, else_state), False
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(state, stmt.iter)
            if isinstance(stmt, ast.AsyncFor):
                self._await_event(state)
            else:
                self._maybe_await(state, stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self.alias.pop(stmt.target.id, None)
            once, _ = self._run_block(stmt.body, _copy_state(state))
            if isinstance(stmt, ast.AsyncFor):
                self._await_event(once)
            twice, _ = self._run_block(stmt.body, _copy_state(once))
            merged = _merge_states(state, once, twice)
            merged, _ = self._run_block(stmt.orelse, merged)
            return merged, False
        if isinstance(stmt, ast.While):
            self._scan_expr(state, stmt.test)
            self._maybe_await(state, stmt.test)
            once, _ = self._run_block(stmt.body, _copy_state(state))
            self._scan_expr(once, stmt.test)
            twice, _ = self._run_block(stmt.body, _copy_state(once))
            merged = _merge_states(state, once, twice)
            merged, _ = self._run_block(stmt.orelse, merged)
            return merged, False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            lock_tag: str | None = None
            for item in stmt.items:
                self._scan_expr(state, item.context_expr)
                name = _dotted(item.context_expr)
                if (isinstance(stmt, ast.AsyncWith) and name is not None
                        and _is_lockish_name(name)):
                    lock_tag = name
            if isinstance(stmt, ast.AsyncWith):
                self._await_event(state)
            previous = self.lock
            if lock_tag is not None:
                self.lock = lock_tag
            state, terminated = self._run_block(stmt.body, state)
            self.lock = previous
            if isinstance(stmt, ast.AsyncWith):
                self._await_event(state)
            return state, terminated
        if isinstance(stmt, ast.Try):
            body_state, body_term = self._run_block(stmt.body,
                                                    _copy_state(state))
            entry = _merge_states(state, body_state)
            branches: list[State] = [] if body_term else [body_state]
            for handler in stmt.handlers:
                handler_state, handler_term = self._run_block(
                    handler.body, _copy_state(entry))
                if not handler_term:
                    branches.append(handler_state)
            if stmt.orelse and not body_term:
                else_state, else_term = self._run_block(
                    stmt.orelse, _copy_state(body_state))
                branches = [b for b in branches if b is not body_state]
                if not else_term:
                    branches.append(else_state)
            terminated = not branches
            merged = _merge_states(*branches) if branches else entry
            if stmt.finalbody:
                merged, final_term = self._run_block(stmt.finalbody, merged)
                terminated = terminated or final_term
            return merged, terminated
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return state, False
        # Remaining simple statements (Pass, Import, Global, Nonlocal...).
        return state, False


# ====================================================================== #
# R11 — blocking reachability                                            #
# ====================================================================== #

def _callee_full_names(program: Program, module: ModuleInfo,
                       class_name: str | None, call: ast.Call
                       ) -> list[str]:
    """Fully-qualified program functions a call site may enter."""
    dotted = _dotted(call.func)
    if dotted is None:
        return []
    head, _, rest = dotted.partition(".")
    if (class_name is not None and head == "self" and rest
            and "." not in rest):
        qualname = f"{class_name}.{rest}"
        if qualname in module.functions:
            return [f"{module.name}.{qualname}"]
        return []
    resolved = module.resolve(dotted)
    out = []
    if resolved in _full_function_index(program):
        out.append(resolved)
    # A resolved class name means a constructor call: enter __init__.
    init = f"{resolved}.__init__"
    if init in _full_function_index(program):
        out.append(init)
    return out


def _full_function_index(program: Program) -> dict[str, tuple[ModuleInfo,
                                                              ast.AST]]:
    index = getattr(program, "_async_fn_index", None)
    if index is None:
        index = {}
        for info in program.modules.values():
            for qualname, fndef in info.functions.items():
                index[f"{info.name}.{qualname}"] = (info, fndef)
        program._async_fn_index = index
    return index


def _blocking_map(program: Program) -> dict[str, tuple[str, str | None]]:
    """Fixpoint map: function full name -> (blocking op, via callee).

    ``via`` is ``None`` for a direct call, else the full name of the
    callee the blocking op is reached through (one hop recorded, enough
    for an actionable message).
    """
    cached = getattr(program, "_async_blocking_map", None)
    if cached is not None:
        return cached
    index = _full_function_index(program)
    blocking: dict[str, tuple[str, str | None]] = {}
    # Seed: direct blocking calls.
    for full, (info, fndef) in index.items():
        class_name = full[len(info.name) + 1:].rpartition(".")[0] or None
        for node in _walk_own(fndef):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            resolved = info.resolve(dotted)
            if resolved in _BLOCKING_CALLS or dotted in _BLOCKING_CALLS:
                blocking.setdefault(full, (resolved, None))
    # Propagate through resolvable calls, bounded like compute_summaries.
    for _ in range(5):
        changed = False
        for full, (info, fndef) in index.items():
            if full in blocking:
                continue
            class_name = full[len(info.name) + 1:].rpartition(".")[0] or None
            for node in _walk_own(fndef):
                if not isinstance(node, ast.Call):
                    continue
                for callee in _callee_full_names(program, info, class_name,
                                                 node):
                    if callee in blocking and callee != full:
                        blocking[full] = (blocking[callee][0], callee)
                        changed = True
                        break
                if full in blocking:
                    break
        if not changed:
            break
    program._async_blocking_map = blocking
    return blocking


def _check_r11(path: str, program: Program, module: ModuleInfo,
               class_name: str | None,
               fndef: ast.AsyncFunctionDef) -> list[Violation]:
    out: list[Violation] = []
    blocking = _blocking_map(program)
    for node in _walk_own(fndef):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            resolved = module.resolve(dotted)
            if resolved in _BLOCKING_CALLS or dotted in _BLOCKING_CALLS:
                op = resolved if resolved in _BLOCKING_CALLS else dotted
                out.append(Violation(
                    path, node.lineno, node.col_offset, "R11",
                    f"blocking `{op}()` inside async `{fndef.name}` stalls "
                    "the whole event loop; use the asyncio equivalent or "
                    "run_in_executor",
                ))
                continue
            for callee in _callee_full_names(program, module, class_name,
                                             node):
                found = blocking.get(callee)
                if found is not None:
                    op, _via = found
                    short = callee.rpartition(".")[2]
                    out.append(Violation(
                        path, node.lineno, node.col_offset, "R11",
                        f"call to `{short}` reaches blocking `{op}()` from "
                        f"async `{fndef.name}`; the event loop stalls for "
                        "its full duration — use the asyncio equivalent or "
                        "run_in_executor",
                    ))
                    break
        elif isinstance(node, ast.While):
            test = node.test
            is_const_true = (isinstance(test, ast.Constant)
                             and bool(test.value))
            if is_const_true and not _contains_await(node):
                out.append(Violation(
                    path, node.lineno, node.col_offset, "R11",
                    f"`while True` without an await inside async "
                    f"`{fndef.name}` can spin forever without yielding; "
                    "await inside the loop or move the work off the loop",
                ))
    return out


# ====================================================================== #
# R12 — lost task / lost exception                                       #
# ====================================================================== #

def _async_function_index(program: Program) -> set[str]:
    index = getattr(program, "_async_def_index", None)
    if index is None:
        index = {
            full
            for full, (_info, fndef) in _full_function_index(program).items()
            if isinstance(fndef, ast.AsyncFunctionDef)
        }
        program._async_def_index = index
    return index


def _check_r12(path: str, program: Program, module: ModuleInfo,
               class_name: str | None,
               fndef: ast.AsyncFunctionDef) -> list[Violation]:
    out: list[Violation] = []
    async_defs = _async_function_index(program)
    for node in _walk_own(fndef):
        if not isinstance(node, ast.Expr) or not isinstance(node.value,
                                                            ast.Call):
            continue
        call = node.value
        dotted = _dotted(call.func)
        if dotted is None:
            continue
        tail = dotted.rpartition(".")[2]
        if tail in _SPAWN_TAILS:
            out.append(Violation(
                path, node.lineno, node.col_offset, "R12",
                f"`{tail}` handle is dropped; keep a reference and await "
                "or cancel it (or add_done_callback) so the task cannot "
                "be garbage-collected and its exception cannot vanish",
            ))
            continue
        for callee in _callee_full_names(program, module, class_name, call):
            if callee in async_defs:
                short = callee.rpartition(".")[2]
                out.append(Violation(
                    path, node.lineno, node.col_offset, "R12",
                    f"coroutine `{short}(...)` is never awaited; the call "
                    "builds a coroutine object and discards it — nothing "
                    "runs and exceptions are lost",
                ))
                break
    # create_task assigned to a name that is then never used.
    for node in _walk_own(fndef):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            continue
        dotted = _dotted(node.value.func)
        if dotted is None or dotted.rpartition(".")[2] not in _SPAWN_TAILS:
            continue
        name = node.targets[0].id
        in_assign = {id(sub) for sub in ast.walk(node)}
        used = any(
            isinstance(sub, ast.Name) and sub.id == name
            and isinstance(sub.ctx, ast.Load) and id(sub) not in in_assign
            for sub in _walk_own(fndef)
        )
        if not used:
            out.append(Violation(
                path, node.lineno, node.col_offset, "R12",
                f"task handle `{name}` is never awaited, cancelled, or "
                "given a done-callback; its exception is silently lost",
            ))
    return out


# ====================================================================== #
# R13 — lock-and-queue discipline                                        #
# ====================================================================== #

def _lock_aliases(scope: ast.AST) -> set[str]:
    """Names bound to lock-like constructor calls within ``scope``."""
    out: set[str] = set()
    for node in ast.walk(scope):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            dotted = _dotted(node.value.func)
            if dotted is not None and \
                    dotted.rpartition(".")[2] in _LOCK_FACTORY_TAILS:
                out.add(node.targets[0].id)
    return out


def _queue_aliases(scope: ast.AST) -> set[str]:
    """Names bound to asyncio queue constructor calls within ``scope``."""
    out: set[str] = set()
    for node in ast.walk(scope):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            dotted = _dotted(node.value.func)
            if dotted is not None and \
                    dotted.rpartition(".")[2] in _QUEUE_FACTORY_TAILS:
                out.add(node.targets[0].id)
    return out


def _is_lockish_expr(expr: ast.AST, aliases: set[str]) -> bool:
    dotted = _dotted(expr)
    if dotted is None:
        return False
    head = dotted.partition(".")[0]
    return _is_lockish_name(dotted) or dotted in aliases or head in aliases


def _check_r13_module(path: str, module: ModuleInfo) -> list[Violation]:
    """Module-wide R13 checks (queue bounds, stranded futures)."""
    out: list[Violation] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        head, _, tail = dotted.rpartition(".")
        if tail in _QUEUE_FACTORY_TAILS and head in {"asyncio", "", "queues",
                                                     "asyncio.queues"}:
            # ``queue.Queue`` (threading) has different discipline; only
            # the asyncio constructors are judged here.
            resolved = module.resolve(dotted)
            if not resolved.startswith("asyncio"):
                continue
            maxsize = None
            if node.args:
                maxsize = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "maxsize":
                    maxsize = keyword.value
            unbounded = maxsize is None or (
                isinstance(maxsize, ast.Constant) and maxsize.value == 0
            )
            if unbounded:
                out.append(Violation(
                    path, node.lineno, node.col_offset, "R13",
                    f"unbounded `{dotted}()`; give it a maxsize so a slow "
                    "consumer surfaces as backpressure instead of "
                    "unbounded memory growth",
                ))
    # Stranded futures: created, awaited maybe, but never resolved or
    # handed to anything that could resolve it.
    for qualname, fndef in module.functions.items():
        out.extend(_check_r13_futures(path, fndef))
    return out


def _check_r13_futures(path: str, fndef: ast.AST) -> list[Violation]:
    out: list[Violation] = []
    for node in _walk_own(fndef):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        # ``loop.create_future()`` chains through a call
        # (``get_running_loop().create_future()``), so judge by the
        # final attribute, not a resolvable dotted name.
        if isinstance(func, ast.Attribute):
            tail = func.attr
        else:
            dotted = _dotted(func)
            tail = dotted.rpartition(".")[2] if dotted else ""
        if tail not in {"create_future", "Future"}:
            continue
        name = node.targets[0].id
        in_assign = {id(sub) for sub in ast.walk(node)}
        # ``await fut`` consumes the future without resolving it; those
        # Name occurrences must not count as a hand-off.
        awaiting = {
            id(sub.value) for sub in _walk_own(fndef)
            if isinstance(sub, ast.Await) and isinstance(sub.value, ast.Name)
        }

        def mentions(tree: ast.AST) -> bool:
            return any(
                isinstance(inner, ast.Name) and inner.id == name
                and id(inner) not in awaiting
                for inner in ast.walk(tree)
            )

        resolved = False
        escaped = False
        for sub in _walk_own(fndef):
            if isinstance(sub, ast.Call):
                if (isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == name
                        and sub.func.attr in _FUTURE_RESOLVERS):
                    resolved = True
                for arg in list(sub.args) + [k.value for k in sub.keywords]:
                    if mentions(arg):
                        escaped = True
            elif isinstance(sub, (ast.Return, ast.Yield)):
                if sub.value is not None and mentions(sub.value):
                    escaped = True
            elif (isinstance(sub, ast.Assign) and id(sub) not in in_assign
                  and mentions(sub.value)):
                escaped = True
        if not resolved and not escaped:
            out.append(Violation(
                path, node.lineno, node.col_offset, "R13",
                f"future `{name}` is never resolved (set_result/"
                "set_exception/cancel) nor handed off; anything awaiting "
                "it hangs forever",
            ))
    return out


def _check_r13(path: str, module: ModuleInfo, class_name: str | None,
               fndef: ast.AsyncFunctionDef,
               module_locks: set[str]) -> list[Violation]:
    out: list[Violation] = []
    aliases = module_locks | _lock_aliases(fndef)
    for node in _walk_own(fndef):
        if isinstance(node, ast.With):
            held = [item for item in node.items
                    if _is_lockish_expr(item.context_expr, aliases)]
            if held and _contains_await(node):
                name = _dotted(held[0].context_expr) or "lock"
                out.append(Violation(
                    path, node.lineno, node.col_offset, "R13",
                    f"sync `with {name}:` held across an await blocks "
                    "every other task on the loop; use `async with` on an "
                    "asyncio lock",
                ))
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "acquire"
                    and _is_lockish_expr(func.value, aliases)):
                awaited = any(
                    isinstance(sub, ast.Await)
                    and isinstance(sub.value, ast.Call)
                    and sub.value is node
                    for sub in _walk_own(fndef)
                )
                if not awaited:
                    name = _dotted(func.value) or "lock"
                    out.append(Violation(
                        path, node.lineno, node.col_offset, "R13",
                        f"`{name}.acquire()` without await in an async "
                        "function; use `async with {0}:` (or await the "
                        "acquire) so the loop is never blocked".format(name),
                    ))
    return out


# ====================================================================== #
# R14 — cross-task aliasing                                              #
# ====================================================================== #

def _spawn_payload_roots(expr: ast.AST, skip: set[str]) -> set[str]:
    """Shared roots of a spawned coroutine expression.

    Bound-method receivers (``service._respond(line)`` — the receiver is
    the *owner* running the task) and comprehension targets are
    excluded; what remains are plain names and ``self.attr`` chains that
    the new task would alias with its siblings.
    """
    roots: set[str] = set()

    def visit(node: ast.AST, comp_targets: frozenset[str]) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                pass  # the callee name is not a payload
            elif isinstance(func, ast.Attribute):
                # Skip the receiver chain entirely; a bound method's
                # self is not "escaping" into the task.
                if not isinstance(func.value, (ast.Name, ast.Attribute)):
                    visit(func.value, comp_targets)
            else:
                visit(func, comp_targets)
            for arg in node.args:
                visit(arg, comp_targets)
            for keyword in node.keywords:
                visit(keyword.value, comp_targets)
            return
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                if head == "self" and rest:
                    roots.add(f"self.{rest.partition('.')[0]}")
                return
            visit(node.value, comp_targets)
            return
        if isinstance(node, ast.Name):
            if node.id not in skip and node.id not in comp_targets:
                roots.add(node.id)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            targets = set(comp_targets)
            for gen in node.generators:
                for sub in ast.walk(gen.target):
                    if isinstance(sub, ast.Name):
                        targets.add(sub.id)
                visit(gen.iter, frozenset(targets))
            if isinstance(node, ast.DictComp):
                visit(node.key, frozenset(targets))
                visit(node.value, frozenset(targets))
            else:
                visit(node.elt, frozenset(targets))
            return
        if isinstance(node, ast.Starred):
            visit(node.value, comp_targets)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, comp_targets)

    visit(expr, frozenset())
    return roots


def _parent_map(fndef: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in _walk_own(fndef):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _loop_fresh_names(loop: ast.For | ast.While | ast.AsyncFor) -> set[str]:
    fresh: set[str] = set()
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        for sub in ast.walk(loop.target):
            if isinstance(sub, ast.Name):
                fresh.add(sub.id)
    for stmt in loop.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                fresh.add(sub.id)
    return fresh


def _check_r14(path: str, module: ModuleInfo, class_name: str | None,
               fndef: ast.AsyncFunctionDef,
               module_locks: set[str]) -> list[Violation]:
    skip = (module_locks | _lock_aliases(fndef) | _queue_aliases(fndef))
    parents = _parent_map(fndef)
    out: list[Violation] = []
    # root -> the payload expression that first carried it (two args of
    # one gather are distinct payloads, so each is its own spawn site).
    seen_roots: dict[str, ast.AST] = {}
    for node in _walk_own(fndef):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        tail = dotted.rpartition(".")[2]
        if tail in _SPAWN_TAILS:
            payloads = node.args[:1]
        elif tail == "gather":
            payloads = list(node.args)
        else:
            continue
        in_loop_spawn = tail in _SPAWN_TAILS
        loop_fresh: set[str] | None = None
        if in_loop_spawn:
            cursor = parents.get(id(node))
            while cursor is not None:
                if isinstance(cursor, (ast.For, ast.While, ast.AsyncFor)):
                    names = _loop_fresh_names(cursor)
                    loop_fresh = (names if loop_fresh is None
                                  else loop_fresh & names)
                cursor = parents.get(id(cursor))
        for payload in payloads:
            roots = _spawn_payload_roots(payload, skip)
            for root in sorted(roots):
                previous = seen_roots.get(root)
                if previous is not None and previous is not payload:
                    out.append(Violation(
                        path, node.lineno, node.col_offset, "R14",
                        f"mutable `{root}` escapes into a second "
                        "concurrently-live task; give each task its own "
                        "copy or route sharing through a queue/lock",
                    ))
                elif loop_fresh is not None and root not in loop_fresh:
                    out.append(Violation(
                        path, node.lineno, node.col_offset, "R14",
                        f"task spawned in a loop captures `{root}` from "
                        "outside the loop; every iteration's task aliases "
                        "the same object — pass per-iteration state or "
                        "use a queue",
                    ))
                seen_roots.setdefault(root, payload)
    return out


# ====================================================================== #
# Entry points                                                           #
# ====================================================================== #

def _async_frames(module: ModuleInfo):
    """Yield ``(class_name, fndef)`` for every async def in the module.

    Nested async defs (connection writer loops, test scenarios) are
    frames of their own; the enclosing class is attached only for direct
    methods, where ``self`` summaries are meaningful.
    """
    method_ids = {
        id(fndef): qualname.rpartition(".")[0] or None
        for qualname, fndef in module.functions.items()
    }
    for node in ast.walk(module.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield method_ids.get(id(node)), node


def analyze_module(program: Program,
                   module: ModuleInfo) -> dict[str, list[Violation]]:
    """All R10-R14 findings for one module, keyed by rule code."""
    path = module.path
    out: dict[str, list[Violation]] = {code: [] for code in ASYNC_CODES}
    has_async = any(isinstance(node, ast.AsyncFunctionDef)
                    for node in ast.walk(module.tree))
    summaries = _class_summaries(module) if has_async else {}
    module_locks = _lock_aliases(module.tree)
    if has_async:
        out["R13"].extend(_check_r13_module(path, module))
    for class_name, fndef in _async_frames(module):
        class_summaries = summaries.get(class_name) if class_name else None
        out["R10"].extend(
            _InterleaveScan(path, fndef, class_summaries).run())
        out["R11"].extend(
            _check_r11(path, program, module, class_name, fndef))
        out["R12"].extend(
            _check_r12(path, program, module, class_name, fndef))
        out["R13"].extend(
            _check_r13(path, module, class_name, fndef, module_locks))
        out["R14"].extend(
            _check_r14(path, module, class_name, fndef, module_locks))
    return out
