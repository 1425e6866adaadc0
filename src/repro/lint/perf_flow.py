"""Whole-program performance/complexity analysis (rules R15-R19).

The ROADMAP's next big bet is a vectorized sparsifier/matcher core;
what blocks it is that nothing can *say where the work goes*.  The
Theorem 3.5 per-update cap is enforced as a chunk counter, and the
pure-python dict/set inner loops that cap the service at ~2.5k
updates/sec are invisible to R1-R14.  This pass extends the repo's
static-analysis lineage (flow → async_flow) with a performance lens:

R15 — scalar-loop-over-array-substrate
    A python ``for`` loop iterating the graph substrate (``edges()`` /
    ``neighbors()`` / ``non_isolated_vertices()``, a numpy index
    producer like ``np.flatnonzero``, a numpy array, or
    ``range(num_vertices)``) whose body does per-element numpy work
    (``np.*`` calls, ``int()``/``float()`` of an array subscript, or
    array subscript loads).  The flat arrays already exist
    (``repro.graphs.adjacency``); the loop should be a vectorized
    expression over them.
R16 — quadratic-membership
    ``in``/``not in`` probes against a list- or tuple-typed name, or
    ``.index()``/``.remove()`` on one, inside a loop of a function
    reachable from the update/rebuild hot roots: O(n) per probe makes
    the loop quadratic.  Literal-display membership (``x in ("a",
    "b")``) is constant-size and exempt.
R17 — hot-loop-allocation
    Container construction, comprehensions, numpy array constructors,
    or string formatting per loop iteration inside a function
    transitively reachable from the ``DynamicSparsifier``-style update
    entry points (interprocedural, via the call graph); also a call,
    inside such a loop, to a hot in-program function that allocates —
    the one-hop form that catches per-vertex list construction hidden
    behind ``sample_neighbors``.
R18 — unbounded-work-path
    A ``while`` loop on the hot update path whose condition and
    break/return guards never mention a budget fragment (``budget``,
    ``chunk``, ``cap``, ``limit``, ``quota``, ``max_``): a static
    escape from the Theorem 3.5 ``max_chunks_per_update`` cap.
    Structurally bounded walks (augmenting paths ≤ n hops) are real
    findings to pragma with their bound, not noise.
R19 — redundant-recompute
    A loop-invariant ``len(...)`` or an attribute chain of depth ≥ 2
    re-evaluated ≥ 2 times per iteration (or a ``len`` in a ``while``
    condition) where the analysis can prove the root is never stored,
    deleted, or mutated in the loop: hoist it.

**Hot roots.**  R16/R17/R18 are scoped to functions reachable from the
update entry points in :data:`HOT_ROOTS` (suffix-matched against
fully-qualified names, so ``Session.apply`` matches
``repro.service.session.Session.apply``).  Reachability reuses the
:mod:`repro.lint.callgraph` program index and resolves direct calls,
``self`` methods, ``self.<attr>`` methods through a program-wide
attribute-type binder, and annotated/constructed local receivers.

Everything is stdlib-``ast``; the analysis never imports or runs the
code it inspects.  The runtime counterpart is
:mod:`repro.instrument.workmeter` (``REPRO_WORK_AUDIT=1``), which
counts the same categories of work these rules reason about
statically.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from repro.lint.callgraph import ModuleInfo, Program, _dotted, _numpy_aliases
from repro.lint.violations import Violation

#: Hot roots: the update entry points of the dynamic algorithms and the
#: served session, suffix-matched against fully-qualified names.  The
#: call graph does not follow inheritance, so the shared
#: windowed-rebuild core and the matchers' rebuild generators (reached
#: only through ``self`` calls across the class hierarchy) are named.
HOT_ROOTS = (
    "DynamicSparsifier.update",
    "LazyRebuildMatching.update",
    "ObliviousDynamicMatching.update",
    "WindowedRebuild._advance",
    "_rebuild_generator",
    "DynamicMaximalMatching.update",
    "Session.apply",
    "incremental_rebuild",
)

#: Substrate-producing call tails: iterating these is iterating the
#: graph's vertex/edge structure element by element.
_SUBSTRATE_ITER_TAILS = frozenset({
    "edges", "neighbors", "non_isolated_vertices",
})

#: numpy index/array producers whose result a scalar loop then walks.
_NP_ITER_TAILS = frozenset({
    "flatnonzero", "nonzero", "where", "arange", "argsort", "unique",
})

#: Attribute names that denote the vertex/edge count of a graph.
_COUNT_ATTRS = frozenset({"num_vertices", "num_edges"})

#: Parameter annotations recognised as "this is a numpy array".
_NDARRAY_ANNOTATIONS = frozenset({
    "np.ndarray", "numpy.ndarray", "ndarray",
})

#: Bare container constructors R17 counts as allocations.
_ALLOC_CALLS = frozenset({
    "list", "dict", "set", "frozenset", "bytearray", "deque",
    "defaultdict", "Counter", "OrderedDict",
})

#: numpy constructors R17 counts as allocations (``np.<tail>``).
_NP_ALLOC_TAILS = frozenset({
    "zeros", "ones", "full", "empty", "array", "asarray", "arange",
    "copy", "concatenate", "tile", "repeat",
})

#: Identifier fragments that mark a loop as budget-dominated for R18.
_BUDGET_FRAGMENTS = ("budget", "chunk", "cap", "limit", "quota", "max_")

#: Receiver methods that mutate their object (defeats R19 invariance).
_MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "put", "put_nowait",
    "remove", "reverse", "setdefault", "sort", "update", "fill",
})


# --------------------------------------------------------------------- #
# Scope walking                                                         #
# --------------------------------------------------------------------- #
def _scope_nodes(scope: ast.AST):
    """Nodes of one lexical scope, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.Module):
    """The module scope plus every function scope anywhere in the tree."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _assign_name_targets(node: ast.AST) -> list[str]:
    """Simple ``Name`` targets of an Assign/AnnAssign, else empty."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


# --------------------------------------------------------------------- #
# Hot-set computation (shared by R16/R17/R18)                           #
# --------------------------------------------------------------------- #
def _resolve_class(module: ModuleInfo, dotted: str,
                   class_fulls: set) -> str | None:
    """Fully-qualified program class a dotted name denotes, if any.

    ``ModuleInfo.resolve`` qualifies imports and bare local functions
    but leaves a same-module class name unchanged, so try the local
    qualification too.
    """
    resolved = module.resolve(dotted)
    if resolved in class_fulls:
        return resolved
    local = f"{module.name}.{dotted}"
    if local in class_fulls:
        return local
    return None


@dataclass
class _HotBundle:
    """Program-wide reachability facts for one hot-root spec set."""

    #: full name -> (module, class name or None, definition).
    index: dict = field(default_factory=dict)
    #: fully-qualified class names defined in the program.
    class_fulls: set = field(default_factory=set)
    #: ``self.<attr>`` name -> class fulls it is constructed from.
    attr_types: dict = field(default_factory=dict)
    #: fully-qualified functions reachable from the hot roots.
    hot: frozenset = frozenset()
    #: cache: full name -> whether its body allocates (R17 one-hop).
    _allocates: dict = field(default_factory=dict)
    #: cache: id(fndef) -> {local name: class full}.
    _local_types: dict = field(default_factory=dict)

    def local_types(self, module: ModuleInfo, fndef) -> dict:
        """Class-typed locals of one function (annotations + ctor calls)."""
        cached = self._local_types.get(id(fndef))
        if cached is not None:
            return cached
        types: dict[str, str] = {}
        args = fndef.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            ann = _dotted(arg.annotation) if arg.annotation is not None \
                else None
            if ann is None:
                continue
            resolved = _resolve_class(module, ann, self.class_fulls)
            if resolved is not None:
                types[arg.arg] = resolved
        for node in ast.walk(fndef):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call):
                callee = _dotted(node.value.func)
                if callee is None:
                    continue
                resolved = _resolve_class(module, callee, self.class_fulls)
                if resolved is not None:
                    for name in _assign_name_targets(node):
                        types[name] = resolved
        self._local_types[id(fndef)] = types
        return types

    def call_targets(self, module: ModuleInfo, class_name: str | None,
                     fndef, call: ast.Call) -> list[str]:
        """In-program functions a call site may invoke (resolved names)."""
        dotted = _dotted(call.func)
        if dotted is None:
            return []
        parts = dotted.split(".")
        candidates: list[str] = []
        if parts[0] == "self" and class_name is not None:
            if len(parts) == 2:
                candidates.append(f"{module.name}.{class_name}.{parts[1]}")
            elif len(parts) == 3:
                for cls in sorted(self.attr_types.get(parts[1], ())):
                    candidates.append(f"{cls}.{parts[2]}")
        elif len(parts) == 2:
            receiver = self.local_types(module, fndef).get(parts[0])
            if receiver is not None:
                candidates.append(f"{receiver}.{parts[1]}")
            else:
                candidates.append(module.resolve(dotted))
        else:
            candidates.append(module.resolve(dotted))
        return [c for c in candidates if c in self.index]

    def allocates(self, full: str) -> bool:
        """Whether a hot function's body contains an allocation site."""
        cached = self._allocates.get(full)
        if cached is not None:
            return cached
        module, _class_name, fndef = self.index[full]
        np_aliases = _numpy_aliases(ast.walk(module.tree))
        found = any(
            _alloc_label(node, np_aliases) is not None
            for node in ast.walk(fndef)
            if node is not fndef
        )
        self._allocates[full] = found
        return found


def _hot_bundle(program: Program) -> _HotBundle:
    """Build (or fetch) the program's hot-path reachability bundle."""
    key = "perf-bundle"
    cached = program.analysis_cache.get(key)
    if cached is not None:
        return cached
    bundle = _HotBundle()
    for info in program.modules.values():
        for cls in info.classes:
            bundle.class_fulls.add(f"{info.name}.{cls}")
        for qualname, fndef in info.functions.items():
            class_name = qualname.rpartition(".")[0] or None
            bundle.index[f"{info.name}.{qualname}"] = (
                info, class_name, fndef
            )
    # Program-wide attribute-type binder: ``self.X = Cls(...)`` anywhere
    # types ``self.X`` as Cls (a deliberate over-approximation — attr
    # names collide across classes toward more reachability, never less).
    for _full, (info, _cls, fndef) in bundle.index.items():
        for node in ast.walk(fndef):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            callee = _dotted(node.value.func)
            if callee is None:
                continue
            resolved = _resolve_class(info, callee, bundle.class_fulls)
            if resolved is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    bundle.attr_types.setdefault(
                        target.attr, set()
                    ).add(resolved)
    roots = [
        full for full in bundle.index
        if any(full == spec or full.endswith("." + spec)
               for spec in HOT_ROOTS)
    ]
    hot: set[str] = set(roots)
    worklist: deque[str] = deque(roots)
    while worklist:
        full = worklist.popleft()
        module, class_name, fndef = bundle.index[full]
        for node in ast.walk(fndef):
            if not isinstance(node, ast.Call):
                continue
            for target in bundle.call_targets(
                module, class_name, fndef, node
            ):
                if target not in hot:
                    hot.add(target)
                    worklist.append(target)
    bundle.hot = frozenset(hot)
    program.analysis_cache[key] = bundle
    return bundle


def _hot_functions_in(bundle: _HotBundle, module: ModuleInfo):
    """(full, class name, def) of this module's hot functions."""
    for qualname, fndef in module.functions.items():
        full = f"{module.name}.{qualname}"
        if full in bundle.hot:
            yield full, (qualname.rpartition(".")[0] or None), fndef


# --------------------------------------------------------------------- #
# R15 — scalar loop over array substrate                                #
# --------------------------------------------------------------------- #
def _r15_scope_types(scope: ast.AST, np_aliases: set[str]
                     ) -> tuple[set[str], set[str]]:
    """(numpy-typed names, vertex/edge-count names) of one scope."""
    numpy_names: set[str] = set()
    count_names: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            ann = _dotted(arg.annotation) if arg.annotation is not None \
                else None
            if ann in _NDARRAY_ANNOTATIONS:
                numpy_names.add(arg.arg)
    for node in _scope_nodes(scope):
        targets = _assign_name_targets(node)
        if not targets:
            continue
        value = getattr(node, "value", None)
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func)
            if dotted is not None and "." in dotted and \
                    dotted.split(".")[0] in np_aliases:
                numpy_names.update(targets)
        elif isinstance(value, ast.Attribute) and value.attr in _COUNT_ATTRS:
            count_names.update(targets)
    return numpy_names, count_names


def _r15_substrate(iter_node: ast.AST, np_aliases: set[str],
                   numpy_names: set[str], count_names: set[str]
                   ) -> str | None:
    """Describe the array substrate an iterable walks, or ``None``."""
    if isinstance(iter_node, ast.Name) and iter_node.id in numpy_names:
        return f"numpy array `{iter_node.id}`"
    if not isinstance(iter_node, ast.Call):
        return None
    dotted = _dotted(iter_node.func)
    if dotted is None:
        return None
    head, _, tail = dotted.rpartition(".")
    if tail in _SUBSTRATE_ITER_TAILS:
        return f"`{dotted}()`"
    if head.split(".")[0] in np_aliases and tail in _NP_ITER_TAILS:
        return f"`{dotted}()`"
    if dotted == "range":
        for arg in iter_node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name) and sub.id in count_names:
                    return f"`range({sub.id})` (vertex count)"
                if isinstance(sub, ast.Attribute) and \
                        sub.attr in _COUNT_ATTRS:
                    return f"`range(.. {sub.attr})`"
    return None


def _r15_trigger(loop: ast.For, np_aliases: set[str],
                 numpy_names: set[str]) -> str | None:
    """First per-element array operation in a loop body, described."""
    for stmt in loop.body + loop.orelse:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is not None and "." in dotted and \
                        dotted.split(".")[0] in np_aliases:
                    return f"per-element `{dotted}()` call"
                if dotted in ("int", "float") and len(node.args) == 1 and \
                        isinstance(node.args[0], ast.Subscript) and \
                        isinstance(node.args[0].value, ast.Name) and \
                        node.args[0].value.id in numpy_names:
                    return (f"per-element `{dotted}("
                            f"{node.args[0].value.id}[..])` conversion")
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, ast.Load) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in numpy_names:
                return f"per-element `{node.value.id}[..]` read"
    return None


def _check_r15(module: ModuleInfo) -> list[Violation]:
    """Scalar python loops over the flat array substrate."""
    np_aliases = _numpy_aliases(ast.walk(module.tree))
    out: list[Violation] = []
    for scope in _scopes(module.tree):
        numpy_names, count_names = _r15_scope_types(scope, np_aliases)
        for node in _scope_nodes(scope):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            substrate = _r15_substrate(
                node.iter, np_aliases, numpy_names, count_names
            )
            if substrate is None:
                continue
            trigger = _r15_trigger(node, np_aliases, numpy_names)
            if trigger is None:
                continue
            out.append(Violation(
                module.path, node.lineno, node.col_offset, "R15",
                f"scalar python loop over array substrate {substrate} "
                f"with {trigger}; hot arrays live in flat numpy storage "
                "(repro.graphs.adjacency) — vectorize the loop body",
            ))
    return out


# --------------------------------------------------------------------- #
# R16 — quadratic membership on the hot path                            #
# --------------------------------------------------------------------- #
def _sequence_typed_names(fndef) -> dict[str, str]:
    """Names assigned a list/tuple in one function -> kind label."""
    typed: dict[str, str] = {}
    for node in ast.walk(fndef):
        targets = _assign_name_targets(node)
        if not targets:
            continue
        value = getattr(node, "value", None)
        kind = None
        if isinstance(value, (ast.List, ast.ListComp)):
            kind = "list"
        elif isinstance(value, ast.Tuple):
            kind = "tuple"
        elif isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee in ("list", "sorted"):
                kind = "list"
            elif callee == "tuple":
                kind = "tuple"
        if kind is not None:
            for name in targets:
                typed[name] = kind
    return typed


def _loop_bodies(fndef):
    """(loop, nodes-evaluated-per-iteration) for each loop in a def.

    For a ``for`` loop the per-iteration region is body+orelse (the
    iterable is evaluated once); for a ``while`` it includes the test.
    """
    for loop in ast.walk(fndef):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            region = loop.body + loop.orelse
        elif isinstance(loop, ast.While):
            region = [loop.test] + loop.body + loop.orelse
        else:
            continue
        nodes: list[ast.AST] = []
        for stmt in region:
            nodes.extend(ast.walk(stmt))
        yield loop, nodes


def _check_r16(bundle: _HotBundle, module: ModuleInfo) -> list[Violation]:
    """List/tuple membership probes inside hot-path loops."""
    out: list[Violation] = []
    for full, _class_name, fndef in _hot_functions_in(bundle, module):
        typed = _sequence_typed_names(fndef)
        if not typed:
            continue
        seen: set[int] = set()
        for _loop, nodes in _loop_bodies(fndef):
            for node in nodes:
                if id(node) in seen:
                    continue
                if isinstance(node, ast.Compare):
                    for op, comp in zip(node.ops, node.comparators):
                        if isinstance(op, (ast.In, ast.NotIn)) and \
                                isinstance(comp, ast.Name) and \
                                comp.id in typed:
                            seen.add(id(node))
                            out.append(Violation(
                                module.path, node.lineno, node.col_offset,
                                "R16",
                                f"membership probe against {typed[comp.id]} "
                                f"`{comp.id}` inside a loop reachable from "
                                f"the update path (`{full.rpartition('.')[2]}"
                                "`); O(n) per probe — use a set/dict",
                            ))
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("index", "remove") and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id in typed:
                    seen.add(id(node))
                    out.append(Violation(
                        module.path, node.lineno, node.col_offset, "R16",
                        f"`{node.func.value.id}.{node.func.attr}()` on a "
                        f"{typed[node.func.value.id]} inside a hot-path "
                        "loop; repeated linear scans — index with a "
                        "dict/set instead",
                    ))
    return out


# --------------------------------------------------------------------- #
# R17 — allocation per iteration on the hot path                        #
# --------------------------------------------------------------------- #
def _alloc_label(node: ast.AST, np_aliases: set[str]) -> str | None:
    """Describe an allocation expression, or ``None``."""
    if isinstance(node, ast.List):
        return "list literal"
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return "comprehension"
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted is None:
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "format":
                return "str.format() call"
            return None
        head, _, tail = dotted.rpartition(".")
        if not head and dotted in _ALLOC_CALLS:
            return f"`{dotted}()` construction"
        if head.split(".")[0] in np_aliases and tail in _NP_ALLOC_TAILS:
            return f"`{dotted}()` array allocation"
        if tail == "format":
            return f"`{dotted}()` formatting"
    return None


def _check_r17(bundle: _HotBundle, module: ModuleInfo) -> list[Violation]:
    """Per-iteration allocations in hot-reachable functions."""
    np_aliases = _numpy_aliases(ast.walk(module.tree))
    out: list[Violation] = []
    for full, class_name, fndef in _hot_functions_in(bundle, module):
        short = full.rpartition(".")[2]
        seen: set[int] = set()
        for _loop, nodes in _loop_bodies(fndef):
            for node in nodes:
                if id(node) in seen:
                    continue
                label = _alloc_label(node, np_aliases)
                if label is not None:
                    seen.add(id(node))
                    out.append(Violation(
                        module.path, node.lineno, node.col_offset, "R17",
                        f"{label} allocated every iteration inside hot "
                        f"function `{short}` (reachable from an update "
                        "entry point); hoist or preallocate a reused "
                        "buffer",
                    ))
                    continue
                if not isinstance(node, ast.Call):
                    continue
                for target in bundle.call_targets(
                    module, class_name, fndef, node
                ):
                    if target in bundle.hot and bundle.allocates(target):
                        seen.add(id(node))
                        callee = target.rpartition(".")[2]
                        out.append(Violation(
                            module.path, node.lineno, node.col_offset,
                            "R17",
                            f"call to `{callee}()` allocates on every "
                            f"iteration of a loop in hot function "
                            f"`{short}`; preallocate or batch the "
                            "per-element work",
                        ))
                        break
    return out


# --------------------------------------------------------------------- #
# R18 — while loops not dominated by a budget check                     #
# --------------------------------------------------------------------- #
def _mentions_budget(node: ast.AST) -> bool:
    """Whether any identifier in ``node`` carries a budget fragment."""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None:
            lowered = name.lower()
            if any(fragment in lowered for fragment in _BUDGET_FRAGMENTS):
                return True
    return False


def _budget_guarded(loop: ast.While) -> bool:
    """Whether the loop test or an exit guard mentions a budget."""
    if _mentions_budget(loop.test):
        return True
    for node in ast.walk(loop):
        if not isinstance(node, ast.If) or not _mentions_budget(node.test):
            continue
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Break, ast.Return, ast.Raise)):
                    return True
    return False


def _check_r18(bundle: _HotBundle, module: ModuleInfo) -> list[Violation]:
    """Unbudgeted ``while`` loops reachable from a session update."""
    out: list[Violation] = []
    for full, _class_name, fndef in _hot_functions_in(bundle, module):
        short = full.rpartition(".")[2]
        for node in ast.walk(fndef):
            if not isinstance(node, ast.While):
                continue
            if _budget_guarded(node):
                continue
            out.append(Violation(
                module.path, node.lineno, node.col_offset, "R18",
                f"while loop in `{short}` (reachable from a session "
                "update) is not dominated by a budget/cap check — a "
                "static escape from the Theorem 3.5 "
                "max_chunks_per_update cap; bound it or pragma with "
                "the structural bound",
            ))
    return out


# --------------------------------------------------------------------- #
# R19 — loop-invariant recomputation                                    #
# --------------------------------------------------------------------- #
def _mutated_roots(loop: ast.AST) -> set[str]:
    """Root names the analysis must assume change during the loop."""
    mutated: set[str] = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            mutated.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            root = node
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name):
                mutated.add(root.id)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATING_METHODS:
            root = node.func.value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name):
                mutated.add(root.id)
    return mutated


def _r19_candidates(region: list[ast.AST]):
    """(key, root, node) of hoistable expressions in a loop region."""
    nodes: list[ast.AST] = []
    for stmt in region:
        nodes.extend(ast.walk(stmt))
    call_funcs = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    chain_values = {
        id(n.value) for n in nodes if isinstance(n, ast.Attribute)
    }
    for node in nodes:
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "len" and len(node.args) == 1:
            dotted = _dotted(node.args[0])
            if dotted is not None:
                yield f"len({dotted})", dotted.split(".")[0], node
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load) and \
                id(node) not in call_funcs and \
                id(node) not in chain_values:
            dotted = _dotted(node)
            if dotted is not None and dotted.count(".") >= 2:
                yield dotted, dotted.split(".")[0], node


def _check_r19(module: ModuleInfo) -> list[Violation]:
    """Loop-invariant expressions re-evaluated per iteration."""
    out: list[Violation] = []
    for scope in _scopes(module.tree):
        for loop in _scope_nodes(scope):
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                region = loop.body + loop.orelse
                test_region: list[ast.AST] = []
            elif isinstance(loop, ast.While):
                region = loop.body + loop.orelse
                test_region = [loop.test]
            else:
                continue
            mutated = _mutated_roots(loop)
            grouped: dict[str, list] = {}
            for key, root, node in _r19_candidates(region):
                if root not in mutated:
                    grouped.setdefault(key, []).append(node)
            # A len() in a while condition re-evaluates every iteration
            # by itself; body candidates need a second occurrence.
            for key, root, node in _r19_candidates(test_region):
                if key.startswith("len(") and root not in mutated:
                    grouped.setdefault(key, [None, node])
            for key, nodes in sorted(grouped.items()):
                if len(nodes) < 2:
                    continue
                node = nodes[1]
                out.append(Violation(
                    module.path, node.lineno, node.col_offset, "R19",
                    f"loop-invariant `{key}` re-evaluated every "
                    "iteration; hoist it into a local before the loop",
                ))
    return out


# --------------------------------------------------------------------- #
# Entry point                                                           #
# --------------------------------------------------------------------- #
def analyze_module(program: Program,
                   module: ModuleInfo) -> dict[str, list[Violation]]:
    """All R15-R19 findings for one module, keyed by rule code."""
    bundle = _hot_bundle(program)
    return {
        "R15": _check_r15(module),
        "R16": _check_r16(bundle, module),
        "R17": _check_r17(bundle, module),
        "R18": _check_r18(bundle, module),
        "R19": _check_r19(module),
    }
