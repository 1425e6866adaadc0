"""Performance analysis: rule R15, scalar loops over the array substrate.

R15 — scalar-loop-over-array-substrate
    A python ``for`` loop iterating the graph substrate (``edges()`` /
    ``neighbors()`` / ``non_isolated_vertices()``, a numpy index
    producer like ``np.flatnonzero``, a numpy array, or
    ``range(num_vertices)``) whose body does per-element numpy work
    (``np.*`` calls, ``int()``/``float()`` of an array subscript, or
    array subscript loads).  The flat arrays already exist
    (``repro.graphs.adjacency``); the loop should be a vectorized
    expression over them.

The rule is per-module and needs no call graph.  Everything is
stdlib-``ast``; the analysis never imports or runs the code it
inspects.  Where the work of an update actually goes — per call site,
and against the Theorem 3.5 per-update cap — is measured at run time
by :mod:`repro.instrument.workmeter` (``REPRO_WORK_AUDIT=1``).
"""

from __future__ import annotations

import ast

from repro.lint.callgraph import ModuleInfo, Program, _dotted, _numpy_aliases
from repro.lint.violations import Violation

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
# Entry point                                                           #
# --------------------------------------------------------------------- #
def analyze_module(program: Program,
                   module: ModuleInfo) -> dict[str, list[Violation]]:
    """The R15 findings for one module, keyed by rule code."""
    return {"R15": _check_r15(module)}
