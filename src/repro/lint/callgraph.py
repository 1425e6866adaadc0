"""Module index, call resolution and pass harness shared by the
whole-program rules.

The single-file rules R1-R5 see one parsed module at a time; the flow
rules R6-R9 (:mod:`repro.lint.flow`) and the async rules R10-R14
(:mod:`repro.lint.async_flow`) need to answer *cross-module* questions —
"does this imported helper return a live ``Generator``?", "does this
helper block the event loop?".  This module builds that context:

* :class:`ModuleInfo` — one parsed module plus its import map and the
  function/class definitions it hosts;
* :class:`Program` — the set of modules being linted together, with
  dotted-name resolution (``np.random.default_rng`` →
  ``numpy.random.default_rng``) and *generator summaries*: the fixpoint
  sets of fully-qualified callables known to return a
  ``numpy.random.Generator`` (or a list of them);
* :func:`pass_findings` — the one harness every whole-program rule runs
  through: it runs a pass's ``analyze_module`` once per module and
  serves each rule code its share of the findings;
* the AST helpers the rules and passes share (:func:`_dotted`,
  :func:`_numpy_aliases`, :func:`_is_set_expression`).

Everything here is stdlib-``ast`` only; the analysis never imports the
code it inspects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Callable, Iterable

from repro.lint.violations import Violation

#: Callables known to return one live ``Generator`` regardless of input.
#: ``resolve_rng`` additionally *aliases* a generator passed in (flow.py
#: special-cases that); listing it here covers the seed-integer call
#: shape.
GEN_RETURNING_BASE = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "repro.instrument.rng.resolve_rng",
    "repro.instrument.rng.sanitize_rng",
    "repro.instrument.rng.SanitizedGenerator",
})

#: Callables known to return a list of independent child generators.
GENLIST_RETURNING_BASE = frozenset({
    "repro.instrument.rng.spawn_rngs",
})


def _dotted(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _numpy_aliases(nodes: Iterable[ast.AST]) -> set[str]:
    """Names the ``import`` statements among ``nodes`` bind to numpy."""
    aliases = {"numpy"}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _is_set_expression(node: ast.AST) -> bool:
    """Whether iterating ``node`` has hash-dependent (set) order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in {"set", "frozenset"}
    return False


def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a file path.

    Files under a ``repro`` package directory get their real dotted name
    (so imports resolve across the package); anything else — tests,
    benchmarks, examples, ``<string>`` snippets — is named by its stem,
    which keeps single-file analysis self-consistent.
    """
    parts = PurePath(path).parts
    if "repro" in parts:
        tail = list(parts[len(parts) - 1 - parts[::-1].index("repro"):])
        tail[-1] = PurePath(tail[-1]).stem
        if tail[-1] == "__init__":
            tail.pop()
        return ".".join(tail)
    return PurePath(path).stem


def _import_map(tree: ast.Module, module_name: str) -> dict[str, str]:
    """Map local names to the fully qualified targets they import."""
    out: dict[str, str] = {}
    package = module_name.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    out[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds the name ``a``.
                    head = alias.name.split(".")[0]
                    out[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Resolve ``from .rng import x`` against this module's
                # package; one level strips nothing further, each extra
                # level strips one trailing component.
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return out


@dataclass
class ModuleInfo:
    """One parsed module plus the lookup tables the passes need."""

    path: str
    name: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    #: qualname within the module (``fn`` or ``Class.fn``) -> definition.
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)

    @classmethod
    def build(cls, path: str, tree: ast.Module) -> "ModuleInfo":
        """Index one parsed module (imports, functions, classes)."""
        name = module_name_for_path(path)
        info = cls(path=path, name=name, tree=tree,
                   imports=_import_map(tree, name))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info.functions[f"{node.name}.{item.name}"] = item
        return info

    def resolve(self, dotted: str) -> str:
        """Expand a local dotted name to its fully qualified form.

        ``np.random.default_rng`` resolves through the import map to
        ``numpy.random.default_rng``; a bare local function name resolves
        to ``<module>.<name>``; anything unknown comes back unchanged.
        """
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        if head in self.functions and not rest:
            return f"{self.name}.{head}"
        return dotted


class Program:
    """The whole set of modules linted together, with generator summaries.

    Attributes
    ----------
    modules:
        Dotted module name -> :class:`ModuleInfo`.
    by_path:
        Path string (as given to the runner) -> :class:`ModuleInfo`.
    returns_generator / returns_generator_list:
        Fully-qualified callables whose return value is one ``Generator``
        / a list of generators — the base knowledge plus everything the
        fixpoint in :func:`compute_summaries` discovered in user code.
        The fixpoint runs on the first read, so a selection without a
        flow rule (the syntactic or async rules alone) never pays for it.
    """

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        for info in modules:
            self.modules[info.name] = info
            self.by_path[info.path] = info
        self._returns_generator: set[str] = set(GEN_RETURNING_BASE)
        self._returns_generator_list: set[str] = set(GENLIST_RETURNING_BASE)
        self._summarized = False
        #: Per-module pass results and other whole-program memos, keyed
        #: by their producer (see :func:`pass_findings`).
        self.analysis_cache: dict[object, object] = {}

    def _summarize(self) -> None:
        # Marked done first: the fixpoint reads the sets it is growing.
        if not self._summarized:
            self._summarized = True
            compute_summaries(self)

    @property
    def returns_generator(self) -> set[str]:
        self._summarize()
        return self._returns_generator

    @property
    def returns_generator_list(self) -> set[str]:
        self._summarize()
        return self._returns_generator_list

    @classmethod
    def from_sources(cls, sources: dict[str, tuple[ast.Module, str]]
                     ) -> "Program":
        """Build a program from ``{path: (tree, source)}``."""
        return cls(ModuleInfo.build(path, tree)
                   for path, (tree, _source) in sources.items())

    def module_for(self, path: str) -> ModuleInfo | None:
        """The indexed module for a runner path, if it was parsed."""
        return self.by_path.get(path)


#: A pass's entry point: all of its rule codes' findings for one module.
AnalyzeModule = Callable[[Program, ModuleInfo], dict[str, list[Violation]]]


def pass_findings(ctx, analyze_module: AnalyzeModule,
                  code: str) -> list[Violation]:
    """Findings of one whole-program rule for a runner ``RuleContext``.

    ``analyze_module`` runs once per module and is cached on the
    program under its own key, so every rule of one pass shares a single
    analysis.  A context without an attached program (direct
    construction) gets a private single-module program.
    """
    program = ctx.program
    if program is None:
        program = Program.from_sources({ctx.path: (ctx.tree, ctx.source)})
    module = program.module_for(ctx.path)
    if module is None:
        module = ModuleInfo.build(ctx.path, ctx.tree)
        program.by_path[ctx.path] = module
        program.modules.setdefault(module.name, module)
    cache = program.analysis_cache
    key = (analyze_module, ctx.path)
    if key not in cache:
        cache[key] = analyze_module(program, module)
    return cache[key].get(code, [])


def compute_summaries(program: Program, max_rounds: int = 5) -> None:
    """Fixpoint the generator-returning summaries over user functions.

    A function is *generator-returning* if any of its ``return``
    expressions types to GEN under the flow typer given the summaries so
    far (similarly for generator lists).  Rounds are bounded: summaries
    only grow, and call chains deeper than ``max_rounds`` through
    generator-returning helpers do not occur in practice.
    """
    # Imported here to break the import cycle (flow.py imports this
    # module's helpers).
    from repro.lint import flow

    for _ in range(max_rounds):
        changed = False
        for info in program.modules.values():
            for qualname, fndef in info.functions.items():
                full = f"{info.name}.{qualname}"
                if full in program.returns_generator and \
                        full in program.returns_generator_list:
                    continue
                kind = flow.infer_return_kind(program, info, fndef)
                if kind is flow.GEN and full not in program.returns_generator:
                    program.returns_generator.add(full)
                    changed = True
                elif kind is flow.GENLIST and \
                        full not in program.returns_generator_list:
                    program.returns_generator_list.add(full)
                    changed = True
        if not changed:
            break
