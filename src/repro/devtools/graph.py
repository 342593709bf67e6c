"""Project-wide symbol table for the whole-program (concurrency) rules.

The per-file rules in :mod:`repro.devtools.rules` see one ``ast.Module``
at a time.  The concurrency rules (:mod:`repro.devtools.concurrency`)
follow a function handed to a thread pool in one module to its
definition in another, so they need the whole project:

* :class:`ModuleInfo` — one parsed file plus its symbol table: top-level
  functions (including methods, under ``Class.method`` qualnames),
  classes, constants, and an import map from local alias to fully
  qualified name (``np`` → ``numpy``, relative imports resolved against
  the module's package);
* :class:`ProjectGraph` — every module being linted, plus lookup by
  fully qualified function name;
* :class:`ProjectRule` — the base class for whole-program rules.

Whole-program rules receive the finished graph and may inspect any
module; findings still carry the precise file/line so ``noqa`` pragmas
and report formats work unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import ClassVar, Iterable, Sequence

from .findings import Finding
from .rules import LintContext

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "ProjectRule",
    "module_name_for_path",
]


def module_name_for_path(path: str | PurePath) -> str:
    """Dotted module name for ``path``.

    Files under ``src/`` get their import name (``src/repro/sim/engine.py``
    → ``repro.sim.engine``); anything else is named by its path with
    separators turned into dots (``tests/sim/test_engine.py`` →
    ``tests.sim.test_engine``), which keeps names unique and keeps
    relative-import resolution working for the library modules — the only
    ones other modules import.
    """
    parts = list(PurePath(path).parts)
    if parts and parts[0] in ("/", "\\"):
        parts = parts[1:]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "<module>"


@dataclass
class FunctionInfo:
    """One function or method definition inside a module."""

    qualname: str  #: ``f`` for top level, ``Class.method`` for methods
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: "ModuleInfo"



@dataclass
class ModuleInfo:
    """One parsed file plus its symbol table."""

    name: str
    path: str
    tree: ast.Module
    ctx: LintContext
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    constants: dict[str, ast.expr] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package containing this module (for relative imports)."""
        return self.name.rpartition(".")[0]

    def resolve(self, dotted: tuple[str, ...]) -> str | None:
        """Fully qualify a dotted reference as seen from this module.

        ``("np", "random", "default_rng")`` → ``numpy.random.default_rng``
        when the module did ``import numpy as np``; locally defined
        functions/classes/constants qualify under the module's own name.
        Returns ``None`` for names this module never binds (locals,
        builtins).
        """
        if not dotted:
            return None
        head, rest = dotted[0], dotted[1:]
        if head in self.imports:
            base = self.imports[head]
        elif head in self.functions or head in self.classes or head in self.constants:
            base = f"{self.name}.{head}"
        else:
            return None
        return ".".join((base, *rest)) if rest else base


def _index_module(info: ModuleInfo) -> None:
    """Populate the symbol table of ``info`` from its tree."""
    for stmt in info.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                info.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                # relative import: climb ``level`` packages from this module
                base_parts = info.name.split(".")[: -stmt.level]
                base = ".".join(base_parts)
                target_mod = f"{base}.{stmt.module}" if stmt.module else base
            else:
                target_mod = stmt.module or ""
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = (
                    f"{target_mod}.{alias.name}" if target_mod else alias.name
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = FunctionInfo(stmt.name, stmt, info)
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = stmt
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{stmt.name}.{sub.name}"
                    info.functions[qual] = FunctionInfo(qual, sub, info)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.constants[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                info.constants[stmt.target.id] = stmt.value


class ProjectGraph:
    """All modules under analysis, by dotted name and by path."""

    #: total number of :meth:`build` calls this process has made — the
    #: ``repro lint --stats`` line proves one build serves every
    #: whole-program rule.
    builds_total: ClassVar[int] = 0

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        #: scratch space for analyses that amortise work across rules in
        #: one lint run (thread reachability).  Keyed by analysis name;
        #: owned by whichever pass computes it first.
        self.analysis_cache: dict[str, object] = {}

    @classmethod
    def build(cls, parsed: Iterable[tuple[str, ast.Module]]) -> "ProjectGraph":
        """Construct the graph from ``(path, tree)`` pairs."""
        ProjectGraph.builds_total += 1
        graph = cls()
        for path, tree in parsed:
            info = ModuleInfo(
                name=module_name_for_path(path),
                path=str(path),
                tree=tree,
                ctx=LintContext.for_path(path),
            )
            _index_module(info)
            graph.modules.setdefault(info.name, info)
            graph.by_path[info.path] = info
        return graph

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def function(self, fqname: str) -> FunctionInfo | None:
        """Find a function by fully qualified name, if it is in the graph."""
        module_name, _, qualname = fqname.rpartition(".")
        info = self.modules.get(module_name)
        if info is not None and qualname in info.functions:
            return info.functions[qualname]
        # maybe the tail is ``Class.method``
        module_name2, _, cls_name = module_name.rpartition(".")
        info = self.modules.get(module_name2)
        if info is not None:
            return info.functions.get(f"{cls_name}.{qualname}")
        return None


class ProjectRule:
    """Base class for whole-program rules: inspect the graph, report.

    Unlike :class:`~repro.devtools.rules.Rule` (one instance per file), a
    project rule is instantiated once per lint run with the full
    :class:`ProjectGraph` and walks whichever modules it cares about —
    :meth:`applies_module` is the per-module scope hook, mirroring
    ``Rule.applies``.
    """

    id: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.findings: list[Finding] = []

    def applies_module(self, module: ModuleInfo) -> bool:
        """Whether this rule is active for ``module`` (default: everywhere)."""
        return True

    def check(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def modules(self) -> Sequence[ModuleInfo]:
        """The in-scope modules, in deterministic (path) order."""
        return [
            self.graph.by_path[p]
            for p in sorted(self.graph.by_path)
            if self.applies_module(self.graph.by_path[p])
        ]

    def report(self, module: ModuleInfo, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.id,
                message=message,
            )
        )

