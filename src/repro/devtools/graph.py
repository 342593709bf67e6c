"""Project-wide symbol table and import/call graph for whole-program rules.

The per-file rules in :mod:`repro.devtools.rules` see one ``ast.Module``
at a time, which is enough for local hazards (a mutable default, a
wall-clock call) but blind to *flow*: whether a seed ever reaches an RNG
constructor, or whether any caller restores the order of a parallel map.
This module supplies the missing context:

* :class:`ModuleInfo` — one parsed file plus its symbol table: top-level
  functions (including methods, under ``Class.method`` qualnames),
  classes, constants, and an import map from local alias to fully
  qualified name (``np`` → ``numpy``, relative imports resolved against
  the module's package);
* :class:`ProjectGraph` — every module being linted, an index of call
  sites keyed by the *resolved* callee (``repro.sim.runner.simulate``,
  ``numpy.random.default_rng``), and resolution helpers;
* :class:`ProjectRule` — the base class for whole-program rules
  (``SIM101`` …, in :mod:`repro.devtools.flow`), registered in
  :data:`PROJECT_RULES` exactly like the per-file registry.

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
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "PROJECT_RULES",
    "ProjectGraph",
    "ProjectRule",
    "module_name_for_path",
    "register_project",
    "run_project_rules",
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

    @property
    def fqname(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    @property
    def is_method(self) -> bool:
        return "." in self.qualname

    def parameters(self) -> list[ast.arg]:
        """Positional + keyword-only parameters, ``self``/``cls`` included."""
        a = self.node.args
        return [*a.posonlyargs, *a.args, *a.kwonlyargs]

    def default_of(self, name: str) -> ast.expr | None:
        """The default expression of parameter ``name`` (``None`` if none)."""
        a = self.node.args
        positional = [*a.posonlyargs, *a.args]
        n_defaults = len(a.defaults)
        for i, arg in enumerate(positional):
            if arg.arg == name:
                j = i - (len(positional) - n_defaults)
                return a.defaults[j] if j >= 0 else None
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if arg.arg == name:
                return default
        return None


@dataclass
class CallSite:
    """One resolved call expression somewhere in the project."""

    module: "ModuleInfo"
    node: ast.Call
    callee: str  #: fully qualified resolved target


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


def _dotted_of(node: ast.AST) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class ProjectGraph:
    """All modules under analysis plus a call index keyed by callee."""

    #: total number of :meth:`build` calls this process has made — the
    #: ``repro lint --stats`` line proves one build is shared by every
    #: whole-program pass (flow + concurrency tiers).
    builds_total: ClassVar[int] = 0

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        #: scratch space for analyses that amortise work across rules in
        #: one lint run (call owners, worker reachability, …).  Keyed
        #: by analysis name; owned by whichever pass computes it first.
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
        for info in graph.by_path.values():
            graph._index_calls(info)
        return graph

    def _index_calls(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_of(node.func)
            target = info.resolve(dotted)
            if target is not None:
                self.calls.setdefault(target, []).append(CallSite(info, node, target))

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

    def call_sites(self, fqname: str) -> list[CallSite]:
        """Every resolved call to ``fqname`` anywhere in the project."""
        return self.calls.get(fqname, [])

    def constant(self, module: ModuleInfo, dotted: tuple[str, ...]) -> ast.expr | None:
        """The value expression behind a (possibly imported) constant name."""
        target = module.resolve(dotted)
        if target is None:
            if len(dotted) == 1 and dotted[0] in module.constants:
                return module.constants[dotted[0]]
            return None
        owner, _, name = target.rpartition(".")
        info = self.modules.get(owner)
        if info is not None:
            return info.constants.get(name)
        return None


# ---------------------------------------------------------------------------
# whole-program rule registry
# ---------------------------------------------------------------------------


PROJECT_RULES: dict[str, type["ProjectRule"]] = {}


def register_project(cls: type["ProjectRule"]) -> type["ProjectRule"]:
    """Class decorator adding a whole-program rule to the registry."""
    if not getattr(cls, "id", None):
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in PROJECT_RULES:
        raise ValueError(f"duplicate project rule id {cls.id}")
    PROJECT_RULES[cls.id] = cls
    return cls


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


def run_project_rules(
    graph: ProjectGraph, select: set[str] | None = None
) -> list[Finding]:
    """Run every registered (selected) whole-program rule over ``graph``."""
    findings: list[Finding] = []
    for rule_id in sorted(PROJECT_RULES):
        if select is not None and rule_id not in select:
            continue
        rule = PROJECT_RULES[rule_id](graph)
        rule.check()
        findings.extend(rule.findings)
    return findings
