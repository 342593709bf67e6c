"""Domain-specific lint rules for discrete-event-simulation code.

Each rule is a small :class:`ast.NodeVisitor` with a stable ID
(``SIM004`` …) registered in :data:`RULES` — the same
register-by-declaration idiom as the policy registry in
:mod:`repro.core.policies`.  Rules are *pure detectors*: they receive a
:class:`LintContext` (where the file lives inside the package), walk the
tree, and append :class:`~repro.devtools.findings.Finding` objects.  All
reporting, selection and ``noqa`` suppression lives in
:mod:`repro.devtools.lint`.

The rules encode the repo's simulation-correctness conventions (see
``docs/DEVTOOLS.md`` for rationale and examples):

========  ============================================================
SIM004    ``Policy`` subclasses set ``kind``/``name``, chain ``reset``
SIM006    public library module must declare ``__all__``
========  ============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import ClassVar

from .findings import Finding

__all__ = ["LintContext", "Rule", "RULES", "register", "run_rules"]


# ---------------------------------------------------------------------------
# context and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintContext:
    """Where a file sits relative to the ``repro`` package.

    ``module`` is the dotted-path tuple inside ``src/repro`` (e.g.
    ``("sim", "engine")``), or ``None`` for files outside the library —
    path-scoped rules key off it.  Virtual paths work too: tests lint
    snippets under invented paths like ``src/repro/sim/x.py``.
    """

    path: str
    module: tuple[str, ...] | None = field(default=None)

    @classmethod
    def for_path(cls, path: str | PurePath) -> "LintContext":
        parts = PurePath(path).parts
        module: tuple[str, ...] | None = None
        for i in range(len(parts) - 1):
            if parts[i] == "src" and parts[i + 1] == "repro":
                module = tuple(p[:-3] if p.endswith(".py") else p for p in parts[i + 2 :])
                break
        return cls(path=str(path), module=module)

    @property
    def in_library(self) -> bool:
        """True when the file is part of the ``repro`` package."""
        return self.module is not None

    def in_subpackage(self, *names: str) -> bool:
        """True when the file lives under one of the named subpackages."""
        return self.module is not None and len(self.module) > 0 and self.module[0] in names

    @property
    def is_private_module(self) -> bool:
        return self.module is not None and bool(self.module) and self.module[-1].startswith("_")


RULES: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to the global registry by its ID."""
    if not getattr(cls, "id", None):
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


class Rule(ast.NodeVisitor):
    """Base class for lint rules: visit the tree, collect findings."""

    #: stable identifier, e.g. ``"SIM004"`` — used by --select/--ignore/noqa.
    id: ClassVar[str] = ""
    #: one-line description shown in ``repro lint --explain``-style docs.
    summary: ClassVar[str] = ""

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def applies(self) -> bool:
        """Whether this rule is active for the file in ``self.ctx``."""
        return True

    def check_module(self, tree: ast.Module) -> None:
        """Entry point; default walks the tree with the visitor methods."""
        self.visit(tree)

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.id,
                message=message,
            )
        )


def run_rules(
    tree: ast.Module, ctx: LintContext, select: set[str] | None = None
) -> list[Finding]:
    """Run every registered (selected) rule over ``tree``."""
    findings: list[Finding] = []
    for rule_id in sorted(RULES):
        if select is not None and rule_id not in select:
            continue
        rule = RULES[rule_id](ctx)
        if not rule.applies():
            continue
        rule.check_module(tree)
        findings.extend(rule.findings)
    return findings


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c`` → ``("a", "b", "c")``; empty tuple for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _is_abstract(cls: ast.ClassDef) -> bool:
    """Heuristic: ABC base or any ``@abstractmethod`` in the body."""
    for base in cls.bases:
        if _dotted(base)[-1:] in (("ABC",), ("ABCMeta",)):
            return True
    for kw in cls.keywords:
        if kw.arg == "metaclass" and _dotted(kw.value)[-1:] == ("ABCMeta",):
            return True
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in stmt.decorator_list:
                if _dotted(deco)[-1:] in (("abstractmethod",), ("abstractproperty",)):
                    return True
    return False


# ---------------------------------------------------------------------------
# SIM004 — Policy protocol conformance
# ---------------------------------------------------------------------------


_POLICY_BASES = frozenset({"Policy", "StaticPolicy", "StatePolicy"})


@register
class PolicyProtocolRule(Rule):
    """SIM004: every concrete ``Policy`` subclass must honour the protocol.

    The simulators duck-type against :class:`repro.core.policies.base.Policy`:
    a policy missing ``kind`` is rejected at runtime deep inside a sweep,
    one missing ``name`` mislabels result rows, and a ``reset`` override
    that forgets ``super().reset(...)`` leaves ``n_hosts``/``rng`` stale
    from the previous run — the classic source of cross-run contamination.
    """

    id = "SIM004"
    summary = "Policy subclass missing kind/name or reset() without super().reset()"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        base_tails = {_dotted(b)[-1] for b in node.bases if _dotted(b)}
        policy_bases = base_tails & _POLICY_BASES
        if policy_bases:
            self._check_policy(node, policy_bases)
        self.generic_visit(node)

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _class_assigns(node: ast.ClassDef, attr: str) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == attr for t in stmt.targets
            ):
                return True
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == attr
                and stmt.value is not None
            ):
                return True
        return False

    @staticmethod
    def _init_assigns_self(node: ast.ClassDef, attr: str) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Assign):
                        for t in sub.targets:
                            if (
                                isinstance(t, ast.Attribute)
                                and t.attr == attr
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                            ):
                                return True
        return False

    @staticmethod
    def _defines(node: ast.ClassDef, *names: str) -> bool:
        return any(
            isinstance(stmt, ast.FunctionDef) and stmt.name in names
            for stmt in node.body
        )

    @staticmethod
    def _calls_super_reset(fn: ast.FunctionDef) -> bool:
        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "reset"
                and isinstance(sub.func.value, ast.Call)
                and _dotted(sub.func.value.func) == ("super",)
            ):
                return True
        return False

    def _check_policy(self, node: ast.ClassDef, policy_bases: set[str]) -> None:
        abstract = _is_abstract(node)
        # ``kind``: required when deriving straight from the abstract root.
        if "Policy" in policy_bases and not abstract:
            if not self._class_assigns(node, "kind"):
                self.report(
                    node,
                    f"Policy subclass `{node.name}` does not set `kind` "
                    "(\"static\"/\"state\"/\"central\"/\"tags\"); the server "
                    "will reject it at dispatch time",
                )
        # ``name``: required for concrete dispatchers (they label results).
        concrete = self._defines(node, "__init__", "choose_host", "assign_batch")
        if (
            not abstract
            and (policy_bases & {"StaticPolicy", "StatePolicy"} or concrete)
            and not self._class_assigns(node, "name")
            and not self._init_assigns_self(node, "name")
        ):
            self.report(
                node,
                f"Policy subclass `{node.name}` does not set `name`; result "
                "rows and plots would fall back to the class name",
            )
        # ``reset`` overrides must chain to the base for n_hosts/rng setup.
        for stmt in node.body:
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name == "reset"
                and not self._calls_super_reset(stmt)
            ):
                self.report(
                    stmt,
                    f"`{node.name}.reset` overrides Policy.reset without "
                    "calling super().reset(n_hosts, rng); stale state leaks "
                    "across runs",
                )


# ---------------------------------------------------------------------------
# SIM006 — public modules declare __all__
# ---------------------------------------------------------------------------


@register
class MissingAllRule(Rule):
    """SIM006: every public library module declares its API.

    ``__all__`` is how the package states which names are contract and
    which are implementation detail — the cross-validation story depends
    on tests reaching only the supported surface.  Private modules
    (``_foo.py``, ``__main__.py``) are exempt.
    """

    id = "SIM006"
    summary = "public module in src/repro without __all__"

    def applies(self) -> bool:
        return self.ctx.in_library and not self.ctx.is_private_module

    def check_module(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                return
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"
            ):
                return
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=1,
                col=1,
                rule=self.id,
                message="public module does not declare __all__",
            )
        )
