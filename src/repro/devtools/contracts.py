"""Kernel array contracts and concurrency/resource-safety rules (SIM2xx).

The third analysis tier.  The per-file rules (SIM001–SIM007) see one
module, the flow rules (SIM101–SIM106) see the project graph; these
rules see *array dataflow and process boundaries* — the two things the
in-place workspace kernels and the parallel sweep executor make
load-bearing.

**Kernel contract pack** — every function decorated with
:func:`repro.sim.contract.kernel_contract` declares its array ABI
(dtypes, shape symbols, write set, contiguity, aliasing) as a literal.
The checker reads the declaration straight out of the AST and verifies
bodies and call sites with flow-sensitive dtype/shape propagation:

=========  ===========================================================
SIM201     call site passes an array whose dtype drifts from the contract
SIM202     kernel mutates a caller-visible array not declared in writes=
SIM203     call site aliases two parameters the contract keeps disjoint
SIM204     call site breaks the declared shape (rank or dim-symbol unification)
SIM205     non-contiguous array passed where the contract demands C order
=========  ===========================================================

**Concurrency pack** — process/thread-boundary hazards in the parallel
experiment layer:

=========  ===========================================================
SIM206     SharedMemory segment without close()/unlink() on every exit path
SIM207     module-global mutation reachable from pool worker functions
SIM208     signal.alarm/SIGALRM installed off the main thread
SIM209     file write in experiments/ bypassing the atomic tmp+fsync+replace pattern
SIM210     RNG object smuggled through a pickled closure into a worker
SIM211     await between read and write of shared async-server state, no lock
=========  ===========================================================

The static analysis is deliberately **conservative**: a fact it cannot
prove (an array of unknown dtype, an unresolvable receiver) produces no
finding.  What it *does* claim is falsifiable — the runtime validator
(``REPRO_SIM_STRICT=1``) enforces the same contracts at call time, and
``tests/sim/test_kernel_contract.py`` property-tests their agreement.

Rationale and a positive/negative example per rule live in
``docs/DEVTOOLS.md``.
"""

from __future__ import annotations

import ast
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .findings import Finding
from .graph import CallSite, FunctionInfo, ModuleInfo, ProjectGraph, ProjectRule
from .rules import _dotted, _snake_words, _terminal_name

__all__ = [
    "CONTRACT_RULES",
    "PROFILES",
    "StaticContract",
    "contract_index",
    "register_contract",
    "run_contract_rules",
]


# ---------------------------------------------------------------------------
# registry (separate from PROJECT_RULES so each tier stays independently
# testable and selectable)
# ---------------------------------------------------------------------------


CONTRACT_RULES: dict[str, type["ProjectRule"]] = {}


def register_contract(cls: type["ProjectRule"]) -> type["ProjectRule"]:
    """Class decorator adding a contract/concurrency rule to the registry."""
    if not getattr(cls, "id", None):
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in CONTRACT_RULES:
        raise ValueError(f"duplicate contract rule id {cls.id}")
    CONTRACT_RULES[cls.id] = cls
    return cls


def run_contract_rules(
    graph: ProjectGraph, select: set[str] | None = None
) -> list[Finding]:
    """Run every registered (selected) contract rule over ``graph``."""
    findings: list[Finding] = []
    for rule_id in sorted(CONTRACT_RULES):
        if select is not None and rule_id not in select:
            continue
        rule = CONTRACT_RULES[rule_id](graph)
        rule.check()
        findings.extend(rule.findings)
    return findings


#: named rule sets for ``repro lint --profile``.  ``all`` is resolved by
#: the runner (every registered rule across all three tiers).
PROFILES: dict[str, frozenset[str]] = {
    "kernels": frozenset({"SIM201", "SIM202", "SIM203", "SIM204", "SIM205"}),
    "concurrency": frozenset(
        {"SIM206", "SIM207", "SIM208", "SIM209", "SIM210", "SIM211"}
    ),
}


# ---------------------------------------------------------------------------
# contract extraction (from the @kernel_contract decorator AST)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticContract:
    """One ``@kernel_contract`` declaration, read from the AST."""

    shapes: Mapping[str, tuple]
    dtypes: Mapping[str, tuple[str, ...]]
    writes: tuple[str, ...]
    contiguous: tuple[str, ...]
    allow_alias: tuple[tuple[str, str], ...]
    fn: FunctionInfo

    def param_names(self) -> list[str]:
        """Parameters the contract constrains (return keys excluded)."""
        keys = set(self.shapes) | set(self.dtypes) | set(self.contiguous)
        return sorted(
            k for k in keys if k != "return" and not k.startswith("return[")
        )

    def dtype_names(self, name: str) -> tuple[str, ...]:
        return self.dtypes.get(name, ())

    def may_alias(self, a: str, b: str) -> bool:
        return (a, b) in self.allow_alias or (b, a) in self.allow_alias


def _decorator_contract(deco: ast.expr) -> dict | None:
    """Parse one decorator expression as a literal contract, if it is one."""
    if not isinstance(deco, ast.Call):
        return None
    if _terminal_name(deco.func) != "kernel_contract":
        return None
    fields: dict = {}
    for kw in deco.keywords:
        if kw.arg is None:
            return None  # **kwargs declaration is invisible to the checker
        try:
            fields[kw.arg] = ast.literal_eval(kw.value)
        except (ValueError, SyntaxError):
            return None  # computed declaration: skip, runtime still checks
    return fields


def _normalise_dtypes(raw: Mapping | None) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for name, decl in (raw or {}).items():
        out[name] = (decl,) if isinstance(decl, str) else tuple(decl)
    return out


def contract_index(graph: ProjectGraph) -> dict[str, StaticContract]:
    """Every declared contract, keyed by fqname **and** re-export aliases.

    A module may re-export a kernel (``from .fast import lwl_waits``); a
    call site resolving through either name must find the same contract,
    so import aliases are propagated to a fixpoint.  Memoised on the graph's
    ``analysis_cache`` — one extraction per lint run.
    """
    cached = graph.analysis_cache.get("contract_index")
    if cached is not None:
        return cached
    index: dict[str, StaticContract] = {}
    for info in graph.by_path.values():
        for fn in info.functions.values():
            for deco in fn.node.decorator_list:
                fields = _decorator_contract(deco)
                if fields is None:
                    continue
                index[fn.fqname] = StaticContract(
                    shapes={
                        k: tuple(v) for k, v in (fields.get("shapes") or {}).items()
                    },
                    dtypes=_normalise_dtypes(fields.get("dtypes")),
                    writes=tuple(fields.get("writes") or ()),
                    contiguous=tuple(fields.get("contiguous") or ()),
                    allow_alias=tuple(
                        tuple(pair) for pair in (fields.get("allow_alias") or ())
                    ),
                    fn=fn,
                )
                break
    changed = True
    while changed:
        changed = False
        for info in graph.by_path.values():
            for local, target in info.imports.items():
                alias = f"{info.name}.{local}"
                if target in index and alias not in index:
                    index[alias] = index[target]
                    changed = True
    graph.analysis_cache["contract_index"] = index
    return index


# ---------------------------------------------------------------------------
# array-fact dataflow (conservative: unknown facts never report)
# ---------------------------------------------------------------------------


#: dtype spellings the fact engine recognises in ``dtype=`` positions.
_DTYPE_NAMES = frozenset(
    {
        "float16", "float32", "float64", "int8", "int16", "int32", "int64",
        "uint8", "uint16", "uint32", "uint64", "bool_", "complex64",
        "complex128",
    }
)
_DTYPE_SYNONYMS = {"float": "float64", "int": "int64", "bool": "bool_"}

#: numpy constructors that always return a fresh C-contiguous array.
_FRESH_1D_CTORS = frozenset({"empty", "zeros", "ones", "full"})


@dataclass(frozen=True)
class ArrayFact:
    """What the dataflow knows about one expression's array value."""

    dtype: str | None = None
    ndim: int | None = None
    length: int | None = None  #: extent of axis 0 when literally known
    contiguous: bool | None = None
    alias_of: str | None = None  #: local name this value views, if any


def _dtype_of_node(node: ast.expr | None) -> str | None:
    """The dtype name an AST expression denotes (``np.float32`` → float32)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in _DTYPE_NAMES else None
    if isinstance(node, ast.Call) and _terminal_name(node.func) == "dtype":
        return _dtype_of_node(node.args[0]) if node.args else None
    tail = _terminal_name(node)
    if tail in _DTYPE_NAMES:
        return tail
    return _DTYPE_SYNONYMS.get(tail or "")


def _literal_array_shape(node: ast.expr) -> tuple[int | None, int | None, str | None]:
    """(ndim, length, dtype) of a literal list/tuple array payload."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None, None, None
    elts = node.elts
    if any(isinstance(e, (ast.List, ast.Tuple)) for e in elts):
        return 2, len(elts), None  # nested: 2-D is all we ever need
    kinds = set()
    for e in elts:
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub):
            e = e.operand
        if not isinstance(e, ast.Constant):
            return 1, len(elts), None
        kinds.add(type(e.value))
    if not kinds:
        return 1, 0, "float64"  # np.array([]) defaults to float64
    if bool in kinds or not kinds <= {int, float}:
        return 1, len(elts), None
    dtype = "float64" if float in kinds else "int64"
    return 1, len(elts), dtype


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


class UnitFacts:
    """Lazily resolved array facts for one function body (or module level).

    Facts are attached to *single-assignment* local names only; a name
    assigned twice is unknown.  That keeps the analysis sound without a
    real flow graph, at the cost of missing some true positives — the
    deliberate trade for a linter that never cries wolf.
    """

    _MAX_DEPTH = 6

    def __init__(self, nodes: Iterable[ast.AST]) -> None:
        counts: Counter[str] = Counter()
        exprs: dict[str, ast.expr] = {}
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value: ast.expr | None = node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                value = node.value
            elif isinstance(node, (ast.For, ast.AugAssign)):
                for name in _assigned_names(node):
                    counts[name] += 1
                continue
            else:
                continue
            if isinstance(target, ast.Name) and value is not None:
                counts[target.id] += 1
                exprs[target.id] = value
        self._exprs = {n: e for n, e in exprs.items() if counts[n] == 1}

    def of_name(self, name: str, depth: int = 0) -> ArrayFact | None:
        expr = self._exprs.get(name)
        if expr is None or depth > self._MAX_DEPTH:
            return None
        return self.of_expr(expr, depth + 1)

    def alias_root(self, name: str, depth: int = 0) -> str:
        """Follow view chains (``y = x[1:]``) back to the root local name."""
        if depth > self._MAX_DEPTH:
            return name
        fact = self.of_name(name, depth)
        if fact is not None and fact.alias_of is not None:
            return self.alias_root(fact.alias_of, depth + 1)
        return name

    def of_expr(self, expr: ast.expr, depth: int = 0) -> ArrayFact | None:
        if depth > self._MAX_DEPTH:
            return None
        if isinstance(expr, ast.Name):
            fact = self.of_name(expr.id, depth)
            if fact is None:
                return None
            # a bare name *is* the named array: record the alias link.
            return ArrayFact(
                dtype=fact.dtype,
                ndim=fact.ndim,
                length=fact.length,
                contiguous=fact.contiguous,
                alias_of=expr.id,
            )
        if isinstance(expr, ast.Call):
            return self._of_call(expr, depth)
        if isinstance(expr, ast.Subscript):
            return self._of_subscript(expr, depth)
        return None

    # -- constructors ----------------------------------------------------

    def _of_call(self, call: ast.Call, depth: int) -> ArrayFact | None:
        func = call.func
        tail = _terminal_name(func)
        if tail is None:
            return None
        dtype_kw = _dtype_of_node(_kwarg(call, "dtype"))
        if tail in _FRESH_1D_CTORS:
            ndim, length = self._shape_arg(call.args[0] if call.args else None)
            dtype = dtype_kw
            if dtype is None:
                if tail == "full" and len(call.args) >= 2:
                    dtype = self._fill_dtype(call.args[1])
                else:
                    dtype = "float64"
            return ArrayFact(dtype=dtype, ndim=ndim, length=length, contiguous=True)
        if tail == "arange":
            dtype = dtype_kw
            if dtype is None:
                dtype = (
                    "float64"
                    if any(self._fill_dtype(a) == "float64" for a in call.args)
                    else "int64"
                )
            return ArrayFact(dtype=dtype, ndim=1, contiguous=True)
        if tail == "linspace":
            return ArrayFact(dtype=dtype_kw or "float64", ndim=1, contiguous=True)
        if tail in ("array", "asarray", "ascontiguousarray"):
            if not call.args:
                return None
            src = call.args[0]
            ndim, length, literal_dtype = _literal_array_shape(src)
            if ndim is not None:
                return ArrayFact(
                    dtype=dtype_kw or literal_dtype,
                    ndim=ndim,
                    length=length,
                    contiguous=True,
                )
            src_fact = self.of_expr(src, depth + 1)
            contiguous: bool | None = True
            if tail == "asarray" and dtype_kw is None:
                # asarray never copies a matching array: contiguity (and
                # aliasing) pass straight through.
                contiguous = src_fact.contiguous if src_fact else None
            return ArrayFact(
                dtype=dtype_kw or (src_fact.dtype if src_fact else None),
                ndim=src_fact.ndim if src_fact else None,
                length=src_fact.length if src_fact else None,
                contiguous=contiguous,
            )
        if isinstance(func, ast.Attribute) and tail == "astype":
            dtype = _dtype_of_node(call.args[0]) if call.args else None
            base = self.of_expr(func.value, depth + 1)
            return ArrayFact(
                dtype=dtype,
                ndim=base.ndim if base else None,
                length=base.length if base else None,
                contiguous=True,
            )
        if isinstance(func, ast.Attribute) and tail == "copy":
            base = self.of_expr(func.value, depth + 1)
            if base is None:
                return None
            return ArrayFact(
                dtype=base.dtype, ndim=base.ndim, length=base.length, contiguous=True
            )
        return None

    def _of_subscript(self, expr: ast.Subscript, depth: int) -> ArrayFact | None:
        if not isinstance(expr.value, ast.Name):
            return None
        base = self.of_name(expr.value.id, depth)
        root = expr.value.id
        index = expr.slice
        if isinstance(index, ast.Slice):
            step = index.step
            contiguous: bool | None = None
            if (
                isinstance(step, ast.Constant)
                and isinstance(step.value, int)
                and step.value not in (1, -1)
            ):
                contiguous = False
            if isinstance(step, ast.Constant) and step.value == -1:
                contiguous = False
            return ArrayFact(
                dtype=base.dtype if base else None,
                ndim=base.ndim if base else None,
                contiguous=contiguous,
                alias_of=root,
            )
        return None  # advanced indexing copies; scalar indexing isn't an array

    @staticmethod
    def _shape_arg(node: ast.expr | None) -> tuple[int | None, int | None]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return 1, node.value
        if isinstance(node, (ast.Tuple, ast.List)):
            length = None
            first = node.elts[0] if node.elts else None
            if isinstance(first, ast.Constant) and isinstance(first.value, int):
                length = first.value
            return len(node.elts), length
        return None, None

    @staticmethod
    def _fill_dtype(node: ast.expr) -> str | None:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "bool_"
            if isinstance(node.value, float):
                return "float64"
            if isinstance(node.value, int):
                return "int64"
        return None


def _assigned_names(node: ast.AST) -> set[str]:
    """Names (re)bound by a loop target or augmented assignment."""
    out: set[str] = set()
    target = getattr(node, "target", None)
    if target is not None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
    return out


# ---------------------------------------------------------------------------
# shared per-module machinery (owners, units, pytest.raises scopes)
# ---------------------------------------------------------------------------


def _module_units(module: ModuleInfo) -> list[tuple[FunctionInfo | None, list[ast.AST]]]:
    from .flow import _units  # late import: flow imports graph, not us

    return _units(module)


def _call_owners(
    graph: ProjectGraph, module: ModuleInfo
) -> dict[int, FunctionInfo | None]:
    """Map ``id(call node)`` → enclosing function for one module (memoised)."""
    cache = graph.analysis_cache.setdefault("call_owners", {})
    owners = cache.get(module.path)
    if owners is None:
        owners = {}
        for fn, nodes in _module_units(module):
            for node in nodes:
                if isinstance(node, ast.Call):
                    owners[id(node)] = fn
        cache[module.path] = owners
    return owners


def _unit_facts(
    graph: ProjectGraph, module: ModuleInfo, fn: FunctionInfo | None
) -> UnitFacts:
    cache = graph.analysis_cache.setdefault("unit_facts", {})
    key = (module.path, fn.qualname if fn is not None else None)
    facts = cache.get(key)
    if facts is None:
        from .flow import _unit_nodes

        nodes = (
            list(_unit_nodes(fn.node, whole=True))
            if fn is not None
            else list(_unit_nodes(module.tree, whole=False))
        )
        facts = UnitFacts(nodes)
        cache[key] = facts
    return facts


def _negative_test_scopes(graph: ProjectGraph, module: ModuleInfo) -> set[int]:
    """Node ids inside ``with pytest.raises(...)`` blocks (intentional
    contract violations in tests must not be reported)."""
    cache = graph.analysis_cache.setdefault("raises_scopes", {})
    scoped = cache.get(module.path)
    if scoped is None:
        scoped = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            if any(
                isinstance(item.context_expr, ast.Call)
                and _terminal_name(item.context_expr.func) == "raises"
                for item in node.items
            ):
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        scoped.add(id(sub))
        cache[module.path] = scoped
    return scoped


def _bind_call(fn: FunctionInfo, call: ast.Call) -> dict[str, ast.expr] | None:
    """Map a call site's argument expressions onto ``fn``'s parameter names.

    Returns ``None`` when the binding is not statically knowable
    (``*args``/``**kwargs`` at the call site).
    """
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        kw.arg is None for kw in call.keywords
    ):
        return None
    a = fn.node.args
    names = [p.arg for p in (*a.posonlyargs, *a.args)]
    if fn.is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    bound: dict[str, ast.expr] = {}
    for i, arg in enumerate(call.args):
        if i < len(names):
            bound[names[i]] = arg
    for kw in call.keywords:
        if kw.arg is not None:
            bound[kw.arg] = kw.value
    return bound


class _CallSiteRule(ProjectRule):
    """Base for rules that verify call sites of contracted kernels."""

    def check(self) -> None:
        index = contract_index(self.graph)
        seen: set[int] = set()
        for fqname in sorted(index):
            contract = index[fqname]
            for site in self.graph.call_sites(fqname):
                if id(site.node) in seen:
                    continue  # defining name + alias resolve to one call
                seen.add(id(site.node))
                if id(site.node) in _negative_test_scopes(self.graph, site.module):
                    continue
                bound = _bind_call(contract.fn, site.node)
                if bound is None:
                    continue
                owner = _call_owners(self.graph, site.module).get(id(site.node))
                facts = _unit_facts(self.graph, site.module, owner)
                self.check_call(contract, site, bound, facts)

    def check_call(
        self,
        contract: StaticContract,
        site: CallSite,
        bound: Mapping[str, ast.expr],
        facts: UnitFacts,
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


# ---------------------------------------------------------------------------
# SIM201 — dtype drift at a kernel call site
# ---------------------------------------------------------------------------


@register_contract
class DtypeDriftRule(_CallSiteRule):
    """SIM201: the dtype reaching a kernel must match its contract.

    A float32 array silently *widens* on the NumPy path (``np.asarray``
    upcasts and copies), and a workspace kernel writing into it rounds
    every value it stores; the strict-mode validator rejects the call.
    Every array whose dtype the dataflow can prove is checked against
    the declaration; unknown dtypes pass (the runtime validator still
    sees them).
    """

    id = "SIM201"
    summary = "array dtype at a kernel call site drifts from the contract"

    def check_call(self, contract, site, bound, facts) -> None:
        for param, expr in bound.items():
            admissible = contract.dtype_names(param)
            if not admissible:
                continue
            fact = facts.of_expr(expr)
            if fact is None or fact.dtype is None:
                continue
            if fact.dtype not in admissible:
                self.report(
                    site.module,
                    site.node,
                    f"`{contract.fn.qualname}` takes {param} as "
                    f"{'/'.join(admissible)} but this call passes "
                    f"{fact.dtype}: the NumPy path silently converts and a "
                    "written buffer rounds — construct the array with the "
                    "contracted dtype",
                )


# ---------------------------------------------------------------------------
# SIM202 — undeclared in-place mutation inside a kernel body
# ---------------------------------------------------------------------------


#: ndarray methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "itemset", "setfield"}
)


@register_contract
class UndeclaredWriteRule(ProjectRule):
    """SIM202: a kernel may only write the arrays its contract declares.

    ``writes=()`` is a promise to the caller: inputs come back untouched,
    so results can be reused, cached, or shared across threads.  The rule
    tracks each contracted parameter through view-creating assignments
    (``prefix = work2[:n]``, ``d = np.subtract(..., out=work1[:m])``) and
    flags subscript stores, augmented assignments, ``out=`` targets and
    mutating methods that land on a parameter missing from ``writes=``.
    Rebinding a parameter name (``t = np.asarray(t)``) ends its tracking —
    the kernel now works on its own (possibly fresh) array.
    """

    id = "SIM202"
    summary = "kernel writes a caller-visible array not declared in writes="

    def check(self) -> None:
        index = contract_index(self.graph)
        checked: set[int] = set()
        for fqname in sorted(index):
            contract = index[fqname]
            if id(contract.fn.node) in checked:
                continue
            checked.add(id(contract.fn.node))
            self._check_body(contract)

    # -- body analysis ---------------------------------------------------

    def _check_body(self, contract: StaticContract) -> None:
        tracked = {
            name: name
            for name in contract.param_names()
            if name not in contract.writes
        }
        declared_writes = set(contract.writes)
        if not tracked and not declared_writes:
            return
        alias: dict[str, str] = dict(tracked)
        alias.update({w: w for w in declared_writes})
        events = self._events(contract.fn.node)
        reported: set[str] = set()
        for _pos, kind, payload in events:
            if kind == "bind":
                name, root = payload
                target = alias.get(root)
                if target is not None:
                    alias[name] = target
                else:
                    alias.pop(name, None)
            elif kind == "unbind":
                alias.pop(payload, None)
            else:  # mutate
                node, name = payload
                root = alias.get(name)
                if root is None or root in declared_writes or root in reported:
                    continue
                reported.add(root)
                via = f" (via `{name}`)" if name != root else ""
                self.report(
                    contract.fn.module,
                    node,
                    f"`{contract.fn.qualname}` mutates parameter `{root}`"
                    f"{via} in place but its contract declares "
                    f"writes={tuple(sorted(declared_writes))!r} — add it to "
                    "writes= or work on a copy; callers assume undeclared "
                    "inputs come back untouched",
                )

    def _events(
        self, fn_node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[tuple[tuple[int, int], str, object]]:
        events: list[tuple[tuple[int, int], str, object]] = []

        def pos(node: ast.AST) -> tuple[int, int]:
            return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))

        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    root = self._view_root(node.value)
                    if root is not None:
                        events.append((pos(node), "bind", (target.id, root)))
                    else:
                        events.append((pos(node), "unbind", target.id))
                elif isinstance(target, ast.Subscript):
                    root = self._store_root(target)
                    if root is not None:
                        events.append((pos(node), "mutate", (node, root)))
            elif isinstance(node, ast.AugAssign):
                root = self._store_root(node.target)
                if root is not None:
                    events.append((pos(node), "mutate", (node, root)))
            elif isinstance(node, ast.Call):
                out = _kwarg(node, "out")
                if out is not None:
                    root = self._store_root(out)
                    if root is not None:
                        events.append((pos(node), "mutate", (node, root)))
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS
                    and isinstance(node.func.value, ast.Name)
                ):
                    events.append(
                        (pos(node), "mutate", (node, node.func.value.id))
                    )
        events.sort(key=lambda e: e[0])
        return events

    @staticmethod
    def _store_root(node: ast.expr) -> str | None:
        """The local name a store target ultimately writes into."""
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def _view_root(self, value: ast.expr) -> str | None:
        """The local name ``value`` is a view of, or None for fresh data."""
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Subscript):
            if isinstance(value.slice, ast.Slice):
                return self._view_root(value.value)
            return None
        if isinstance(value, ast.Call):
            out = _kwarg(value, "out")
            if out is not None:
                return self._view_root(out)
        return None


# ---------------------------------------------------------------------------
# SIM203 — aliased arguments the contract keeps disjoint
# ---------------------------------------------------------------------------


@register_contract
class AliasedArgumentsRule(_CallSiteRule):
    """SIM203: input and scratch buffers must not share memory.

    The in-place kernels (``_fcfs_waits_into``) overwrite their
    workspaces mid-recursion; an input aliasing a workspace is read after
    it has been clobbered and the Lindley recursion silently corrupts.
    The rule reports call sites that pass *provably* overlapping arrays —
    the same name twice, or a slice-view of another argument — for
    parameter pairs not covered by ``allow_alias``.
    """

    id = "SIM203"
    summary = "call site aliases kernel parameters declared disjoint"

    def check_call(self, contract, site, bound, facts) -> None:
        # every bound parameter participates: an argument needs no dtype
        # or shape declaration of its own to alias the written buffer.
        written = set(contract.writes)
        roots: list[tuple[str, str]] = []
        for param, expr in bound.items():
            root = self._root_of(expr, facts)
            if root is not None:
                roots.append((param, root))
        for i, (p1, r1) in enumerate(roots):
            for p2, r2 in roots[i + 1 :]:
                if r1 != r2 or contract.may_alias(p1, p2):
                    continue
                if p1 not in written and p2 not in written:
                    continue  # two read-only views sharing memory is safe
                self.report(
                    site.module,
                    site.node,
                    f"`{contract.fn.qualname}` requires {p1} and {p2} to be "
                    f"disjoint but both resolve to `{r1}`: the kernel "
                    "overwrites one while reading the other — pass "
                    "independent buffers (or declare allow_alias)",
                )

    @staticmethod
    def _root_of(expr: ast.expr, facts: UnitFacts) -> str | None:
        if isinstance(expr, ast.Name):
            return facts.alias_root(expr.id)
        if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Slice):
            inner = expr.value
            if isinstance(inner, ast.Name):
                return facts.alias_root(inner.id)
        return None


# ---------------------------------------------------------------------------
# SIM204 — declared shape broken at a call site
# ---------------------------------------------------------------------------


@register_contract
class ShapeContractRule(_CallSiteRule):
    """SIM204: rank and dimension symbols must unify across the call.

    A contract like ``{"t": ("n",), "s": ("n",)}`` promises equal-length
    1-D inputs; passing a 2-D array (rank break) or arrays of provably
    different lengths (symbol break) means the NumPy path broadcasts or
    raises at some interior expression.  Only literally-known shapes are
    compared.
    """

    id = "SIM204"
    summary = "call site breaks the kernel's declared shape contract"

    def check_call(self, contract, site, bound, facts) -> None:
        extents: dict[str, tuple[str, int]] = {}
        for param, expr in bound.items():
            spec = contract.shapes.get(param)
            if spec is None:
                continue
            fact = facts.of_expr(expr)
            if fact is None:
                continue
            if fact.ndim is not None and fact.ndim != len(spec):
                self.report(
                    site.module,
                    site.node,
                    f"`{contract.fn.qualname}` declares {param} as "
                    f"{len(spec)}-D {spec!r} but this call passes a "
                    f"{fact.ndim}-D array: the kernel would broadcast or "
                    "index out of contract — reshape or fix the argument",
                )
                continue
            if fact.length is None or not spec:
                continue
            dim = spec[0]
            if isinstance(dim, int):
                if fact.length != dim:
                    self.report(
                        site.module,
                        site.node,
                        f"`{contract.fn.qualname}` declares {param} with "
                        f"literal extent {dim} but this call passes length "
                        f"{fact.length}",
                    )
                continue
            prior = extents.get(dim)
            if prior is None:
                extents[dim] = (param, fact.length)
            elif prior[1] != fact.length:
                self.report(
                    site.module,
                    site.node,
                    f"dimension {dim!r} of `{contract.fn.qualname}` is "
                    f"{prior[1]} via {prior[0]} but {fact.length} via "
                    f"{param}: unequal lengths broadcast or truncate the "
                    "recursion — the contract requires them to match",
                )


# ---------------------------------------------------------------------------
# SIM205 — non-contiguous array where the contract demands C order
# ---------------------------------------------------------------------------


@register_contract
class ContiguityRule(_CallSiteRule):
    """SIM205: scan kernels assume C-contiguous input.

    A strided view (``x[::2]``, a transposed row) walks memory with a
    gap; the NumPy path tolerates it at a copy's cost, and the
    strict-mode validator rejects it.  Arguments the dataflow can prove
    non-contiguous must pass through ``np.ascontiguousarray`` first.
    """

    id = "SIM205"
    summary = "provably non-contiguous array passed to a contiguous= parameter"

    def check_call(self, contract, site, bound, facts) -> None:
        for param in contract.contiguous:
            expr = bound.get(param)
            if expr is None:
                continue
            fact = facts.of_expr(expr)
            if fact is not None and fact.contiguous is False:
                self.report(
                    site.module,
                    site.node,
                    f"`{contract.fn.qualname}` requires {param} to be "
                    "C-contiguous but this call passes a strided view — "
                    "wrap it in np.ascontiguousarray(...) before the scan",
                )


# ---------------------------------------------------------------------------
# SIM206 — SharedMemory lifecycle
# ---------------------------------------------------------------------------


@register_contract
class SharedMemoryLifecycleRule(ProjectRule):
    """SIM206: every SharedMemory segment needs cleanup on every exit path.

    A segment that is created but not closed/unlinked when an exception
    unwinds leaks a ``/dev/shm`` file for the machine's uptime — across a
    sweep of thousands of points that exhausts shared memory and every
    later run fails with ENOSPC.  Acceptable custody chains: a ``with``
    block, ``close()``/``unlink()`` in a ``finally``, returning the
    segment, or storing it into an attribute/container whose owner
    manages the lifetime (the arena pattern).
    """

    id = "SIM206"
    summary = "SharedMemory without close()/unlink() on every exit path"

    def applies_module(self, module: ModuleInfo) -> bool:
        return module.ctx.in_library

    def check(self) -> None:
        for module in self.modules():
            parents: dict[int, ast.AST] = {}
            for parent in ast.walk(module.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[id(child)] = parent
            owners = _call_owners(self.graph, module)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                if not self._is_shm_ctor(node, module):
                    continue
                if self._has_custody(node, parents, owners, module):
                    continue
                self.report(
                    module,
                    node,
                    "SharedMemory segment has no cleanup on the exception "
                    "path: an unwound error leaks the /dev/shm file until "
                    "reboot — use a with block, close()/unlink() in a "
                    "finally, or hand the segment to an owning arena",
                )

    @staticmethod
    def _is_shm_ctor(node: ast.Call, module: ModuleInfo) -> bool:
        resolved = module.resolve(_dotted(node.func))
        if resolved and resolved.endswith("shared_memory.SharedMemory"):
            return True
        return _terminal_name(node.func) == "SharedMemory"

    def _has_custody(
        self,
        ctor: ast.Call,
        parents: Mapping[int, ast.AST],
        owners: Mapping[int, FunctionInfo | None],
        module: ModuleInfo,
    ) -> bool:
        parent = parents.get(id(ctor))
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, ast.Return):
            return True
        if isinstance(parent, ast.Call):
            return True  # passed straight to a consumer: custody transferred
        if isinstance(parent, ast.Assign):
            targets = parent.targets
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                name = targets[0].id
                fn = owners.get(id(ctor))
                scope = fn.node if fn is not None else module.tree
                return self._name_has_custody(name, scope)
            if len(targets) == 1 and isinstance(targets[0], ast.Attribute):
                return True  # stored on an object: owner manages lifetime
        return False

    @staticmethod
    def _name_has_custody(name: str, scope: ast.AST) -> bool:
        for node in ast.walk(scope):
            if isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in ("close", "unlink")
                            and isinstance(sub.func.value, ast.Name)
                            and sub.func.value.id == name
                        ):
                            return True
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                if node.value.id == name:
                    return True
            if isinstance(node, ast.Call):
                # escape into a container or another object's attribute:
                # arena/owner patterns (self._segments.append(shm)).
                for arg in node.args:
                    if (
                        isinstance(arg, ast.Name)
                        and arg.id == name
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("append", "add", "register", "push")
                    ):
                        return True
            if isinstance(node, ast.Assign):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == name
                    and any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in node.targets
                    )
                ):
                    return True
        return False


# ---------------------------------------------------------------------------
# worker reachability (shared by SIM207/SIM210)
# ---------------------------------------------------------------------------


_POOL_SUBMIT_TAILS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "apply"}
)
_PROCESS_POOL_CTORS = frozenset({"ProcessPoolExecutor", "Pool"})
_THREAD_POOL_CTORS = frozenset({"ThreadPoolExecutor"})


def _pool_kinds(module: ModuleInfo) -> dict[str, str]:
    """Local name → "process"/"thread" for every pool-valued binding."""
    kinds: dict[str, str] = {}
    for node in ast.walk(module.tree):
        value: ast.expr | None = None
        names: list[str] = []
        if isinstance(node, ast.Assign):
            value = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            value = node.context_expr
            if isinstance(node.optional_vars, ast.Name):
                names = [node.optional_vars.id]
        if value is None or not names:
            continue
        tail = _terminal_name(value.func) if isinstance(value, ast.Call) else None
        if tail in _PROCESS_POOL_CTORS:
            for name in names:
                kinds[name] = "process"
        elif tail in _THREAD_POOL_CTORS:
            for name in names:
                kinds[name] = "thread"
    return kinds


def _entry_fqnames(
    module: ModuleInfo, kind: str
) -> set[str]:
    """Fully-qualified functions handed to pools/threads of ``kind``."""
    kinds = _pool_kinds(module)
    roots: set[str] = set()

    def resolve(expr: ast.expr) -> None:
        target = module.resolve(_dotted(expr))
        if target is not None:
            roots.add(target)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        tail = _terminal_name(node.func)
        if tail in _POOL_SUBMIT_TAILS and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and kinds.get(receiver.id) == kind
                and node.args
            ):
                resolve(node.args[0])
        if kind == "process" and tail in _PROCESS_POOL_CTORS:
            init = _kwarg(node, "initializer")
            if init is not None:
                resolve(init)
        if tail == "Process" and kind == "process":
            target = _kwarg(node, "target")
            if target is not None:
                resolve(target)
        if tail in ("Thread", "Timer") and kind == "thread":
            target = _kwarg(node, "target")
            if target is not None:
                resolve(target)
    return roots


def _reachable_functions(graph: ProjectGraph, kind: str) -> set[str]:
    """Transitive closure of project functions running inside ``kind``
    workers (memoised on the graph)."""
    cache_key = f"{kind}_reachable"
    cached = graph.analysis_cache.get(cache_key)
    if cached is not None:
        return cached
    frontier: list[str] = []
    for info in graph.by_path.values():
        frontier.extend(_entry_fqnames(info, kind))
    reachable: set[str] = set()
    while frontier:
        fq = frontier.pop()
        if fq in reachable:
            continue
        fn = graph.function(fq)
        if fn is None:
            continue
        reachable.add(fq)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callee = fn.module.resolve(_dotted(node.func))
                if callee is not None and callee not in reachable:
                    frontier.append(callee)
    graph.analysis_cache[cache_key] = reachable
    return reachable


# ---------------------------------------------------------------------------
# SIM207 — module-global mutation reachable from pool workers
# ---------------------------------------------------------------------------


@register_contract
class WorkerGlobalMutationRule(ProjectRule):
    """SIM207: worker-side global state never reaches the parent.

    A ``ProcessPoolExecutor`` worker runs in a forked/spawned process: a
    module global it mutates changes *its* copy only.  Code that also
    reads or writes the same global outside the worker set is relying on
    shared state that does not exist — the classic lost-update that
    works single-process and silently drops data in parallel runs.
    Worker-only globals (the initializer pattern) are fine.  Assigning
    attributes on an *imported module* from worker code (monkeypatching)
    is always flagged: with ``fork`` it races the parent, with ``spawn``
    it diverges from it.
    """

    id = "SIM207"
    summary = "module-global mutation reachable from process-pool workers"

    def applies_module(self, module: ModuleInfo) -> bool:
        return module.ctx.in_library

    def check(self) -> None:
        workers = _reachable_functions(self.graph, "process")
        if not workers:
            return
        in_scope = {m.name for m in self.modules()}
        for fq in sorted(workers):
            fn = self.graph.function(fq)
            if fn is None or fn.module.name not in in_scope:
                continue
            self._check_worker_fn(fn, workers)

    def _check_worker_fn(self, fn: FunctionInfo, workers: set[str]) -> None:
        module = fn.module
        global_names: set[str] = set()
        imported = set(module.imports)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
            elif isinstance(node, ast.ImportFrom):
                # function-local imports (the resource_tracker pattern)
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(
                    a.asname or a.name.partition(".")[0] for a in node.names
                )
        mutated: dict[str, ast.AST] = {}
        patched: dict[str, ast.AST] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name) and target.id in global_names:
                    mutated.setdefault(target.id, node)
                elif isinstance(target, ast.Subscript):
                    base = target.value
                    if isinstance(base, ast.Name) and base.id in module.constants:
                        mutated.setdefault(base.id, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in global_names:
                        mutated.setdefault(target.id, node)
                    elif isinstance(target, ast.Subscript):
                        base = target.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in module.constants
                        ):
                            mutated.setdefault(base.id, node)
                    elif isinstance(target, ast.Attribute):
                        head = _dotted(target.value)[:1]
                        if head and head[0] in imported:
                            patched.setdefault(
                                f"{head[0]}.{target.attr}", node
                            )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in module.constants
                    and node.func.attr
                    in ("append", "add", "update", "setdefault", "extend", "pop")
                ):
                    mutated.setdefault(base.id, node)
        for name, node in sorted(patched.items()):
            self.report(
                module,
                node,
                f"worker-reachable `{fn.qualname}` monkeypatches imported "
                f"module attribute `{name}`: under fork this races the "
                "parent's copy, under spawn it silently diverges from it — "
                "pass the behaviour explicitly instead of patching shared "
                "module state",
            )
        for name, node in sorted(mutated.items()):
            if self._used_outside_workers(module, name, workers):
                self.report(
                    module,
                    node,
                    f"worker-reachable `{fn.qualname}` mutates module global "
                    f"`{name}`, which is also used outside the worker set: "
                    "each pool process mutates its own copy, so the parent "
                    "never sees the update — return the value or go through "
                    "the checkpoint store",
                )

    @staticmethod
    def _used_outside_workers(
        module: ModuleInfo, name: str, workers: set[str]
    ) -> bool:
        for fn in module.functions.values():
            if fn.fqname in workers:
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Name) and node.id == name:
                    return True
        return False


# ---------------------------------------------------------------------------
# SIM208 — SIGALRM off the main thread
# ---------------------------------------------------------------------------


@register_contract
class ThreadSignalRule(ProjectRule):
    """SIM208: ``signal.alarm``/``setitimer``/``signal`` only work on the
    main thread.

    Python delivers signals to the main thread and refuses
    ``signal.signal`` from any other — thread-pool code that installs a
    SIGALRM handler raises ``ValueError`` at runtime, or worse, arms a
    timer whose handler interrupts an unrelated thread's main loop.  The
    per-point timeout belongs in a *process* pool worker (each worker's
    main thread), which is exactly what the parallel executor does.
    """

    id = "SIM208"
    summary = "signal.alarm/SIGALRM used from thread-pool code"

    _SIGNAL_TAILS = frozenset({"alarm", "setitimer", "signal"})

    def applies_module(self, module: ModuleInfo) -> bool:
        return module.ctx.in_library

    def check(self) -> None:
        threads = _reachable_functions(self.graph, "thread")
        if not threads:
            return
        in_scope = {m.name for m in self.modules()}
        for fq in sorted(threads):
            fn = self.graph.function(fq)
            if fn is None or fn.module.name not in in_scope:
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = fn.module.resolve(_dotted(node.func))
                tail = _terminal_name(node.func)
                if (
                    resolved
                    and resolved.startswith("signal.")
                    and tail in self._SIGNAL_TAILS
                ):
                    self.report(
                        fn.module,
                        node,
                        f"thread-reachable `{fn.qualname}` calls "
                        f"signal.{tail}: signals only work on the main "
                        "thread — move the timeout into a process-pool "
                        "worker or use a cooperative deadline",
                    )


# ---------------------------------------------------------------------------
# SIM209 — non-atomic file writes in experiments/
# ---------------------------------------------------------------------------


@register_contract
class AtomicWriteRule(ProjectRule):
    """SIM209: experiment outputs follow the tmp+fsync+``os.replace`` rule.

    The checkpoint store's whole crash-safety story is that a reader
    (including a resumed run after SIGKILL) only ever sees complete
    files.  Any experiment-layer write that opens the *final* path
    directly reintroduces torn files: a parallel worker or a killed run
    leaves a half-written JSON/CSV that a later resume happily reads.
    Write to a ``*.tmp`` sibling, ``fsync``, then ``os.replace``.
    """

    id = "SIM209"
    summary = "experiments/ file write bypasses atomic tmp+fsync+os.replace"

    def applies_module(self, module: ModuleInfo) -> bool:
        return module.ctx.in_subpackage("experiments")

    def check(self) -> None:
        for module in self.modules():
            for fn, nodes in _module_units(module):
                writes = [n for n in nodes if self._is_final_path_write(n)]
                if not writes:
                    continue
                if any(self._is_atomic_rename(n, module) for n in nodes):
                    continue
                for node in writes:
                    self.report(
                        module,
                        node,
                        "file opened for writing at its final path: a crash "
                        "or SIGKILL mid-write leaves a torn file that a "
                        "resumed run will read — write a .tmp sibling, "
                        "fsync, then os.replace (the Checkpoint pattern)",
                    )

    # -- helpers ---------------------------------------------------------

    def _is_final_path_write(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        tail = _terminal_name(node.func)
        if tail == "open":
            mode = self._mode_of(node)
            if mode is None or not mode.startswith(("w", "a", "x")):
                return False
            target = (
                node.func.value
                if isinstance(node.func, ast.Attribute)
                else (node.args[0] if node.args else None)
            )
            return not self._is_tmp_path(target)
        if tail in ("write_text", "write_bytes"):
            assert isinstance(node.func, ast.Attribute)
            return not self._is_tmp_path(node.func.value)
        return False

    @staticmethod
    def _mode_of(call: ast.Call) -> str | None:
        mode = _kwarg(call, "mode")
        if mode is None:
            args = call.args
            is_method = isinstance(call.func, ast.Attribute)
            index = 0 if is_method else 1
            mode = args[index] if len(args) > index else None
        if mode is None:
            return "r"  # open(path) defaults to read: not a write
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None  # dynamic mode: give the benefit of the doubt

    @staticmethod
    def _is_tmp_path(target: ast.expr | None) -> bool:
        if target is None:
            return False
        for sub in ast.walk(target):
            name = _terminal_name(sub)
            if name and "tmp" in _snake_words(name):
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if "tmp" in sub.value or sub.value == os.devnull:
                    return True
        return False

    @staticmethod
    def _is_atomic_rename(node: ast.AST, module: ModuleInfo) -> bool:
        if not isinstance(node, ast.Call):
            return False
        resolved = module.resolve(_dotted(node.func))
        return resolved in ("os.replace", "os.rename")


# ---------------------------------------------------------------------------
# SIM210 — RNG state pickled into a worker
# ---------------------------------------------------------------------------


@register_contract
class PickledRngRule(ProjectRule):
    """SIM210: pass seeds across process boundaries, never Generators.

    Pickling a ``numpy.random.Generator`` into a pool task copies its
    state: every worker replays the *same* stream, and the parent's
    generator never advances — the sweep silently loses its independent
    replications and no longer matches the serial run.  Ship a seed (or
    a spawned ``SeedSequence``) and construct the Generator inside the
    worker.
    """

    id = "SIM210"
    summary = "RNG object pickled into a process-pool task; pass a seed"

    def applies_module(self, module: ModuleInfo) -> bool:
        return module.ctx.in_library

    def check(self) -> None:
        from .flow import _build_scope

        for module in self.modules():
            kinds = _pool_kinds(module)
            for fn, nodes in _module_units(module):
                scope = _build_scope(fn, nodes, module)
                if not scope.rng_names:
                    continue
                for node in nodes:
                    if not isinstance(node, ast.Call):
                        continue
                    if not self._crosses_process(node, kinds):
                        continue
                    for name, via in self._rng_payloads(node, scope.rng_names):
                        self.report(
                            module,
                            node,
                            f"RNG `{name}` is pickled into a process-pool "
                            f"task{via}: every worker replays the same "
                            "stream and the parent's generator never "
                            "advances — pass a seed or spawned SeedSequence "
                            "and build the Generator in the worker",
                        )

    @staticmethod
    def _crosses_process(call: ast.Call, kinds: Mapping[str, str]) -> bool:
        tail = _terminal_name(call.func)
        if tail in _POOL_SUBMIT_TAILS and isinstance(call.func, ast.Attribute):
            receiver = call.func.value
            return (
                isinstance(receiver, ast.Name)
                and kinds.get(receiver.id) == "process"
            )
        return tail == "Process"

    @staticmethod
    def _rng_payloads(
        call: ast.Call, rng_names: set[str]
    ) -> list[tuple[str, str]]:
        payloads: list[tuple[str, str]] = []
        exprs: list[tuple[ast.expr, str]] = [(a, "") for a in call.args]
        exprs.extend((kw.value, "") for kw in call.keywords if kw.arg != "target")
        target = _kwarg(call, "target")
        for expr, _ in list(exprs):
            if isinstance(expr, ast.Tuple):
                exprs.extend((e, "") for e in expr.elts)
        for expr, _ in exprs:
            if isinstance(expr, ast.Name) and expr.id in rng_names:
                payloads.append((expr.id, ""))
            elif isinstance(expr, ast.Lambda):
                for sub in ast.walk(expr.body):
                    if isinstance(sub, ast.Name) and sub.id in rng_names:
                        payloads.append((sub.id, " (captured by a lambda)"))
            elif isinstance(expr, ast.Call) and _terminal_name(expr.func) == "partial":
                for sub in [*expr.args, *(kw.value for kw in expr.keywords)]:
                    if isinstance(sub, ast.Name) and sub.id in rng_names:
                        payloads.append((sub.id, " (bound via functools.partial)"))
        if target is not None:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and sub.id in rng_names:
                    payloads.append((sub.id, " (thread/process target closure)"))
        # dedupe, keep first mention
        seen: set[str] = set()
        out = []
        for name, via in payloads:
            if name not in seen:
                seen.add(name)
                out.append((name, via))
        return out


# ---------------------------------------------------------------------------
# SIM211 — await between read and write of shared async-server state
# ---------------------------------------------------------------------------


#: container methods that mutate their receiver in place (async-state rule).
_ASYNC_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popleft", "remove", "setdefault", "update",
    }
)


@register_contract
class AwaitSharedMutationRule(ProjectRule):
    """SIM211: a read→``await``→write of ``self`` state needs a lock.

    Every ``await`` is a scheduling point: another task (another socket
    connection in the serve front end) can run arbitrary handler code
    before control returns.  A coroutine that reads ``self.x``, awaits,
    then writes ``self.x`` from the stale read is the classic async
    lost-update — it works under every single-connection test and drops
    updates under concurrent load.  The rule flags the *write* when the
    read/await/write sequence is not protected, where protected means
    the read and the write both sit inside ``async with <lock>`` blocks
    (any context manager whose name mentions lock/mutex/semaphore) or
    the coroutine carries a ``single_writer`` decorator asserting that
    exactly one task ever runs it.

    Intra-statement forms are the same bug and are caught by event
    ordering: ``self.x += await f()`` and ``self.x = self.x + await f()``
    both read before the await and store after it.
    """

    id = "SIM211"
    summary = "await between read and write of shared async state without a lock"

    _LOCK_WORDS = frozenset({"lock", "mutex", "semaphore", "sem"})

    def applies_module(self, module: ModuleInfo) -> bool:
        return module.ctx.in_library

    def check(self) -> None:
        for module in self.modules():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    if not self._is_single_writer(node):
                        self._check_coroutine(module, node)

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _is_single_writer(fn: ast.AsyncFunctionDef) -> bool:
        return any(
            _terminal_name(d) == "single_writer" for d in fn.decorator_list
        )

    def _is_lock_manager(self, item: ast.withitem) -> bool:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        tail = _terminal_name(expr)
        if tail is None:
            return False
        return bool(set(_snake_words(tail)) & self._LOCK_WORDS)

    @staticmethod
    def _self_attr(node: ast.expr) -> str | None:
        """``self.<attr>`` → attr name (through subscripts: self.d[k])."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _events(
        self, fn: ast.AsyncFunctionDef
    ) -> list[tuple[str, str | None, bool, ast.AST]]:
        """``(kind, attr, protected, node)`` in execution-ish order.

        Kinds: ``read``/``write``/``await``.  Events inside one statement
        are emitted value-before-target, so ``self.x = self.x + await f()``
        yields read, await, write — the order the interpreter runs them.
        Nested function definitions are opaque (their bodies get their own
        visit when they are themselves async).
        """
        events: list[tuple[str, str | None, bool, ast.AST]] = []

        def scan_expr(expr: ast.AST, protected: bool) -> None:
            for sub in ast.walk(expr):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(sub, ast.Await):
                    events.append(("await", None, protected, sub))
                elif isinstance(sub, ast.Attribute) and isinstance(
                    sub.ctx, ast.Load
                ):
                    attr = self._self_attr(sub)
                    if attr is not None:
                        events.append(("read", attr, protected, sub))
                elif isinstance(sub, ast.Call) and isinstance(
                    sub.func, ast.Attribute
                ):
                    if sub.func.attr in _ASYNC_MUTATORS:
                        attr = self._self_attr(sub.func.value)
                        if attr is not None:
                            events.append(("write", attr, protected, sub))

        def scan_stmt(stmt: ast.stmt, protected: bool) -> None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return
            if isinstance(stmt, ast.AsyncWith):
                locked = protected or any(
                    self._is_lock_manager(item) for item in stmt.items
                )
                for item in stmt.items:
                    scan_expr(item.context_expr, protected)
                # entering an async context manager awaits __aenter__.
                events.append(("await", None, protected, stmt))
                for sub in stmt.body:
                    scan_stmt(sub, locked)
                return
            if isinstance(stmt, ast.Assign):
                scan_expr(stmt.value, protected)
                for target in stmt.targets:
                    attr = self._self_attr(target)
                    if attr is not None:
                        events.append(("write", attr, protected, stmt))
                return
            if isinstance(stmt, ast.AugAssign):
                attr = self._self_attr(stmt.target)
                if attr is not None:
                    events.append(("read", attr, protected, stmt.target))
                scan_expr(stmt.value, protected)
                if attr is not None:
                    events.append(("write", attr, protected, stmt))
                return
            # generic statement: expression parts first, then sub-blocks.
            for field in ast.iter_child_nodes(stmt):
                if isinstance(field, ast.stmt):
                    scan_stmt(field, protected)
                else:
                    scan_expr(field, protected)

        for stmt in fn.body:
            scan_stmt(stmt, False)
        return events

    def _check_coroutine(
        self, module: ModuleInfo, fn: ast.AsyncFunctionDef
    ) -> None:
        #: attr → node of the latest unprotected read still awaiting a write.
        pending: dict[str, ast.AST] = {}
        awaited: set[str] = set()
        reported: set[str] = set()
        for kind, attr, protected, node in self._events(fn):
            if kind == "await":
                awaited.update(pending)
            elif kind == "read":
                assert attr is not None
                if not protected:
                    pending.setdefault(attr, node)
            else:  # write
                assert attr is not None
                if (
                    not protected
                    and attr in pending
                    and attr in awaited
                    and attr not in reported
                ):
                    reported.add(attr)
                    self.report(
                        module,
                        node,
                        f"coroutine `{fn.name}` reads `self.{attr}`, awaits, "
                        "then writes it back: another task can interleave at "
                        "the await and this write clobbers its update — hold "
                        "an asyncio.Lock across the read-modify-write (async "
                        "with), or mark the coroutine @single_writer if only "
                        "one task ever runs it",
                    )
                # written (locked or not): later writes pair with later reads.
                pending.pop(attr, None)
                awaited.discard(attr)
