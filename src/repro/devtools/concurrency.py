"""Concurrency and resource-safety rules (SIM208, SIM209, SIM211).

The whole-program tier.  The per-file rules (:mod:`repro.devtools.rules`)
see one module; these rules see the project graph, *thread boundaries*
and the crash-safety of files, which the crash-safe sweep harness and
the async serve front end make load-bearing:

=========  ===========================================================
SIM208     signal.alarm/SIGALRM installed off the main thread
SIM209     file write in experiments/ bypassing the atomic tmp+fsync+replace pattern
SIM211     await between read and write of shared async-server state, no lock
=========  ===========================================================

The static analysis is deliberately **conservative**: a fact it cannot
prove (an unresolvable receiver, a pool it cannot see) produces no
finding.

Rationale and a positive/negative example per rule live in
``docs/DEVTOOLS.md``.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator

from .findings import Finding
from .graph import FunctionInfo, ModuleInfo, ProjectGraph, ProjectRule
from .rules import _dotted

__all__ = [
    "CONCURRENCY_RULES",
    "register_concurrency",
    "run_concurrency_rules",
]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


CONCURRENCY_RULES: dict[str, type["ProjectRule"]] = {}


def register_concurrency(cls: type["ProjectRule"]) -> type["ProjectRule"]:
    """Class decorator adding a concurrency rule to the registry."""
    if not getattr(cls, "id", None):
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in CONCURRENCY_RULES:
        raise ValueError(f"duplicate concurrency rule id {cls.id}")
    CONCURRENCY_RULES[cls.id] = cls
    return cls


def run_concurrency_rules(
    graph: ProjectGraph, select: set[str] | None = None
) -> list[Finding]:
    """Run every registered (selected) concurrency rule over ``graph``."""
    findings: list[Finding] = []
    for rule_id in sorted(CONCURRENCY_RULES):
        if select is not None and rule_id not in select:
            continue
        rule = CONCURRENCY_RULES[rule_id](graph)
        rule.check()
        findings.extend(rule.findings)
    return findings


# ---------------------------------------------------------------------------
# shared AST helpers (names, code units, keyword lookup)
# ---------------------------------------------------------------------------


def _terminal_name(node: ast.AST) -> str | None:
    """The identifier a value expression 'ends' in (attribute tail or name)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _snake_words(name: str) -> set[str]:
    return {w for w in name.lower().split("_") if w}


def _module_level_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node of ``tree`` outside its function and class bodies."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _module_units(module: ModuleInfo) -> list[tuple[FunctionInfo | None, list[ast.AST]]]:
    """Code units of a module: each function/method (nested definitions
    included), plus the module level."""
    units: list[tuple[FunctionInfo | None, list[ast.AST]]] = [
        (fn, list(ast.walk(fn.node))) for fn in module.functions.values()
    ]
    units.append((None, list(_module_level_nodes(module.tree))))
    return units


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


# ---------------------------------------------------------------------------
# thread reachability (SIM208)
# ---------------------------------------------------------------------------


_POOL_SUBMIT_TAILS = frozenset({"submit", "map"})


def _thread_pools(module: ModuleInfo) -> set[str]:
    """Local names bound to a ``ThreadPoolExecutor``."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        value: ast.expr | None = None
        targets: list[str] = []
        if isinstance(node, ast.Assign):
            value = node.value
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            value = node.context_expr
            if isinstance(node.optional_vars, ast.Name):
                targets = [node.optional_vars.id]
        if (
            isinstance(value, ast.Call)
            and _terminal_name(value.func) == "ThreadPoolExecutor"
        ):
            names.update(targets)
    return names


def _thread_entry_fqnames(module: ModuleInfo) -> set[str]:
    """Fully-qualified functions handed to thread pools or threads."""
    pools = _thread_pools(module)
    roots: set[str] = set()

    def resolve(expr: ast.expr) -> None:
        target = module.resolve(_dotted(expr))
        if target is not None:
            roots.add(target)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        tail = _terminal_name(node.func)
        if (
            tail in _POOL_SUBMIT_TAILS
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in pools
            and node.args
        ):
            resolve(node.args[0])
        if tail in ("Thread", "Timer"):
            target = _kwarg(node, "target")
            if target is not None:
                resolve(target)
    return roots


def _thread_reachable_functions(graph: ProjectGraph) -> set[str]:
    """Transitive closure of project functions running on threads
    (memoised on the graph)."""
    cached = graph.analysis_cache.get("thread_reachable")
    if cached is not None:
        return cached
    frontier: list[str] = []
    for info in graph.by_path.values():
        frontier.extend(_thread_entry_fqnames(info))
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
    graph.analysis_cache["thread_reachable"] = reachable
    return reachable


# ---------------------------------------------------------------------------
# SIM208 — SIGALRM off the main thread
# ---------------------------------------------------------------------------


@register_concurrency
class ThreadSignalRule(ProjectRule):
    """SIM208: ``signal.alarm``/``setitimer``/``signal`` only work on the
    main thread.

    Python delivers signals to the main thread and refuses
    ``signal.signal`` from any other — thread-pool code that installs a
    SIGALRM handler raises ``ValueError`` at runtime, or worse, arms a
    timer whose handler interrupts an unrelated thread's main loop.  The
    per-point timeout belongs in a *process* pool worker (each worker's
    main thread), which is where the sweep's cell map runs it.
    """

    id = "SIM208"
    summary = "signal.alarm/SIGALRM used from thread-pool code"

    _SIGNAL_TAILS = frozenset({"alarm", "setitimer", "signal"})

    def applies_module(self, module: ModuleInfo) -> bool:
        return module.ctx.in_library

    def check(self) -> None:
        threads = _thread_reachable_functions(self.graph)
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


@register_concurrency
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
# SIM211 — await between read and write of shared async-server state
# ---------------------------------------------------------------------------


#: container methods that mutate their receiver in place (async-state rule).
_ASYNC_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popleft", "remove", "setdefault", "update",
    }
)


@register_concurrency
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
