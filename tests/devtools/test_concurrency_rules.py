"""Positive + negative fixtures for the concurrency tier (SIM208, SIM209, SIM211).

Every rule registered in ``CONCURRENCY_RULES`` must have at least one
fixture that triggers it and one adjacent-but-clean fixture that does
not — the completeness test fails when a new rule lands without them.

Single-module fixtures go through :func:`repro.devtools.lint_source`
(one-module graph, same path the CLI uses).  The cross-module cases at
the bottom exercise the part the graph layer exists for: a worker
defined in one module, handed to a thread pool in another.
"""

from __future__ import annotations

import ast

import pytest

from repro.devtools import (
    CONCURRENCY_RULES,
    ProjectGraph,
    lint_source,
    run_concurrency_rules,
)
from repro.devtools.graph import module_name_for_path

SIM_PATH = "src/repro/sim/fixture.py"
EXP_PATH = "src/repro/experiments/fixture.py"


def rules_of(findings):
    return {f.rule for f in findings}


def concurrency_findings(files: dict[str, str], select=None):
    """Run the concurrency rules over a virtual multi-file tree."""
    parsed = [(path, ast.parse(src)) for path, src in files.items()]
    return run_concurrency_rules(ProjectGraph.build(parsed), select=select)


# ---------------------------------------------------------------------------
# fixtures: {rule: (positive_src, positive_path, negative_src, negative_path)}
# ---------------------------------------------------------------------------

FIXTURES = {
    "SIM208": (
        # positive: signal.alarm inside thread-pool-reachable code
        """\
import signal
from concurrent.futures import ThreadPoolExecutor

def work(x):
    signal.alarm(5)
    return x

def run(items):
    ex = ThreadPoolExecutor()
    return [ex.submit(work, item) for item in items]
""",
        SIM_PATH,
        # negative: the same alarm from code no thread pool reaches
        """\
import signal
from concurrent.futures import ThreadPoolExecutor

def work(x):
    return x

def timed_main(x):
    signal.alarm(5)
    return work(x)

def run(items):
    ex = ThreadPoolExecutor()
    return [ex.submit(work, item) for item in items]
""",
        SIM_PATH,
    ),
    "SIM209": (
        # positive: results file written in place — a crash truncates it
        """\
def save(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(row)
""",
        EXP_PATH,
        # negative: tmp file then atomic os.replace
        """\
import os

def save(path, rows):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        for row in rows:
            fh.write(row)
    os.replace(tmp, path)
""",
        EXP_PATH,
    ),
    "SIM211": (
        # positive: read, await, write-back of shared async-server state
        """\
class Frontend:
    async def handle(self, reader, writer):
        depth = self.depth
        line = await reader.readline()
        self.depth = depth + 1
        self.pending.append(line)
""",
        "src/repro/serve/fixture.py",
        # negative: the read-modify-write is held under the lock
        """\
class Frontend:
    async def handle(self, reader, writer):
        line = await reader.readline()
        async with self._lock:
            depth = self.depth
            self.depth = depth + 1
            self.pending.append(line)
""",
        "src/repro/serve/fixture.py",
    ),
}


def test_every_registered_concurrency_rule_has_fixtures():
    assert set(FIXTURES) == set(CONCURRENCY_RULES)


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_positive_fixture_triggers(rule):
    pos_src, pos_path, _, _ = FIXTURES[rule]
    findings = lint_source(pos_src, path=pos_path, select=[rule])
    assert rules_of(findings) == {rule}, findings


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_negative_fixture_is_clean(rule):
    _, _, neg_src, neg_path = FIXTURES[rule]
    findings = lint_source(neg_src, path=neg_path, select=[rule])
    assert findings == [], findings


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_noqa_suppresses_concurrency_finding(rule):
    pos_src, pos_path, _, _ = FIXTURES[rule]
    findings = lint_source(pos_src, path=pos_path, select=[rule])
    lines = pos_src.splitlines()
    for f in findings:
        lines[f.line - 1] += f"  # repro: noqa {rule}"
    suppressed = lint_source("\n".join(lines), path=pos_path, select=[rule])
    assert suppressed == []


# ---------------------------------------------------------------------------
# function-header noqa: explicit rules widen to the whole function
# ---------------------------------------------------------------------------


def test_header_noqa_covers_the_function_body():
    pos_src, pos_path, _, _ = FIXTURES["SIM209"]
    src = pos_src.replace(
        "def save(path, rows):", "def save(path, rows):  # repro: noqa: SIM209"
    )
    assert lint_source(src, path=pos_path, select=["SIM209"]) == []


def test_header_noqa_on_decorator_line_covers_the_function_body():
    pos_src, pos_path, _, _ = FIXTURES["SIM209"]
    src = "def logged(fn):\n    return fn\n\n" + pos_src.replace(
        "def save(path, rows):",
        "@logged  # repro: noqa: SIM209\ndef save(path, rows):",
    )
    assert lint_source(src, path=pos_path, select=["SIM209"]) == []


def test_bare_header_noqa_stays_line_only():
    """A blanket ``noqa`` (no rule list) must not widen to the body."""
    pos_src, pos_path, _, _ = FIXTURES["SIM209"]
    src = pos_src.replace("def save(path, rows):", "def save(path, rows):  # repro: noqa")
    findings = lint_source(src, path=pos_path, select=["SIM209"])
    assert rules_of(findings) == {"SIM209"}


def test_header_noqa_does_not_leak_past_the_function():
    pos_src, pos_path, _, _ = FIXTURES["SIM209"]
    src = (
        pos_src.replace(
            "def save(path, rows):", "def quiet(path, rows):  # repro: noqa: SIM209"
        )
        + "\ndef save(path, rows):\n"
        + '    with open(path, "w") as fh:\n'
        + "        fh.write(rows)\n"
    )
    findings = lint_source(src, path=pos_path, select=["SIM209"])
    assert len(findings) == 1 and findings[0].rule == "SIM209"


# ---------------------------------------------------------------------------
# cross-module: worker defined in one module, pooled from another
# ---------------------------------------------------------------------------

_WORKER_MODULE = (
    "import signal\n"
    "\n"
    "__all__ = ['work']\n"
    "\n"
    "def work(x):\n"
    "    signal.alarm(5)\n"
    "    return x\n"
)


def _pool_module(import_line: str, name: str) -> str:
    return (
        "from concurrent.futures import ThreadPoolExecutor\n"
        f"{import_line}\n"
        "def run(items):\n"
        "    ex = ThreadPoolExecutor()\n"
        f"    return [ex.submit({name}, item) for item in items]\n"
    )


def test_cross_module_call_site_checked():
    findings = concurrency_findings(
        {
            "src/repro/experiments/worker.py": _WORKER_MODULE,
            "src/repro/experiments/sweep.py": _pool_module("from .worker import work", "work"),
        },
        select={"SIM208"},
    )
    assert rules_of(findings) == {"SIM208"}
    assert findings[0].path == "src/repro/experiments/worker.py"


def test_cross_module_aliased_import_checked():
    """Reachability follows ``from .worker import work as task``."""
    findings = concurrency_findings(
        {
            "src/repro/experiments/worker.py": _WORKER_MODULE,
            "src/repro/experiments/sweep.py": _pool_module(
                "from .worker import work as task", "task"
            ),
        },
        select={"SIM208"},
    )
    assert rules_of(findings) == {"SIM208"}


def test_cross_module_clean_call_site():
    """The same worker module is clean when no pool ever runs it."""
    findings = concurrency_findings(
        {
            "src/repro/experiments/worker.py": _WORKER_MODULE,
            "src/repro/experiments/sweep.py": (
                "from .worker import work\n"
                "def run(items):\n"
                "    return [work(item) for item in items]\n"
            ),
        },
        select={"SIM208"},
    )
    assert findings == []


def test_module_name_for_path():
    assert module_name_for_path("src/repro/sim/engine.py") == "repro.sim.engine"
    assert module_name_for_path("src/repro/sim/__init__.py") == "repro.sim"
    assert module_name_for_path("tests/sim/test_engine.py") == "tests.sim.test_engine"
