"""Positive + negative fixtures for the contract tier SIM201–SIM211.

Mirrors ``test_flow_rules.py``: every rule registered in
``CONTRACT_RULES`` must have at least one fixture that triggers it and
one adjacent-but-clean fixture that does not — the completeness test
fails when a new rule lands without them.

Single-module fixtures go through :func:`repro.devtools.lint_source`
(one-module graph, same path the CLI uses).  The cross-module cases at
the bottom exercise the part the graph layer exists for: a contract
declared in one module checked against call sites in another.
"""

from __future__ import annotations

import ast

import pytest

from repro.devtools import (
    CONTRACT_RULES,
    PROFILES,
    ProjectGraph,
    contract_index,
    lint_source,
    run_contract_rules,
)

SIM_PATH = "src/repro/sim/fixture.py"
EXP_PATH = "src/repro/experiments/fixture.py"

CONTRACT_IMPORT = "from repro.sim.contract import kernel_contract\n"


def rules_of(findings):
    return {f.rule for f in findings}


def contract_findings(files: dict[str, str], select=None):
    """Run the contract rules over a virtual multi-file tree."""
    parsed = [(path, ast.parse(src)) for path, src in files.items()]
    return run_contract_rules(ProjectGraph.build(parsed), select=select)


# ---------------------------------------------------------------------------
# fixtures: {rule: (positive_src, positive_path, negative_src, negative_path)}
# ---------------------------------------------------------------------------

FIXTURES = {
    "SIM201": (
        # positive: int32 array fed to a float64-contracted parameter
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(dtypes={"xs": "float64"})
def kern(xs):
    return xs

def caller():
    return kern(np.zeros(4, dtype=np.int32))
""",
        SIM_PATH,
        # negative: np.zeros defaults to float64 — exactly the contract
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(dtypes={"xs": "float64"})
def kern(xs):
    return xs

def caller():
    return kern(np.zeros(4))
""",
        SIM_PATH,
    ),
    "SIM202": (
        # positive: kernel mutates a parameter it never declared in writes=
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(dtypes={"xs": "float64"})
def kern(xs):
    xs[0] = 0.0
    return xs
""",
        SIM_PATH,
        # negative: the mutated buffer is declared
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(dtypes={"out": "float64"}, writes=("out",))
def kern(out):
    out[0] = 0.0
    return out
""",
        SIM_PATH,
    ),
    "SIM203": (
        # positive: one buffer passed as both the input and the scratch
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(writes=("out",))
def kern(xs, out):
    out[0] = xs[0]
    return out

def caller():
    buf = np.zeros(4)
    return kern(buf, buf)
""",
        SIM_PATH,
        # negative: two read-only inputs may alias freely
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract()
def kern(xs, ys):
    return xs, ys

def caller():
    buf = np.zeros(4)
    return kern(buf, buf)
""",
        SIM_PATH,
    ),
    "SIM204": (
        # positive: two parameters sharing the symbol "n" get different lengths
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(shapes={"xs": ("n",), "ys": ("n",)})
def kern(xs, ys):
    return xs

def caller():
    return kern(np.zeros(3), np.zeros(4))
""",
        SIM_PATH,
        # negative: lengths agree
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(shapes={"xs": ("n",), "ys": ("n",)})
def kern(xs, ys):
    return xs

def caller():
    return kern(np.zeros(4), np.zeros(4))
""",
        SIM_PATH,
    ),
    "SIM205": (
        # positive: a strided view fed to a contiguous= parameter
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(contiguous=("xs",))
def kern(xs):
    return xs

def caller():
    a = np.zeros(8)
    return kern(a[::2])
""",
        SIM_PATH,
        # negative: routed through np.ascontiguousarray first
        CONTRACT_IMPORT
        + """\
import numpy as np

@kernel_contract(contiguous=("xs",))
def kern(xs):
    return xs

def caller():
    a = np.zeros(8)
    return kern(np.ascontiguousarray(a[::2]))
""",
        SIM_PATH,
    ),
    "SIM206": (
        # positive: segment created, neither closed nor handed to anyone
        """\
from multiprocessing import shared_memory

def leak(n):
    shm = shared_memory.SharedMemory(create=True, size=n)
    shm.buf[0] = 1
""",
        SIM_PATH,
        # negative: close/unlink on every exit path via finally
        """\
from multiprocessing import shared_memory

def careful(n):
    shm = shared_memory.SharedMemory(create=True, size=n)
    try:
        shm.buf[0] = 1
    finally:
        shm.close()
        shm.unlink()
""",
        SIM_PATH,
    ),
    "SIM207": (
        # positive: worker mutates a module global another function reads
        """\
from concurrent.futures import ProcessPoolExecutor

COUNTER = 0

def work(x):
    global COUNTER
    COUNTER += 1
    return x

def report():
    return COUNTER

def run(items):
    ex = ProcessPoolExecutor()
    return [ex.submit(work, item) for item in items]
""",
        SIM_PATH,
        # negative: the worker returns its count; the parent aggregates
        """\
from concurrent.futures import ProcessPoolExecutor

def work(x):
    return x + 1

def run(items):
    ex = ProcessPoolExecutor()
    return [ex.submit(work, item) for item in items]
""",
        SIM_PATH,
    ),
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
    "SIM210": (
        # positive: a Generator pickled into a process-pool task
        """\
import numpy as np
from concurrent.futures import ProcessPoolExecutor

def work(rng):
    return rng.random()

def run(seed, n):
    rng = np.random.default_rng(seed)
    ex = ProcessPoolExecutor()
    return [ex.submit(work, rng) for _ in range(n)]
""",
        SIM_PATH,
        # negative: ship the seed, spawn the stream inside the worker
        """\
import numpy as np
from concurrent.futures import ProcessPoolExecutor

def work(seed):
    rng = np.random.default_rng(seed)
    return rng.random()

def run(seed, n):
    ex = ProcessPoolExecutor()
    return [ex.submit(work, seed + i) for i in range(n)]
""",
        SIM_PATH,
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


def test_every_registered_contract_rule_has_fixtures():
    assert set(FIXTURES) == set(CONTRACT_RULES)


def test_profiles_partition_the_contract_tier():
    assert PROFILES["kernels"] | PROFILES["concurrency"] == set(CONTRACT_RULES)
    assert not PROFILES["kernels"] & PROFILES["concurrency"]


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
def test_noqa_suppresses_contract_finding(rule):
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
    pos_src, pos_path, _, _ = FIXTURES["SIM201"]
    src = pos_src.replace("def caller():", "def caller():  # repro: noqa: SIM201")
    assert lint_source(src, path=pos_path, select=["SIM201"]) == []


def test_header_noqa_on_decorator_line_covers_the_function_body():
    pos_src, pos_path, _, _ = FIXTURES["SIM202"]
    src = pos_src.replace(
        '@kernel_contract(dtypes={"xs": "float64"})',
        '@kernel_contract(dtypes={"xs": "float64"})  # repro: noqa: SIM202',
    )
    assert lint_source(src, path=pos_path, select=["SIM202"]) == []


def test_bare_header_noqa_stays_line_only():
    """A blanket ``noqa`` (no rule list) must not widen to the body."""
    pos_src, pos_path, _, _ = FIXTURES["SIM201"]
    src = pos_src.replace("def caller():", "def caller():  # repro: noqa")
    findings = lint_source(src, path=pos_path, select=["SIM201"])
    assert rules_of(findings) == {"SIM201"}


def test_header_noqa_does_not_leak_past_the_function():
    pos_src, pos_path, _, _ = FIXTURES["SIM201"]
    src = (
        pos_src.replace("def caller():", "def quiet():  # repro: noqa: SIM201")
        + "\ndef caller():\n    return kern(np.zeros(4, dtype=np.int32))\n"
    )
    findings = lint_source(src, path=pos_path, select=["SIM201"])
    assert len(findings) == 1 and findings[0].rule == "SIM201"


# ---------------------------------------------------------------------------
# intentional violations inside pytest.raises are not findings
# ---------------------------------------------------------------------------


def test_call_inside_pytest_raises_is_skipped():
    src = CONTRACT_IMPORT + (
        "import numpy as np\n"
        "import pytest\n"
        "\n"
        '@kernel_contract(dtypes={"xs": "float64"})\n'
        "def kern(xs):\n"
        "    return xs\n"
        "\n"
        "def test_rejects_ints():\n"
        "    with pytest.raises(ValueError):\n"
        "        kern(np.zeros(4, dtype=np.int32))\n"
    )
    assert lint_source(src, path="tests/sim/test_fixture.py", select=["SIM201"]) == []


# ---------------------------------------------------------------------------
# cross-module: contract declared in one module, call site in another
# ---------------------------------------------------------------------------

_KERNEL_MODULE = CONTRACT_IMPORT + (
    "import numpy as np\n"
    "__all__ = ['kern']\n"
    "\n"
    '@kernel_contract(dtypes={"xs": "float64"}, shapes={"xs": ("n",)})\n'
    "def kern(xs):\n"
    "    return xs\n"
)


def test_cross_module_call_site_checked():
    findings = contract_findings(
        {
            "src/repro/sim/kernels.py": _KERNEL_MODULE,
            "src/repro/sim/driver.py": (
                "import numpy as np\n"
                "from .kernels import kern\n"
                "def go():\n"
                "    return kern(np.zeros(4, dtype=np.int32))\n"
            ),
        },
        select={"SIM201"},
    )
    assert rules_of(findings) == {"SIM201"}
    assert findings[0].path == "src/repro/sim/driver.py"


def test_cross_module_aliased_import_checked():
    """The index follows ``from .kernels import kern as fast_kern``."""
    findings = contract_findings(
        {
            "src/repro/sim/kernels.py": _KERNEL_MODULE,
            "src/repro/sim/driver.py": (
                "import numpy as np\n"
                "from .kernels import kern as fast_kern\n"
                "def go():\n"
                "    return fast_kern(np.zeros(4, dtype=np.int32))\n"
            ),
        },
        select={"SIM201"},
    )
    assert rules_of(findings) == {"SIM201"}


def test_cross_module_clean_call_site():
    findings = contract_findings(
        {
            "src/repro/sim/kernels.py": _KERNEL_MODULE,
            "src/repro/sim/driver.py": (
                "import numpy as np\n"
                "from .kernels import kern\n"
                "def go():\n"
                "    return kern(np.zeros(4))\n"
            ),
        },
        select={"SIM201"},
    )
    assert findings == []


def test_contract_index_sees_real_kernels():
    """The shipped kernels declare contracts the index picks up."""
    import repro.sim.fast as fast
    from pathlib import Path
    import inspect

    path = inspect.getsourcefile(fast)
    assert path is not None
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    graph = ProjectGraph.build([("src/repro/sim/fast.py", tree)])
    index = contract_index(graph)
    assert "repro.sim.fast.fcfs_waits" in index
    assert "repro.sim.fast.sita_scan" in index
