"""Runtime half of the kernel contracts, and its agreement with SIM2xx.

The decorator in :mod:`repro.sim.contract` validates calls when enabled
(``REPRO_SIM_STRICT=1`` or :func:`set_contract_validation`); the static
checker (:mod:`repro.devtools.contracts`) verifies the same declarations
without running anything.  The hypothesis properties at the bottom pin
the two halves together: for call sites the static analysis can see
through completely (literal constructors), its verdict and the runtime
validator's verdict must be identical — on a toy kernel and on the real
public kernels of :mod:`repro.sim.fast`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools import ProjectGraph, lint_source, run_contract_rules
from repro.sim import fast
from repro.sim.contract import (
    ContractViolation,
    KernelContract,
    contract_of,
    contract_validation,
    kernel_contract,
    validation_enabled,
)
from repro.sim.fast import estimated_lwl_waits, fcfs_waits, sita_scan


@pytest.fixture(autouse=True)
def _validate():
    with contract_validation(True):
        yield


def t_s(n=4):
    return np.arange(float(n)), np.ones(n)


# ---------------------------------------------------------------------------
# the validator, violation by violation
# ---------------------------------------------------------------------------


def test_contract_violation_is_a_value_error():
    assert issubclass(ContractViolation, ValueError)


def test_clean_call_passes_and_returns():
    t, s = t_s()
    waits = fcfs_waits(t, s)
    assert waits.dtype == np.float64 and waits.shape == t.shape


def test_dtype_drift_rejected():
    t, s = t_s()
    with pytest.raises(ContractViolation, match="dtype"):
        fcfs_waits(t.astype(np.int64), s)


def test_shape_symbol_unification_rejected():
    t, _ = t_s(4)
    with pytest.raises(ContractViolation, match="dimension"):
        fcfs_waits(t, np.ones(3))


def test_rank_break_rejected():
    t, s = t_s(4)
    with pytest.raises(ContractViolation, match="-D"):
        fcfs_waits(t.reshape(2, 2), s)


def test_non_contiguous_input_rejected():
    t, s = t_s(8)
    with pytest.raises(ContractViolation, match="contiguous"):
        fcfs_waits(t[::2], s[:4])


def test_written_buffer_aliasing_rejected():
    t, s = t_s(4)
    out = np.empty(4)
    work1 = np.empty(3)
    with pytest.raises(ContractViolation, match="share memory"):
        fast._fcfs_waits_into(t, s, out, work1, out)


def test_read_only_inputs_may_alias():
    t, s = t_s(4)
    waits, hosts = estimated_lwl_waits(t, s, s, 3)
    assert waits.shape == t.shape and hosts.shape == t.shape


def test_undeclared_write_raises_inside_the_kernel():
    @kernel_contract(dtypes={"xs": "float64"})
    def bad(xs):
        xs[0] = -1.0
        return xs

    xs = np.zeros(3)
    with pytest.raises(ValueError, match="read-only"):
        bad(xs)
    # the freeze is undone even though the kernel raised
    assert xs.flags.writeable
    assert xs[0] == 0.0


def test_declared_write_is_allowed_and_lands():
    @kernel_contract(writes=("out",))
    def fill(out):
        out[:] = 7.0
        return out

    out = np.zeros(3)
    fill(out)
    assert out.tolist() == [7.0, 7.0, 7.0]
    assert out.flags.writeable


def test_return_contract_checked():
    @kernel_contract(shapes={"xs": ("n",), "return": ("n",)})
    def truncating(xs):
        return xs[:-1].copy()

    with pytest.raises(ContractViolation, match="dimension"):
        truncating(np.zeros(4))


def test_validation_off_skips_all_checks():
    with contract_validation(False):
        assert not validation_enabled()
        # int inputs sail through: the NumPy body converts them itself
        waits = fcfs_waits(np.arange(4), np.ones(4, dtype=np.int64))  # repro: noqa: SIM201
    assert waits.dtype == np.float64


def test_validation_scopes_nest_and_restore():
    with contract_validation(False):
        with contract_validation(True):
            assert validation_enabled()
        assert not validation_enabled()


def test_contract_of_exposes_the_declaration():
    contract = contract_of(fcfs_waits)
    assert isinstance(contract, KernelContract)
    assert contract.shapes["arrival_times"] == ("n",)
    assert contract_of(len) is None


def test_scan_kernel_passes_under_validation():
    from repro.workloads.traces import Trace

    t = np.arange(16.0)
    s = np.ones(16) + (np.arange(16) % 3)
    result = sita_scan(Trace(t, s), np.array([1.5, 2.5]))
    assert result.values.shape == (2,)


# ---------------------------------------------------------------------------
# static/runtime agreement (hypothesis)
# ---------------------------------------------------------------------------

DTYPES = ("float64", "float32", "int64")

_TOY_TEMPLATE = """\
from repro.sim.contract import kernel_contract
import numpy as np

@kernel_contract(
    shapes={{"xs": ("n",), "ys": ("n",)}},
    dtypes={{"xs": "float64", "ys": "float64"}},
    writes=("ys",),
)
def kern(xs, ys):
    ys[:] = xs
    return ys

def caller():
{body}
"""


@st.composite
def toy_calls(draw):
    alias = draw(st.booleans())
    dt_a = draw(st.sampled_from(DTYPES))
    len_a = draw(st.integers(min_value=0, max_value=5))
    if alias:
        return alias, dt_a, len_a, dt_a, len_a
    dt_b = draw(st.sampled_from(DTYPES))
    len_b = draw(st.integers(min_value=0, max_value=5))
    return alias, dt_a, len_a, dt_b, len_b


@settings(max_examples=40, deadline=None)
@given(toy_calls())
def test_static_and_runtime_agree_on_toy_kernel(case):
    alias, dt_a, len_a, dt_b, len_b = case
    if alias:
        body = (
            f"    buf = np.zeros({len_a}, dtype=np.{dt_a})\n"
            "    return kern(buf, buf)"
        )
    else:
        body = (
            f"    return kern(np.zeros({len_a}, dtype=np.{dt_a}), "
            f"np.zeros({len_b}, dtype=np.{dt_b}))"
        )
    findings = lint_source(
        _TOY_TEMPLATE.format(body=body),
        path="src/repro/sim/prop_fixture.py",
        select=["SIM201", "SIM203", "SIM204"],
    )

    @kernel_contract(
        shapes={"xs": ("n",), "ys": ("n",)},
        dtypes={"xs": "float64", "ys": "float64"},
        writes=("ys",),
    )
    def kern(xs, ys):
        ys[:] = xs
        return ys

    if alias:
        buf = np.zeros(len_a, dtype=dt_a)
        args = (buf, buf)
    else:
        args = (np.zeros(len_a, dtype=dt_a), np.zeros(len_b, dtype=dt_b))
    try:
        kern(*args)
        raised = False
    except ContractViolation:
        raised = True
    assert bool(findings) == raised, (case, findings)


_FAST_PATH = Path(fast.__file__)
_FAST_TREE = ast.parse(_FAST_PATH.read_text(encoding="utf-8"))


@settings(max_examples=25, deadline=None)
@given(
    dt_a=st.sampled_from(DTYPES),
    len_a=st.integers(min_value=0, max_value=5),
    dt_b=st.sampled_from(DTYPES),
    len_b=st.integers(min_value=0, max_value=5),
)
def test_static_and_runtime_agree_on_public_fcfs_waits(dt_a, len_a, dt_b, len_b):
    """The real kernel, checked through the real cross-module graph."""
    driver = (
        "import numpy as np\n"
        "from repro.sim.fast import fcfs_waits\n"
        "def go():\n"
        f"    return fcfs_waits(np.zeros({len_a}, dtype=np.{dt_a}), "
        f"np.zeros({len_b}, dtype=np.{dt_b}))\n"
    )
    graph = ProjectGraph.build(
        [
            ("src/repro/sim/fast.py", _FAST_TREE),
            ("src/repro/sim/prop_driver.py", ast.parse(driver)),
        ]
    )
    findings = [
        f
        for f in run_contract_rules(graph, select={"SIM201", "SIM204"})
        if f.path.endswith("prop_driver.py")
    ]
    try:
        fcfs_waits(np.zeros(len_a, dtype=dt_a), np.zeros(len_b, dtype=dt_b))
        raised = False
    except ContractViolation:
        raised = True
    assert bool(findings) == raised, (dt_a, len_a, dt_b, len_b, findings)
