"""Smoke + structural tests: every experiment driver runs and produces
well-formed rows at a tiny scale.  Qualitative (paper-shape) assertions
live in test_paper_claims.py and in the benchmark harness.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, list_experiments, run_experiment

TINY = ExperimentConfig(scale=0.04, loads=(0.5, 0.7), replications=1)

ALL_IDS = [eid for eid, _ in list_experiments()]


@pytest.fixture(scope="module")
def results():
    """Run every registered experiment once at tiny scale (cached)."""
    return {eid: run_experiment(eid, TINY) for eid in ALL_IDS}


# The drivers whose analytic columns once came back as NumPy scalars
# from scipy.special's ufuncs.
ANALYTIC_IDS = (
    "fig5",
    "fig8",
    "fig9",
    "fig11",
    "fig13",
    "table1",
    "ablate_calibration",
    "ablate_hetero",
)


@pytest.mark.parametrize("eid", ANALYTIC_IDS)
def test_declared_columns_hold_no_numpy_scalars(eid):
    res = run_experiment(eid, ExperimentConfig(scale=0.05))
    leaks = {
        col
        for row in res.rows
        for col in res.columns
        if isinstance(row.get(col), np.generic)
    }
    assert not leaks, f"{eid}: NumPy scalars in {sorted(leaks)}"


def test_every_driver_produces_rows(results):
    for eid, res in results.items():
        assert res.rows, f"{eid} produced no rows"
        assert res.columns, f"{eid} has no columns"


def test_rows_have_all_columns(results):
    for eid, res in results.items():
        for row in res.rows:
            for col in res.columns:
                assert col in row or col in ("cutoff",), f"{eid}: missing {col}"


def test_metrics_are_sane(results):
    for eid, res in results.items():
        for row in res.rows:
            slow = row.get("mean_slowdown")
            if slow is not None:
                assert slow >= 1.0 or math.isnan(slow), f"{eid}: slowdown {slow} < 1"
            var = row.get("var_slowdown")
            if var is not None and not math.isnan(var):
                assert var >= 0.0, f"{eid}: negative variance"


def test_text_rendering(results):
    for eid, res in results.items():
        text = res.to_text()
        assert eid in text


def test_table1_structure(results):
    res = results["table1"]
    systems = {row["system"] for row in res.rows}
    assert systems == {"c90", "j90", "ctc"}
    kinds = {row["kind"] for row in res.rows}
    assert kinds == {"target", "sampled"}
    for row in res.rows:
        if row["kind"] == "target" and row["system"] == "c90":
            assert row["scv"] == pytest.approx(43.0, rel=1e-6)


def test_fig2_policies(results):
    policies = set(results["fig2"].column("policy"))
    assert policies == {"random", "least-work-left", "sita-e"}


def test_fig4_policies_and_cutoffs(results):
    res = results["fig4"]
    assert set(res.column("policy")) == {"sita-e", "sita-u-opt", "sita-u-fair"}
    for row in res.rows:
        assert row["cutoff"] > 0


def test_fig5_fraction_bounds(results):
    for row in results["fig5"].rows:
        assert 0.0 < row["load_frac_analytic"] < 1.0
        assert row["rule_of_thumb"] == pytest.approx(row["load"] / 2)


def test_fig6_host_counts(results):
    hosts = sorted(set(results["fig6"].column("n_hosts")))
    assert hosts[0] == 2 and hosts[-1] >= 64


def test_fig7_has_high_loads(results):
    loads = results["fig7"].column("load")
    assert max(loads) > 0.9


def test_fig8_fig9_are_deterministic(results):
    # Analytic drivers must give identical output when re-run.
    again = run_experiment("fig8", TINY)
    assert again.rows == results["fig8"].rows


def test_appendix_workload_variants(results):
    for eid in ("fig10", "fig12"):
        policies = set(results[eid].column("policy"))
        assert "sita-u-fair" in policies
        assert "random" in policies


def test_ablate_tags_reports_waste(results):
    rows = results["ablate_tags"].rows
    tags_rows = [r for r in rows if r["policy"].startswith("tags")]
    assert tags_rows
    for r in tags_rows:
        assert 0.0 <= r["wasted_work_frac"] < 1.0
    sita_rows = [r for r in rows if r["policy"] == "sita-u-opt"]
    for r in sita_rows:
        assert r["wasted_work_frac"] == 0.0


def test_ablate_fast_vs_event_agreement(results):
    for row in results["ablate_fast_vs_event"].rows:
        assert row["max_wait_gap"] < 1e-6
        assert row["speedup"] > 1.0


def test_reproducibility_same_config(results):
    again = run_experiment("fig4", TINY)
    assert again.rows == results["fig4"].rows
