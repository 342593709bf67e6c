"""Figures 8 and 9 (appendix A) — the analytic counterparts.

Figure 8: analytic mean slowdown of the load-balancing policies
(Random, Least-Work-Left ≈ M/G/h, SITA-E) versus system load on the C90
size distribution.  Figure 9: the same for SITA-E vs SITA-U-opt vs
SITA-U-fair.  The paper reports both "in very close agreement with the
simulation results" — our integration tests compare these numbers against
the fig2/fig4 simulations directly.
"""

from __future__ import annotations

from ..core.cutoffs import equal_load_cutoffs
from ..core.search import analytic_cutoff_pair
from ..analysis.policies import (
    predict_lwl,
    predict_random,
    predict_round_robin,
    predict_sita,
)
from ..workloads.catalog import get_workload
from .base import ExperimentConfig, ExperimentResult, experiment

__all__ = ["run_fig8", "run_fig9"]

_COLUMNS = [
    "policy",
    "load",
    "mean_slowdown",
    "mean_waiting_slowdown",
    "var_slowdown",
    "mean_response",
]


def _prediction_row(pred) -> dict:
    return {
        "policy": pred.policy,
        "load": pred.load,
        "mean_slowdown": pred.mean_slowdown,
        "mean_waiting_slowdown": pred.mean_waiting_slowdown,
        "var_slowdown": pred.var_slowdown,
        "mean_response": pred.mean_response,
    }


@experiment("fig8", "Analytic mean slowdown of balanced policies, 2 hosts (C90)")
def run_fig8(config: ExperimentConfig) -> ExperimentResult:
    dist = get_workload("c90").service_dist
    sita_e = equal_load_cutoffs(dist, 2)
    rows = []
    for load in config.sweep_loads():
        rows.append(_prediction_row(predict_random(load, dist, 2)))
        rows.append(_prediction_row(predict_round_robin(load, dist, 2)))
        rows.append(_prediction_row(predict_lwl(load, dist, 2)))
        rows.append(
            _prediction_row(predict_sita(load, dist, 2, sita_e, "sita-e"))
        )
    return ExperimentResult(
        experiment_id="fig8",
        title="Analysis: Random vs Round-Robin vs LWL vs SITA-E, 2 hosts, C90",
        columns=_COLUMNS,
        rows=rows,
        notes="LWL uses the M/G/h approximation; Round-Robin the E_h/G/1 one",
    )


@experiment("fig9", "Analytic mean slowdown of the SITA family, 2 hosts (C90)")
def run_fig9(config: ExperimentConfig) -> ExperimentResult:
    dist = get_workload("c90").service_dist
    sita_e = equal_load_cutoffs(dist, 2)
    rows = []
    for load in config.sweep_loads():
        # One engine call per load derives both cutoffs off one axis.
        pair = analytic_cutoff_pair(load, dist)
        variants = {
            "sita-e": sita_e,
            "sita-u-opt": [pair["opt"]],
            "sita-u-fair": [pair["fair"]],
        }
        for name, cutoffs in variants.items():
            pred = predict_sita(load, dist, 2, cutoffs, name)
            row = _prediction_row(pred)
            row["cutoff"] = float(cutoffs[0])
            rows.append(row)
    return ExperimentResult(
        experiment_id="fig9",
        title="Analysis: SITA-E vs SITA-U-opt vs SITA-U-fair, 2 hosts, C90",
        columns=_COLUMNS + ["cutoff"],
        rows=rows,
    )
