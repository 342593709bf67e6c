"""Figure 4 — SITA-E vs SITA-U-opt vs SITA-U-fair (simulation, 2 hosts).

The paper's headline comparison: the two load-*unbalancing* policies
against the best load-balancing one.  Cutoffs are fitted on the first
half of the trace (analytic Theorem-1 search on the empirical size
distribution, §4.1) and evaluated on the second half.

Expected shape (§4.2): SITA-U-fair is only slightly worse than
SITA-U-opt; both improve on SITA-E by 4–10× in mean slowdown and
10–100× in variance of slowdown over loads 0.5–0.8.
"""

from __future__ import annotations

from functools import partial

from ..workloads.catalog import get_workload
from .base import ExperimentConfig, ExperimentResult, experiment, map_cells
from .common import (
    aggregate_cells,
    evaluate_policy,
    fit_sita_cutoffs,
    make_split_trace,
    point_seed,
    sita_family,
)

__all__ = ["run_fig4", "sita_sweep"]

_COLUMNS = [
    "policy",
    "load",
    "n_hosts",
    "cutoff",
    "mean_slowdown",
    "var_slowdown",
    "mean_response",
    "mean_wait",
    "load_frac_host0",
]


def _sita_cell(
    config: ExperimentConfig, workload, load: float, n_jobs: int, seed: int
) -> list[dict]:
    """One (load, replication) cell: fit the cutoffs, run each SITA."""
    train, test = make_split_trace(workload, load, 2, n_jobs, seed)
    cutoffs = fit_sita_cutoffs(train, load)
    rows = []
    for policy in sita_family(cutoffs):
        row = evaluate_policy(test, policy, load, 2, config, seed).as_row()
        row["cutoff"] = float(policy.cutoffs[0])
        rows.append(row)
    return rows


def sita_sweep(
    config: ExperimentConfig, workload_name: str, experiment_id: str
) -> list[dict]:
    """Sweep the SITA family (E / U-opt / U-fair) over system loads, h=2."""
    workload = get_workload(workload_name)
    base_jobs = config.jobs(max(workload.n_jobs, 30_000))
    reps = range(config.replications)
    cells = [
        partial(
            _sita_cell,
            config,
            workload,
            load,
            base_jobs,
            point_seed(config, experiment_id, workload_name, load, rep),
        )
        for load in config.sweep_loads()
        for rep in reps
    ]
    return aggregate_cells(map_cells(cells), len(reps))


@experiment("fig4", "SITA-E vs SITA-U-opt vs SITA-U-fair, 2 hosts, C90 (simulation)")
def run_fig4(config: ExperimentConfig) -> ExperimentResult:
    rows = sita_sweep(config, "c90", "fig4")
    return ExperimentResult(
        experiment_id="fig4",
        title="Load unbalancing: SITA-E vs SITA-U-opt vs SITA-U-fair, C90",
        columns=_COLUMNS,
        rows=rows,
        notes="cutoffs fitted on the first half of each trace, evaluated on the second",
    )
