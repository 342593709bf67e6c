"""Figures 2 and 3 — load-balancing policies, 2 and 4 hosts (simulation).

Figure 2: mean slowdown (top) and variance of slowdown (bottom) of
Random, Least-Work-Left and SITA-E on the C90 workload with 2 hosts, as
a function of system load.  Figure 3: the same with 4 hosts (Random was
"by far the worst" and is kept here for completeness).

Expected shape (paper §3.2): Random ≫ LWL ≳ SITA-E at low load; SITA-E
beats LWL by 3–4× at medium/high load; the variance gaps are each about
an order of magnitude.  With 4 hosts both LWL and SITA-E improve while
Random is unchanged, and LWL wins at low loads.
"""

from __future__ import annotations

from functools import partial

from ..core.policies import SITAPolicy
from ..core.cutoffs import equal_load_cutoffs
from ..workloads.catalog import get_workload
from ..workloads.distributions import Empirical
from .base import ExperimentConfig, ExperimentResult, experiment, map_cells
from .common import (
    aggregate_cells,
    balanced_policies,
    evaluate_policy,
    make_split_trace,
    point_seed,
)

__all__ = ["run_fig2", "run_fig3", "balanced_policy_sweep"]

_COLUMNS = [
    "policy",
    "load",
    "n_hosts",
    "mean_slowdown",
    "var_slowdown",
    "mean_response",
    "var_response",
    "mean_wait",
]


def _balanced_cell(
    config: ExperimentConfig,
    workload,
    load: float,
    n_hosts: int,
    n_jobs: int,
    seed: int,
    include_secondary: bool,
) -> list[dict]:
    """One (load, replication) cell: every policy's row on one trace."""
    train, test = make_split_trace(workload, load, n_hosts, n_jobs, seed)
    cutoffs = equal_load_cutoffs(Empirical(train.service_times), n_hosts)
    policies = balanced_policies(include_secondary) + [
        SITAPolicy(cutoffs, name="sita-e")
    ]
    return [
        evaluate_policy(test, policy, load, n_hosts, config, seed).as_row()
        for policy in policies
    ]


def balanced_policy_sweep(
    config: ExperimentConfig,
    workload_name: str,
    n_hosts: int,
    experiment_id: str,
    include_secondary: bool = False,
) -> list[dict]:
    """Sweep the load-balancing policies + SITA-E over system loads."""
    workload = get_workload(workload_name)
    # Small logs (J90/CTC) get a floor so steady-state estimates converge.
    base_jobs = config.jobs(max(workload.n_jobs, 30_000))
    loads = config.sweep_loads()
    reps = range(config.replications)
    cells = [
        partial(
            _balanced_cell,
            config,
            workload,
            load,
            n_hosts,
            base_jobs,
            point_seed(config, experiment_id, workload_name, n_hosts, load, rep),
            include_secondary,
        )
        for load in loads
        for rep in reps
    ]
    return aggregate_cells(map_cells(cells), len(reps))


@experiment("fig2", "Balanced policies, 2 hosts, C90 (simulation)")
def run_fig2(config: ExperimentConfig) -> ExperimentResult:
    rows = balanced_policy_sweep(config, "c90", 2, "fig2")
    return ExperimentResult(
        experiment_id="fig2",
        title="Random vs Least-Work-Left vs SITA-E, 2 hosts, C90",
        columns=_COLUMNS,
        rows=rows,
    )


@experiment("fig3", "Balanced policies, 4 hosts, C90 (simulation)")
def run_fig3(config: ExperimentConfig) -> ExperimentResult:
    rows = balanced_policy_sweep(config, "c90", 4, "fig3")
    return ExperimentResult(
        experiment_id="fig3",
        title="Random vs Least-Work-Left vs SITA-E, 4 hosts, C90",
        columns=_COLUMNS,
        rows=rows,
    )
