"""Figure 6 — systems with more than 4 machines (system load 0.7).

SITA with ``h − 1`` cutoffs needs ever finer runtime estimates and an
expensive search, so the paper's section 5 modifies the policies for
large ``h``: keep the single 2-host cutoff, split the hosts into a short
group and a long group, and run Least-Work-Left *within* each group.
This driver sweeps the number of hosts at fixed system load 0.7 and
compares plain LWL against grouped SITA-E / SITA-U-opt / SITA-U-fair.

Expected shape: grouped SITA-E beats LWL for small ``h`` but loses for
large ``h`` (some host is almost always idle and LWL exploits that);
the SITA-U variants dominate until ``h`` is large (paper: ≈ 70), where
all policies converge.
"""

from __future__ import annotations

from functools import partial

from ..core.policies import LeastWorkLeftPolicy
from ..workloads.catalog import get_workload
from ..workloads.distributions import Empirical
from .base import ExperimentConfig, ExperimentResult, experiment, map_cells
from .common import (
    evaluate_policy,
    fit_sita_cutoffs,
    grouped_sita,
    make_split_trace,
    point_seed,
)

__all__ = ["run_fig6"]

_HOST_COUNTS = (2, 4, 8, 16, 32, 48, 64, 80)
_LOAD = 0.7

_COLUMNS = [
    "policy",
    "n_hosts",
    "load",
    "mean_slowdown",
    "var_slowdown",
    "mean_response",
]


def _hosts_cell(
    config: ExperimentConfig, workload, n_hosts: int, n_jobs: int, seed: int
) -> list[dict]:
    """One host count: plain LWL and the three grouped SITAs."""
    train, test = make_split_trace(workload, _LOAD, n_hosts, n_jobs, seed)
    cutoffs = fit_sita_cutoffs(train, _LOAD)
    train_dist = Empirical(train.service_times)
    policies = [LeastWorkLeftPolicy()]
    names = {"e": "sita-e+lwl", "opt": "sita-u-opt+lwl", "fair": "sita-u-fair+lwl"}
    for variant, cutoff in cutoffs.items():
        policies.append(
            grouped_sita(cutoff, n_hosts, train_dist, names[variant], load=_LOAD)
        )
    return [
        evaluate_policy(test, policy, _LOAD, n_hosts, config, seed).as_row()
        for policy in policies
    ]


@experiment("fig6", "Slowdown vs number of hosts at load 0.7 (C90)")
def run_fig6(config: ExperimentConfig) -> ExperimentResult:
    workload = get_workload("c90")
    cells = [
        partial(
            _hosts_cell,
            config,
            workload,
            n_hosts,
            # Keep per-host statistical effort roughly constant: more
            # hosts need more jobs for the same steady-state quality.
            config.jobs(workload.n_jobs * max(1, n_hosts // 4)),
            point_seed(config, "fig6", n_hosts),
        )
        for n_hosts in _HOST_COUNTS
    ]
    rows = [row for cell in map_cells(cells) for row in cell]
    return ExperimentResult(
        experiment_id="fig6",
        title="Policies vs number of hosts, system load 0.7, C90",
        columns=_COLUMNS,
        rows=rows,
        notes=(
            "grouped SITA = 2-host cutoff splits hosts into short/long groups, "
            "LWL within each group (paper section 5)"
        ),
    )
