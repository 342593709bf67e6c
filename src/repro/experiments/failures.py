"""Fault injection — the Figure-4 policies under host failures.

The paper's recommendation is to deliberately *unbalance* load: SITA-U
keeps the short-job host lightly loaded so the many short jobs fly
through.  That design concentrates the fate of most jobs on one host —
the configuration most exposed to that host failing.  This experiment
reruns the Figure-4 comparison (SITA-E / SITA-U-opt / SITA-U-fair, plus
the best load-balancing policy, LWL) at a fixed load while sweeping host
availability downward, under each of the three failure semantics (see
:mod:`repro.sim.faults`).

Reported per point, besides the usual metrics:

``slowdown_penalty``
    Mean slowdown relative to the same policy's failure-free run —
    how much of the policy's advantage failures erase.
``fairness_gap``
    Ratio of long-job to short-job mean slowdown (split at the fitted
    SITA-E cutoff; 1.0 = perfectly fair).  SITA-U-fair's defining
    property is a gap of ~1 — does it survive failures?

Failure timescales are derived from the workload: the mean repair time
is ``_MTTR_SERVICE_MULTIPLE`` mean service times, and the MTBF follows
from the target availability, so the sweep is meaningful at any
``scale``.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..core.policies import LeastWorkLeftPolicy
from ..sim.faults import SEMANTICS, FaultModel
from ..workloads.catalog import get_workload
from .base import ExperimentConfig, ExperimentResult, experiment, map_cells
from .common import (
    aggregate_replications,
    evaluate_policy,
    fit_sita_cutoffs,
    make_split_trace,
    point_seed,
    sita_family,
)

__all__ = ["run_failures", "failure_sweep"]

_COLUMNS = [
    "policy",
    "semantics",
    "availability",
    "load",
    "n_hosts",
    "mean_slowdown",
    "slowdown_penalty",
    "short_slowdown",
    "long_slowdown",
    "fairness_gap",
    "var_slowdown",
    "mean_response",
    "n_lost",
    "n_failures",
    "host_downtime",
    "fallback",
]

#: host availabilities swept (1.0 = the failure-free Figure-4 baseline).
AVAILABILITIES = (1.0, 0.99, 0.95, 0.9)

#: mean repair time, in multiples of the workload's mean service time.
_MTTR_SERVICE_MULTIPLE = 10.0


def _fault_model(
    availability: float, semantics: str, mean_service: float, seed: int
) -> FaultModel | None:
    """Fault model hitting ``availability``, or None for the baseline."""
    if availability >= 1.0:
        return None
    mttr = _MTTR_SERVICE_MULTIPLE * mean_service
    mtbf = mttr * availability / (1.0 - availability)
    return FaultModel(mtbf=mtbf, mttr=mttr, semantics=semantics, seed=seed)


def failure_sweep(
    config: ExperimentConfig,
    workload_name: str,
    experiment_id: str,
    load: float = 0.7,
    n_hosts: int = 2,
) -> list[dict]:
    """Sweep availability × failure semantics over the Figure-4 policies."""
    workload = get_workload(workload_name)
    base_jobs = config.jobs(max(workload.n_jobs, 30_000))
    # One cell per point: the replication's trace and cutoffs are built
    # here once, and the pool's children inherit them.  Each replication
    # is mapped before the next is built, so memory does not grow with
    # the number of replications.
    per_policy: dict[tuple, list[dict]] = {}
    for rep in range(config.replications):
        seed = point_seed(config, experiment_id, workload_name, load, rep)
        train, test = make_split_trace(workload, load, n_hosts, base_jobs, seed)
        cutoffs = fit_sita_cutoffs(train, load)
        mean_service = float(np.mean(test.service_times))
        policies = sita_family(cutoffs) + [LeastWorkLeftPolicy()]
        # The short/long fairness split is the fitted SITA-E cutoff for
        # every policy, so the gap is comparable across policies.
        class_cutoff = cutoffs["e"]
        cells = []
        labels: list[tuple[str, float]] = []
        for semantics in SEMANTICS:
            for availability in AVAILABILITIES:
                if availability >= 1.0 and semantics != SEMANTICS[0]:
                    continue  # the failure-free baseline is semantics-free
                fault_seed = point_seed(
                    config, experiment_id, "faults", semantics, availability, rep
                )
                faults = _fault_model(
                    availability, semantics, mean_service, fault_seed
                )
                for policy in policies:
                    cells.append(
                        partial(
                            evaluate_policy, test, policy, load, n_hosts, config,
                            seed, faults=faults, class_cutoff=class_cutoff,
                        )
                    )
                    labels.append(
                        ("none" if faults is None else semantics, availability)
                    )
        for (semantics, availability), point in zip(labels, map_cells(cells)):
            row = point.as_row()
            row["semantics"] = semantics
            row["availability"] = availability
            key = (point.policy, semantics, availability)
            per_policy.setdefault(key, []).append(row)
    rows = [aggregate_replications(reps) for reps in per_policy.values()]
    # Post-process: slowdown penalty vs the policy's failure-free
    # baseline, and the long/short fairness gap.
    baseline = {
        r["policy"]: r["mean_slowdown"] for r in rows if r["semantics"] == "none"
    }
    for r in rows:
        base = baseline.get(r["policy"], math.nan)
        r["slowdown_penalty"] = r["mean_slowdown"] / base if base else math.nan
        short = r.get("short_slowdown", math.nan)
        r["fairness_gap"] = (
            r.get("long_slowdown", math.nan) / short if short else math.nan
        )
    return rows


@experiment(
    "failures",
    "SITA family + LWL under host failures (fault injection, 2 hosts, C90)",
)
def run_failures(config: ExperimentConfig) -> ExperimentResult:
    rows = failure_sweep(config, "c90", "failures")
    return ExperimentResult(
        experiment_id="failures",
        title="Load unbalancing under host failures: availability sweep, C90",
        columns=_COLUMNS,
        rows=rows,
        notes=(
            "availability 1.0 is the failure-free fig4 baseline; mttr = "
            f"{_MTTR_SERVICE_MULTIPLE:g} mean service times; fairness split "
            "at the fitted SITA-E cutoff"
        ),
    )
