"""Ablations and extensions beyond the paper's figures.

* ``ablate_rr_sq`` — Round-Robin and Shortest-Queue, which the paper
  evaluated but cut from the plots ("their performance is not notable");
* ``ablate_tags`` — TAGS (unknown sizes, kill-and-restart) against
  SITA-U-opt (known sizes): how much of the unbalancing win needs size
  knowledge?
* ``ablate_estimates`` — section-7 robustness: SITA-U-fair under
  increasing user misclassification probability, and under lognormal
  multiplicative estimate noise;
* ``ablate_variability`` — the "workload characterisation matters"
  conclusion: sweep the service-time SCV (hyperexponential family) and
  watch the LWL-vs-SITA-E winner flip;
* ``ablate_fast_vs_event`` — the two simulator backends must agree
  exactly; reports their per-job waits agreement and runtimes.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from ..core.cutoffs import equal_load_cutoffs
from ..core.estimation import misclassify, multiplicative_noise
from ..core.policies import (
    EstimatedLWLPolicy,
    LeastWorkLeftPolicy,
    SITAPolicy,
    TAGSPolicy,
)
from ..sim.runner import simulate
from ..workloads.catalog import get_workload
from ..workloads.distributions import Empirical, Hyperexponential
from ..workloads.synthetic import SyntheticWorkload
from .base import ExperimentConfig, ExperimentResult, experiment, map_cells
from .common import (
    balanced_policies,
    evaluate_policy,
    fit_sita_cutoffs,
    make_split_trace,
    point_seed,
)

__all__ = [
    "run_ablate_rr_sq",
    "run_ablate_tags",
    "run_ablate_estimates",
    "run_ablate_variability",
    "run_ablate_fast_vs_event",
]


def _rr_sq_cell(
    config: ExperimentConfig, workload, load: float, n_jobs: int, seed: int
) -> list[dict]:
    _, test = make_split_trace(workload, load, 2, n_jobs, seed)
    return [
        evaluate_policy(test, policy, load, 2, config, seed).as_row()
        for policy in balanced_policies(include_secondary=True)
    ]


@experiment("ablate_rr_sq", "Round-Robin and Shortest-Queue (cut from figure 2)")
def run_ablate_rr_sq(config: ExperimentConfig) -> ExperimentResult:
    workload = get_workload("c90")
    base_jobs = config.jobs(workload.n_jobs // 2)
    cells = [
        partial(
            _rr_sq_cell,
            config,
            workload,
            load,
            base_jobs,
            point_seed(config, "ablate_rr_sq", load),
        )
        for load in config.sweep_loads()
    ]
    rows = [row for cell in map_cells(cells) for row in cell]
    return ExperimentResult(
        experiment_id="ablate_rr_sq",
        title="Round-Robin and Shortest-Queue vs Random and LWL, 2 hosts, C90",
        columns=["policy", "load", "mean_slowdown", "var_slowdown", "mean_response"],
        rows=rows,
        notes="paper: RR ≈ Random (still sees full size variability), SQ ≈ LWL",
    )


@experiment("ablate_tags", "TAGS (unknown sizes) vs SITA-U-opt (known sizes)")
def run_ablate_tags(config: ExperimentConfig) -> ExperimentResult:
    workload = get_workload("c90")
    base_jobs = config.jobs(workload.n_jobs // 2)
    rows = []
    for load in (0.3, 0.5, 0.7):
        if load > config.max_load:
            continue
        seed = point_seed(config, "ablate_tags", load)
        train, test = make_split_trace(workload, load, 2, base_jobs, seed)
        cutoffs = fit_sita_cutoffs(train, load, variants=("opt",))
        policies = [
            SITAPolicy([cutoffs["opt"]], name="sita-u-opt"),
            TAGSPolicy([cutoffs["opt"]], name="tags@opt-cutoff"),
            LeastWorkLeftPolicy(),
        ]
        for policy in policies:
            result = simulate(test, policy, 2, rng=seed)
            summary = result.summary(warmup_fraction=config.warmup_fraction)
            wasted = (
                float(np.sum(result.wasted_work)) / float(np.sum(result.sizes))
                if result.wasted_work is not None
                else 0.0
            )
            rows.append(
                {
                    "policy": policy.name,
                    "load": load,
                    "mean_slowdown": summary.mean_slowdown,
                    "var_slowdown": summary.var_slowdown,
                    "mean_response": summary.mean_response,
                    "wasted_work_frac": wasted,
                }
            )
    return ExperimentResult(
        experiment_id="ablate_tags",
        title="TAGS vs SITA-U-opt vs LWL, 2 hosts, C90",
        columns=[
            "policy",
            "load",
            "mean_slowdown",
            "var_slowdown",
            "mean_response",
            "wasted_work_frac",
        ],
        rows=rows,
        notes="TAGS pays wasted (restarted) work to avoid needing size estimates",
    )


@experiment("ablate_estimates", "SITA-U-fair under size-estimate errors (section 7)")
def run_ablate_estimates(config: ExperimentConfig) -> ExperimentResult:
    workload = get_workload("c90")
    base_jobs = config.jobs(workload.n_jobs // 2)
    load = 0.7
    seed = point_seed(config, "ablate_estimates")
    train, test = make_split_trace(workload, load, 2, base_jobs, seed)
    cutoff = fit_sita_cutoffs(train, load, variants=("fair",))["fair"]
    policy = SITAPolicy([cutoff], name="sita-u-fair")
    rows = []
    # The two error directions behave very differently; decompose the harm
    # into the misclassified jobs themselves vs innocent bystanders.  The
    # paper's §7 claims errors "hurt only ... these small jobs"; the
    # decomposition shows where that holds and where it breaks.
    truly_short = test.service_times <= cutoff
    n_warm = int(test.n_jobs * config.warmup_fraction)
    for direction in ("short-to-long", "long-to-short", "both"):
        for flip_p in (0.0, 0.05, 0.1, 0.2):
            est = misclassify(
                test.service_times, cutoff, flip_p, rng=seed + 1,
                direction=direction,
            )
            flipped = (est <= cutoff) != truly_short
            result = simulate(test, policy, 2, rng=seed, size_estimates=est)
            s = result.summary(warmup_fraction=config.warmup_fraction)
            slow = result.slowdowns[n_warm:]
            fl = flipped[n_warm:]
            bystander_short = ~fl & truly_short[n_warm:]
            row = {
                "error_model": f"misclassify/{direction}",
                "error_level": flip_p,
                "mean_slowdown": s.mean_slowdown,
                "var_slowdown": s.var_slowdown,
                "mean_response": s.mean_response,
                "mean_slowdown_flipped": float(np.mean(slow[fl]))
                if fl.any()
                else math.nan,
                "mean_slowdown_bystander_short": float(
                    np.mean(slow[bystander_short])
                ),
            }
            rows.append(row)
    for factor in (1.0, 2.0, 4.0, 16.0):
        est = multiplicative_noise(test.service_times, factor, rng=seed + 2)
        result = simulate(test, policy, 2, rng=seed, size_estimates=est)
        s = result.summary(warmup_fraction=config.warmup_fraction)
        rows.append(
            {
                "error_model": "lognormal-noise",
                "error_level": factor,
                "mean_slowdown": s.mean_slowdown,
                "var_slowdown": s.var_slowdown,
                "mean_response": s.mean_response,
                "mean_slowdown_flipped": math.nan,
                "mean_slowdown_bystander_short": math.nan,
            }
        )
    # The practitioners' LWL (paper §1.2: summed user estimates) under the
    # same noise — it needs accurate magnitudes, not just one bit.
    for factor in (1.0, 2.0, 4.0, 16.0):
        est = multiplicative_noise(test.service_times, factor, rng=seed + 2)
        result = simulate(
            test, EstimatedLWLPolicy(), 2, rng=seed, size_estimates=est
        )
        s = result.summary(warmup_fraction=config.warmup_fraction)
        rows.append(
            {
                "error_model": "estimated-lwl-noise",
                "error_level": factor,
                "mean_slowdown": s.mean_slowdown,
                "var_slowdown": s.var_slowdown,
                "mean_response": s.mean_response,
                "mean_slowdown_flipped": math.nan,
                "mean_slowdown_bystander_short": math.nan,
            }
        )
    lwl = evaluate_policy(test, LeastWorkLeftPolicy(), load, 2, config, seed)
    rows.append(
        {
            "error_model": "lwl-reference",
            "error_level": math.nan,
            "mean_slowdown": lwl.summary.mean_slowdown,
            "var_slowdown": lwl.summary.var_slowdown,
            "mean_response": lwl.summary.mean_response,
            "mean_slowdown_flipped": math.nan,
            "mean_slowdown_bystander_short": math.nan,
        }
    )
    return ExperimentResult(
        experiment_id="ablate_estimates",
        title="SITA-U-fair robustness to size-estimate errors (load 0.7, C90)",
        columns=[
            "error_model",
            "error_level",
            "mean_slowdown",
            "var_slowdown",
            "mean_response",
            "mean_slowdown_flipped",
            "mean_slowdown_bystander_short",
        ],
        rows=rows,
        notes=(
            "short-to-long errors hurt (only) the flipped jobs themselves "
            "(the paper's claim); long-to-short errors *benefit* the "
            "flipped elephants while harming bystander shorts — an "
            "incentive to game the declared size the paper overlooks"
        ),
    )


def _variability_cell(config: ExperimentConfig, scv: float, seed: int) -> list[dict]:
    load = 0.7
    dist = Hyperexponential.fit_balanced(mean=1000.0, scv=scv)
    workload = SyntheticWorkload(
        name=f"h2-scv{scv:g}", service_dist=dist, n_jobs=config.jobs(40_000)
    )
    train, test = make_split_trace(workload, load, 2, workload.n_jobs, seed)
    cutoff = equal_load_cutoffs(Empirical(train.service_times), 2)
    policies = [LeastWorkLeftPolicy(), SITAPolicy(cutoff, name="sita-e")]
    return [
        {"scv": scv, **evaluate_policy(test, policy, load, 2, config, seed).as_row()}
        for policy in policies
    ]


@experiment("ablate_variability", "Best policy vs service-time variability")
def run_ablate_variability(config: ExperimentConfig) -> ExperimentResult:
    cells = [
        partial(_variability_cell, config, scv, point_seed(config, "ablate_variability", scv))
        for scv in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    ]
    rows = [row for cell in map_cells(cells) for row in cell]
    return ExperimentResult(
        experiment_id="ablate_variability",
        title="LWL vs SITA-E as service variability grows (H2 workloads, load 0.7)",
        columns=["scv", "policy", "mean_slowdown", "var_slowdown", "mean_response"],
        rows=rows,
        notes="paper conclusion: the best policy depends on the size distribution",
    )


@experiment("ablate_fast_vs_event", "Vectorised kernels vs event engine")
def run_ablate_fast_vs_event(config: ExperimentConfig) -> ExperimentResult:
    workload = get_workload("c90")
    n_jobs = min(config.jobs(20_000), 20_000)
    trace = workload.make_trace(
        load=0.7, n_hosts=2, n_jobs=n_jobs, rng=point_seed(config, "fastvsevent")
    )
    cutoff = equal_load_cutoffs(Empirical(trace.service_times), 2)
    rows = []
    for policy_factory in (
        lambda: LeastWorkLeftPolicy(),
        lambda: SITAPolicy(cutoff, name="sita-e"),
    ):
        timings = {}
        results = {}
        for backend in ("fast", "event"):
            policy = policy_factory()
            t0 = time.perf_counter()
            results[backend] = simulate(trace, policy, 2, rng=1, backend=backend)
            timings[backend] = time.perf_counter() - t0
        max_gap = float(
            np.max(np.abs(results["fast"].wait_times - results["event"].wait_times))
        )
        rows.append(
            {
                "policy": results["fast"].policy_name,
                "n_jobs": n_jobs,
                "fast_seconds": timings["fast"],
                "event_seconds": timings["event"],
                "speedup": timings["event"] / max(timings["fast"], 1e-12),
                "max_wait_gap": max_gap,
            }
        )
    return ExperimentResult(
        experiment_id="ablate_fast_vs_event",
        title="Backend agreement and speedup (2 hosts, load 0.7, C90)",
        columns=[
            "policy",
            "n_jobs",
            "fast_seconds",
            "event_seconds",
            "speedup",
            "max_wait_gap",
        ],
        rows=rows,
        notes="max_wait_gap must be ~0: the backends implement the same model",
    )
