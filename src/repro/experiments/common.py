"""Shared machinery for the experiment drivers.

The paper's protocol, encoded once:

1. generate a workload trace at the target load (§2.2: service times from
   the trace/distribution, Poisson arrivals unless the experiment says
   otherwise);
2. *fit* any SITA cutoffs on the first half of the trace — analytically,
   by applying Theorem 1 to the empirical size distribution of that half
   (§4.1: "Note that for a given cutoff we can compute the load and E{X²}
   at each host from the trace data.  Theorem 1 then allows us to
   determine the expected slowdown…");
3. *evaluate* every policy on the second half;
4. report mean slowdown, variance of slowdown and mean response time
   after warmup trimming.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.cutoffs import equal_load_cutoffs
from ..core.search import analytic_cutoff_pair
from ..core.policies import (
    GroupedSITAPolicy,
    LeastWorkLeftPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SITAPolicy,
    ShortestQueuePolicy,
)
from ..sim.metrics import Summary
from ..sim.runner import simulate
from ..workloads.arrivals import ArrivalProcess
from ..workloads.distributions import Empirical, ServiceDistribution
from ..workloads.synthetic import SyntheticWorkload
from ..workloads.traces import Trace
from .base import ExperimentConfig, checkpointed
from .base import run_point as base_run_point

if TYPE_CHECKING:
    from ..sim.faults import FaultModel

__all__ = [
    "SweepPoint",
    "make_split_trace",
    "fit_sita_cutoffs",
    "compute_point",
    "evaluate_policy",
    "point_key",
    "balanced_policies",
    "sita_family",
    "grouped_sita",
    "point_seed",
    "aggregate_replications",
    "aggregate_cells",
]


def point_seed(config: ExperimentConfig, *coords) -> int:
    """Derive a reproducible per-point seed from arbitrary coordinates."""
    h = int(config.seed)
    for c in coords:
        for b in str(c).encode():
            h = (h * 1000003 + b) & (2**63 - 1)
    return h


@dataclass(frozen=True)
class SweepPoint:
    """One (policy, load) measurement."""

    policy: str
    load: float
    n_hosts: int
    summary: Summary
    #: True when the fast kernel failed its output check and this point
    #: was gracefully re-run on the event engine (see docs/ROBUSTNESS.md).
    fallback: bool = False
    #: fault-injection statistics (all zero without a fault model).
    n_lost: int = 0
    n_failures: int = 0
    host_downtime: float = 0.0
    #: mean slowdown of jobs below/above ``class_cutoff`` (NaN when no
    #: cutoff was requested) — the paper's fairness conditioning.
    short_slowdown: float = math.nan
    long_slowdown: float = math.nan

    def as_row(self) -> dict:
        row = {
            "policy": self.policy,
            "load": self.load,
            "n_hosts": self.n_hosts,
            **self.summary.as_row(),
            "fallback": self.fallback,
            "n_lost": self.n_lost,
            "n_failures": self.n_failures,
            "host_downtime": self.host_downtime,
        }
        # The fairness split is only present when a cutoff was requested;
        # NaN placeholders would poison row equality (NaN != NaN).
        if not math.isnan(self.short_slowdown):
            row["short_slowdown"] = self.short_slowdown
            row["long_slowdown"] = self.long_slowdown
        return row

    def to_json(self) -> dict:
        """JSON-serialisable form (floats round-trip bit-exactly)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "SweepPoint":
        s = dict(d["summary"])
        s["host_load_fraction"] = tuple(s["host_load_fraction"])
        s["host_job_fraction"] = tuple(s["host_job_fraction"])
        return cls(**{**d, "summary": Summary(**s)})


def make_split_trace(
    workload: SyntheticWorkload,
    load: float,
    n_hosts: int,
    n_jobs: int,
    seed: int,
    arrivals: ArrivalProcess | None = None,
) -> tuple[Trace, Trace]:
    """Generate a trace and split it into (train, test) halves."""
    trace = workload.make_trace(
        load=load, n_hosts=n_hosts, n_jobs=n_jobs, rng=seed, arrivals=arrivals
    )
    return trace.split(0.5)


def fit_sita_cutoffs(
    train: Trace, load: float, variants: tuple[str, ...] = ("e", "opt", "fair")
) -> dict[str, float]:
    """Fit the 2-host SITA cutoffs on a training trace.

    ``"e"`` equalises load; ``"opt"`` minimises the analytic mean slowdown
    of the empirical (training) size distribution; ``"fair"`` equalises
    the analytic short/long slowdowns — the paper's §4.1 procedure.
    """
    unknown = [v for v in variants if v not in ("e", "opt", "fair")]
    if unknown:
        raise ValueError(f"unknown SITA variant {unknown[0]!r}")
    dist = Empirical(train.service_times)
    # One engine call derives opt and fair off a shared evaluation axis
    # (see repro.core.search).
    want = tuple(dict.fromkeys(v for v in variants if v != "e"))
    pair = analytic_cutoff_pair(load, dist, want=want) if want else {}
    out: dict[str, float] = {}
    for v in variants:
        if v == "e":
            out[v] = float(equal_load_cutoffs(dist, 2)[0])
        else:
            out[v] = pair[v]
    return out


def point_key(
    policy,
    load: float,
    n_hosts: int,
    seed: int,
    faults: FaultModel | None = None,
    class_cutoff: float | None = None,
) -> str:
    """Canonical checkpoint key for one simulated point."""
    return "|".join(
        [
            f"policy={policy.name}",
            f"h={n_hosts}",
            f"load={load!r}",
            f"seed={seed}",
            f"faults={faults.describe() if faults is not None else 'none'}",
            f"cutoff={class_cutoff!r}",
        ]
    )


def compute_point(
    test: Trace,
    policy,
    load: float,
    n_hosts: int,
    config: ExperimentConfig,
    seed: int,
    faults: FaultModel | None = None,
    class_cutoff: float | None = None,
) -> dict:
    """Simulate one point and return its JSON-serialisable SweepPoint.

    The config's per-point SIGALRM budget applies wherever this runs: in
    a pool worker (:func:`~repro.experiments.base.map_cells`) the worker
    process enforces it on its own main thread.
    """
    result = base_run_point(
        lambda: simulate(
            test, policy, n_hosts, rng=seed, faults=faults,
            on_kernel_failure="fallback",
        ),
        timeout=config.point_timeout,
        retries=config.point_retries,
        label=f"{policy.name} @ load {load:g}",
    )
    trimmed = result.trimmed(warmup_fraction=config.warmup_fraction)
    short = long = math.nan
    if class_cutoff is not None:
        short, long = trimmed.class_mean_slowdowns(class_cutoff)
    return SweepPoint(
        policy=policy.name,
        load=load,
        n_hosts=n_hosts,
        summary=trimmed.summary(),
        fallback=result.backend == "event-fallback",
        n_lost=result.n_lost,
        n_failures=result.n_failures,
        host_downtime=result.host_downtime,
        short_slowdown=short,
        long_slowdown=long,
    ).to_json()


def evaluate_policy(
    test: Trace,
    policy,
    load: float,
    n_hosts: int,
    config: ExperimentConfig,
    seed: int,
    faults: FaultModel | None = None,
    class_cutoff: float | None = None,
) -> SweepPoint:
    """Run one policy on the evaluation trace and summarise.

    This is the harness's one simulated-point entry: it consults the
    active checkpoint (so ``--resume`` skips completed points), enforces
    the config's per-point wall-clock budget, and degrades gracefully
    from the fast kernels to the event engine (``fallback`` records
    that).  With ``faults`` the point runs under fault injection; with
    ``class_cutoff`` the short/long mean slowdowns are recorded for
    fairness reporting.
    """
    key = point_key(policy, load, n_hosts, seed, faults, class_cutoff)
    return SweepPoint.from_json(
        checkpointed(
            key,
            lambda: compute_point(
                test, policy, load, n_hosts, config, seed, faults, class_cutoff
            ),
        )
    )


def aggregate_replications(rows: list[dict]) -> dict:
    """Average one (policy, load) point over independent replications.

    Numeric fields are averaged; a ``ci_mean_slowdown`` half-width
    (t-free, 1.96·σ/√R — fine for the R ≥ 3 regime it's used in) and
    ``n_reps`` are added.  Non-numeric fields must agree across rows.
    """
    if not rows:
        raise ValueError("no replications to aggregate")
    if len(rows) == 1:
        return {**rows[0], "n_reps": 1}
    out: dict = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        if isinstance(values[0], bool):
            # e.g. the fast-kernel ``fallback`` flag: the aggregate is
            # flagged if *any* replication had to fall back.
            out[key] = any(values)
        elif isinstance(values[0], (int, float)):
            # Keep shared coordinates (load, n_hosts) exact.
            if all(v == values[0] for v in values):
                out[key] = values[0]
            else:
                out[key] = float(np.mean(values))
        else:
            if any(v != values[0] for v in values):
                raise ValueError(f"replications disagree on field {key!r}")
            out[key] = values[0]
    slows = np.array([r["mean_slowdown"] for r in rows], dtype=float)
    out["n_reps"] = len(rows)
    out["ci_mean_slowdown"] = float(
        1.96 * np.std(slows, ddof=1) / math.sqrt(len(rows))
    )
    return out


def aggregate_cells(cells: list[list[dict]], replications: int) -> list[dict]:
    """One row per (coordinate, policy) from the rows of sweep cells.

    ``cells`` holds each cell's rows, with the ``replications`` cells of
    one coordinate next to each other.  Each policy's rows over those
    cells become one row (:func:`aggregate_replications`), in the order
    the policies first appear.
    """
    rows = []
    for start in range(0, len(cells), replications):
        per_policy: dict[str, list[dict]] = {}
        for cell in cells[start : start + replications]:
            for row in cell:
                per_policy.setdefault(row["policy"], []).append(row)
        rows.extend(aggregate_replications(reps) for reps in per_policy.values())
    return rows


def balanced_policies(include_secondary: bool = False) -> list:
    """The load-balancing policies of figure 2 (Random, LWL; optionally
    Round-Robin and Shortest-Queue, which the paper measured but omitted
    from the plots)."""
    policies = [RandomPolicy(), LeastWorkLeftPolicy()]
    if include_secondary:
        policies += [RoundRobinPolicy(), ShortestQueuePolicy()]
    return policies


def sita_family(cutoffs: dict[str, float]) -> list[SITAPolicy]:
    """Instantiate SITA policies from fitted cutoffs."""
    names = {"e": "sita-e", "opt": "sita-u-opt", "fair": "sita-u-fair"}
    return [SITAPolicy([c], name=names[v]) for v, c in cutoffs.items()]


def grouped_sita(
    cutoff: float,
    n_hosts: int,
    dist: ServiceDistribution,
    name: str,
    load: float | None = None,
) -> GroupedSITAPolicy:
    """Section-5 grouped SITA with an analytically chosen host split.

    When ``load`` is given the short-group size minimises the predicted
    mean slowdown (:func:`repro.core.cutoffs.optimal_group_split`);
    otherwise it falls back to load-proportional rounding.
    """
    if load is not None:
        from ..core.cutoffs import optimal_group_split

        try:
            n_short = optimal_group_split(load, dist, n_hosts, cutoff)
            return GroupedSITAPolicy(cutoff, n_short, name=name)
        except ValueError:
            pass  # fall back to the proportional split below
    f = dist.partial_moment(1.0, 0.0, cutoff) / dist.mean
    n_short = int(np.clip(round(n_hosts * f), 1, n_hosts - 1))
    return GroupedSITAPolicy(cutoff, n_short, name=name)
