"""Analytic evaluation of SITA policies — per-host M/G/1 on size slices.

Under a SITA policy with cutoffs ``c_1 < … < c_{h−1}``, host ``i`` receives
a thinned Poisson stream (rate ``λ·p_i`` with ``p_i = P(c_{i−1} < X ≤ c_i)``)
of jobs whose sizes follow the *conditional* distribution on that interval.
Each host is therefore an independent M/G/1 FCFS queue and Theorem 1
applies per host; mixing over the job classes gives the system-wide
metrics the paper reports:

* ``E[S] = Σ_i p_i · E[S_i]``
* ``E[S²] = Σ_i p_i · E[S_i²]``, so ``Var[S] = E[S²] − E[S]²``
* per-host utilisation ``ρ_i = λ·p_i·E[X_i]`` — the *load profile* that
  figure 5 plots, and whose feasibility (``ρ_i < 1`` for all i) bounds
  the cutoff search space.

This module is the engine behind figures 5, 8 and 9 and behind the
analytic cutoff searches in :mod:`repro.core.cutoffs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..workloads.distributions import Empirical, ServiceDistribution, _as_host_speeds
from .mg1 import MG1Metrics, _mg1_from_moments, safe_inverse_moments

__all__ = ["SITAHost", "SITAAnalysis", "analyze_sita", "sita_host_loads"]


@dataclass(frozen=True)
class SITAHost:
    """One host's slice of the size axis and its M/G/1 metrics."""

    host: int
    lo: float
    hi: float
    #: fraction of *jobs* routed here.
    job_fraction: float
    #: fraction of total *work* routed here.
    load_fraction: float
    #: host utilisation ρ_i.
    utilisation: float
    #: per-host queue metrics (None when the slice is empty).
    mg1: MG1Metrics | None
    #: expected response slowdown of this size class (nominal sizes);
    #: NaN for an empty slice.
    class_mean_slowdown: float = math.nan


@dataclass(frozen=True)
class SITAAnalysis:
    """System-wide analytic metrics of a SITA policy."""

    cutoffs: tuple[float, ...]
    hosts: tuple[SITAHost, ...]
    mean_slowdown: float
    var_slowdown: float
    mean_waiting_slowdown: float
    mean_response: float
    mean_wait: float

    @property
    def feasible(self) -> bool:
        return all(h.utilisation < 1.0 for h in self.hosts)

    def class_mean_slowdowns(self) -> tuple[float, ...]:
        """Expected slowdown per size class (equal ⇔ SITA-U-fair)."""
        return tuple(h.class_mean_slowdown for h in self.hosts)


def _intervals(cutoffs: Sequence[float]) -> list[tuple[float, float]]:
    edges = [0.0, *cutoffs, math.inf]
    return list(zip(edges, edges[1:]))


def sita_host_loads(
    arrival_rate: float, dist: ServiceDistribution, cutoffs: Sequence[float]
) -> np.ndarray:
    """Per-host utilisations ρ_i (cheap feasibility probe for searches)."""
    return np.array(
        [arrival_rate * dist.partial_moment(1.0, lo, hi) for lo, hi in _intervals(cutoffs)]
    )


def _interval_moments(dist: ServiceDistribution, lo: float, hi: float) -> tuple | None:
    """``(p, work, mean, m2, m3, inv1, inv2)`` of the slice ``(lo, hi]``
    (``None`` if empty): its job fraction, its unconditional partial first
    moment, and the moments of the conditional distribution on it.

    Any distribution's interval machinery gives them, each call ranking
    or integrating its own slice; :meth:`Empirical.cutoff_moments
    <repro.workloads.distributions.Empirical.cutoff_moments>` reads every
    slice of a cutoff list off one rank per cutoff, with the same sums
    and divisions as this path.
    """
    p = dist.prob_interval(lo, hi)
    if p <= 0.0:
        return None
    cond = dist.conditional(lo, hi)
    inv1, inv2 = safe_inverse_moments(cond)
    return (
        p,
        dist.partial_moment(1.0, lo, hi),
        cond.mean,
        cond.second_moment,
        cond.third_moment,
        inv1,
        inv2,
    )


def analyze_sita(
    arrival_rate: float,
    dist: ServiceDistribution,
    cutoffs: Sequence[float],
    host_speeds: Sequence[float] | None = None,
) -> SITAAnalysis:
    """Evaluate a SITA policy analytically.

    Parameters
    ----------
    arrival_rate:
        Rate λ of the *total* Poisson job stream.
    dist:
        Distribution of job sizes in the full stream.
    cutoffs:
        The ``h − 1`` increasing size cutoffs.
    host_speeds:
        Optional per-host speeds (extension: heterogeneous machines, e.g.
        a C90 next to a J90).  Host ``i`` serves its slice as an M/G/1 on
        the *scaled* distribution ``X_i / v_i``; per-job slowdown remains
        response over *nominal* size, so a job on a speed-2 host can have
        slowdown below 1.

    Raises
    ------
    ValueError
        If any host's utilisation is ≥ 1 (infeasible cutoffs).  Use
        :func:`sita_host_loads` first to probe feasibility without the
        exception.
    """
    c = np.asarray(cutoffs, dtype=float)
    if c.size and np.any(np.diff(c) <= 0):
        raise ValueError(f"cutoffs must be strictly increasing, got {c}")
    speeds = _as_host_speeds(host_speeds, c.size + 1)
    return _analyze(arrival_rate, dist, c, speeds, strict=True)


def _analyze(
    arrival_rate: float,
    dist: ServiceDistribution,
    cutoffs: Sequence[float],
    speeds: Sequence[float],
    strict: bool = False,
) -> SITAAnalysis | None:
    """:func:`analyze_sita` on checked cutoffs and speeds.

    A host with ρ ≥ 1 or a non-positive arrival rate raises
    ``analyze_sita``'s errors when ``strict``, and gives ``None``
    otherwise, so a search can score infeasible points without raising.
    A slice moment that diverges raises its ``ValueError`` either way,
    before that host's utilisation is checked.
    """
    intervals = _intervals(cutoffs)
    if isinstance(dist, Empirical):
        slices = dist.cutoff_moments(cutoffs)
    else:  # lazily, so host i's errors come before host i+1's moments
        slices = (_interval_moments(dist, lo, hi) for lo, hi in intervals)
    hosts: list[SITAHost] = []
    mean_s = 0.0
    mean_s2 = 0.0
    mean_wslow = 0.0
    mean_resp = 0.0
    mean_wait = 0.0
    total_mean = dist.mean
    for i, ((lo, hi), sl) in enumerate(zip(intervals, slices)):
        if sl is None:
            hosts.append(
                SITAHost(
                    host=i, lo=lo, hi=hi, job_fraction=0.0,
                    load_fraction=0.0, utilisation=0.0, mg1=None,
                )
            )
            continue
        p, work, mean, m2, m3, inv1, inv2 = sl
        v = float(speeds[i])
        # A speed-v host serves X/v: the moments of ScaledDistribution(cond, 1/v).
        if v == 1.0:
            served = (mean, m2, m3, inv1, inv2)
        else:
            scale = 1.0 / v
            served = (
                scale**1 * mean,
                scale**2 * m2,
                scale**3 * m3,
                scale**-1 * inv1 if math.isfinite(inv1) else math.inf,
                scale**-2 * inv2 if math.isfinite(inv2) else math.inf,
            )
        lam_i = arrival_rate * p
        rho_i = lam_i * served[0]
        if rho_i >= 1.0 or lam_i <= 0:
            if not strict:
                return None
            if rho_i >= 1.0:
                raise ValueError(
                    f"infeasible cutoffs {cutoffs}: host {i} utilisation {rho_i:.4f} >= 1"
                )
            raise ValueError(f"arrival rate must be positive, got {lam_i}")
        m = _mg1_from_moments(lam_i, *served)
        # Slowdown uses the *nominal* size: S = (W + X/v)/X = W/X + 1/v.
        es_i = m.mean_wait * inv1 + 1.0 / v
        hosts.append(
            SITAHost(
                host=i,
                lo=lo,
                hi=hi,
                job_fraction=p,
                load_fraction=work / total_mean,
                utilisation=rho_i,
                mg1=m,
                class_mean_slowdown=es_i,
            )
        )
        es2 = (
            m.second_moment_wait * inv2
            + (2.0 / v) * m.mean_wait * inv1
            + 1.0 / v**2
        )
        mean_s += p * es_i
        mean_s2 += p * es2
        mean_wslow += p * (m.mean_wait * inv1)
        mean_resp += p * m.mean_response
        mean_wait += p * m.mean_wait
    var_s = (
        mean_s2 - mean_s**2
        if math.isfinite(mean_s2) and math.isfinite(mean_s)
        else math.inf
    )
    return SITAAnalysis(
        cutoffs=tuple(float(x) for x in cutoffs),
        hosts=tuple(hosts),
        mean_slowdown=mean_s,
        var_slowdown=var_s,
        mean_waiting_slowdown=mean_wslow,
        mean_response=mean_resp,
        mean_wait=mean_wait,
    )
