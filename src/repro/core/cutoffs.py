"""Cutoff engines: where SITA-E, SITA-U-opt and SITA-U-fair come from.

A SITA policy is defined by its size cutoffs; the paper's contribution is
the observation that choosing them to *balance load* (SITA-E) is far from
optimal, and that both the slowdown-optimal and the fairness-optimal
cutoffs deliberately **underload the short-job host**.

This module implements all three cutoff rules, analytically (via the
M/G/1 machinery of :mod:`repro.analysis`, usable with any
:class:`~repro.workloads.distributions.ServiceDistribution`, including the
:class:`~repro.workloads.distributions.Empirical` distribution of a
training trace) and by direct simulation search (the paper derives its
cutoffs both ways and reports that the two agree — our tests check that
too):

* :func:`equal_load_cutoffs` — SITA-E, any number of hosts;
* :func:`opt_cutoff` / :func:`fair_cutoff` — the 2-host SITA-U cutoffs;
* :func:`opt_cutoffs_multi` / :func:`fair_cutoffs_multi` — the general
  ``h``-host searches the paper calls "computationally expensive" and
  sidesteps (we implement them anyway as an extension);
* :func:`sim_opt_cutoff` / :func:`sim_fair_cutoff` — simulation-based
  searches on a training trace, mirroring the paper's
  half-trace-fit / half-trace-evaluate protocol.

All searches run on a log-size axis (job sizes span 4–6 decades).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from ..analysis.sita_analysis import analyze_sita, sita_host_loads
from ..solvers import brentq
from ..workloads.distributions import ServiceDistribution
from ..workloads.traces import Trace
from .search import _finite_upper, _sim_scorer, _sim_winner, analytic_cutoff_pair, candidate_cutoffs

__all__ = [
    "equal_load_cutoffs",
    "feasible_cutoff_range",
    "opt_cutoff",
    "fair_cutoff",
    "opt_cutoffs_multi",
    "fair_cutoffs_multi",
    "optimal_group_split",
    "sim_opt_cutoff",
    "sim_fair_cutoff",
    "short_host_load_fraction",
]

#: Relative tolerance for bisection on the (log) size axis.
_XTOL = 1e-10


def _load_below(dist: ServiceDistribution, c: float) -> float:
    """Fraction of total work from jobs of size ≤ c."""
    return dist.partial_moment(1.0, 0.0, c) / dist.mean


def _residual(log_c: float, fn: Callable[[float], float], target: float) -> float:
    """``fn(exp(log_c)) − target``: a root-finding objective on the log axis.

    Module-level, with its state passed through ``args=``, so no
    closure over a distribution outlives the solve and a fitted
    :class:`~repro.workloads.distributions.Empirical` is freed on its
    last reference.
    """
    return fn(math.exp(log_c)) - target


def _solve_load_quantile(dist: ServiceDistribution, frac: float) -> float:
    """Size ``c`` with ``E[X; X ≤ c] = frac · E[X]`` (load quantile).

    For atomic distributions (empirical traces) the load-below curve is a
    step function and no exact root exists; the returned cutoff is the
    step edge whose load split is *closest* to the target — in particular
    never the degenerate side that puts all work in one class.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError(f"load fraction must be in (0,1), got {frac}")
    lo = max(dist.lower, 1e-300)
    hi = _finite_upper(dist)
    load_below = partial(_load_below, dist)

    def best_side(c: float) -> float:
        # Step-function aware: a root-find (or an endpoint affected by
        # exp/log rounding) may land on either side of a jump in the load
        # curve; pick the side whose realised load fraction is nearest the
        # target.  The nudge must exceed the solvers' relative error.
        candidates = [c * (1.0 - 1e-9), c, c * (1.0 + 1e-9)]
        return min(candidates, key=lambda x: abs(load_below(x) - frac))

    a, b = math.log(lo), math.log(hi)
    fa, fb = _residual(a, load_below, frac), _residual(b, load_below, frac)
    if fa >= 0.0:
        return best_side(lo)
    if fb <= 0.0:
        return best_side(hi)
    c = math.exp(
        brentq(_residual, a, b, args=(load_below, frac), xtol=_XTOL)
    )
    return best_side(c)


def equal_load_cutoffs(dist: ServiceDistribution, n_hosts: int) -> np.ndarray:
    """SITA-E cutoffs: each of the ``h`` size intervals carries load 1/h.

    For heavy-tailed workloads this sends the overwhelming majority of
    *jobs* to the short host (98.7 % for the paper's C90 data with h=2)
    even though every host carries the same *work*.
    """
    if n_hosts < 2:
        raise ValueError(f"need at least 2 hosts for SITA, got {n_hosts}")
    cutoffs = [
        _solve_load_quantile(dist, i / n_hosts) for i in range(1, n_hosts)
    ]
    c = np.asarray(cutoffs)
    if np.any(np.diff(c) <= 0):
        raise ValueError(
            f"equal-load cutoffs are not strictly increasing ({c}); the "
            "distribution has too little resolution for this many hosts"
        )
    # Every interval must receive jobs — a cutoff at/below the minimum or
    # at the maximum silently idles a host (a point mass cannot be split).
    edges = [0.0, *c, math.inf]
    for lo, hi in zip(edges, edges[1:]):
        if dist.prob_interval(lo, hi) <= 0.0:
            raise ValueError(
                f"equal-load cutoffs {c} leave the interval ({lo:.4g}, "
                f"{hi:.4g}] empty; the distribution has too little "
                "resolution for this many hosts"
            )
    return c


def short_host_load_fraction(
    dist: ServiceDistribution, cutoff: float
) -> float:
    """Fraction of total load assigned to Host 1 by a 2-host cutoff.

    The quantity plotted in figure 5 (0.5 for SITA-E by construction;
    ≈ ρ/2 at the SITA-U cutoffs — the paper's rule of thumb).
    """
    return _load_below(dist, cutoff)


def feasible_cutoff_range(
    load: float, dist: ServiceDistribution, margin: float = 1e-6
) -> tuple[float, float]:
    """The interval of 2-host cutoffs keeping both hosts stable (ρ_i < 1).

    With λ = 2·ρ/E[X]: the short host's utilisation grows with the cutoff
    and the long host's shrinks, so feasibility is an interval.  ``margin``
    shaves the endpoints (utilisation ≤ 1 − margin) so downstream M/G/1
    evaluations stay finite.
    """
    if not 0.0 < load < 1.0:
        raise ValueError(f"system load must be in (0,1), got {load}")
    lam = 2.0 * load / dist.mean
    lo_bound = max(dist.lower, 1e-300)
    hi_bound = _finite_upper(dist)

    def rho_short(c: float) -> float:
        return lam * dist.partial_moment(1.0, 0.0, c)

    def rho_long(c: float) -> float:
        return lam * dist.partial_moment(1.0, c, dist.upper)

    # Largest cutoff with rho_short <= 1 - margin.
    if rho_short(hi_bound) < 1.0 - margin:
        c_max = hi_bound
    else:
        c_max = math.exp(
            brentq(
                _residual,
                math.log(lo_bound),
                math.log(hi_bound),
                args=(rho_short, 1.0 - margin),
                xtol=_XTOL,
            )
        )
    # Smallest cutoff with rho_long <= 1 - margin.
    if rho_long(lo_bound) < 1.0 - margin:
        c_min = lo_bound
    else:
        c_min = math.exp(
            brentq(
                _residual,
                math.log(lo_bound),
                math.log(hi_bound),
                args=(rho_long, 1.0 - margin),
                xtol=_XTOL,
            )
        )
    if c_min >= c_max:
        raise ValueError(
            f"no feasible 2-host cutoff at load {load} (range "
            f"[{c_min:.4g}, {c_max:.4g}] is empty)"
        )
    return c_min, c_max


def opt_cutoff(
    load: float,
    dist: ServiceDistribution,
    metric: str = "mean_slowdown",
    n_grid: int = 80,
    host_speeds=None,
) -> float:
    """SITA-U-opt: the 2-host cutoff minimising the analytic ``metric``.

    Coarse log-spaced grid followed by golden-section refinement around
    the best bracket.  ``metric`` may be any scalar field of
    :class:`~repro.analysis.sita_analysis.SITAAnalysis`
    (``"mean_slowdown"`` by default, per the paper's definition;
    ``"mean_response"`` gives the response-optimal variant).  With
    ``host_speeds`` the load is interpreted against total capacity
    λ = 2ρ/E[X] as usual, the per-host stability region shifts with the
    speeds, and infeasible grid points simply score ``inf``.

    Thin wrapper over :func:`repro.core.search.analytic_cutoff_pair`,
    which scores the opt/fair pair off one shared evaluation axis; call
    the pair function directly when both cutoffs are needed.
    """
    return analytic_cutoff_pair(
        load,
        dist,
        want=("opt",),
        metric=metric,
        n_grid=n_grid,
        host_speeds=host_speeds,
    )["opt"]


def fair_cutoff(
    load: float, dist: ServiceDistribution, host_speeds=None
) -> float:
    """SITA-U-fair: the 2-host cutoff equalising short/long mean slowdown.

    Solves ``E[S_short](c) = E[S_long](c)``; the gap's log-ratio changes
    sign across the feasible range, so a sign-change bracket plus
    ``brentq`` is robust, with a fairest-feasible grid argmin fallback at
    extreme loads where feasibility pins the cutoff.  ``host_speeds``
    extends the search to heterogeneous pairs.

    Thin wrapper over :func:`repro.core.search.analytic_cutoff_pair`
    (shared evaluation axis with the opt search).
    """
    return analytic_cutoff_pair(
        load, dist, want=("fair",), host_speeds=host_speeds
    )["fair"]


# ----------------------------------------------------------------------
# general h (extension: the search the paper calls too expensive)
# ----------------------------------------------------------------------


def opt_cutoffs_multi(
    load: float,
    dist: ServiceDistribution,
    n_hosts: int,
    metric: str = "mean_slowdown",
) -> np.ndarray:
    """Slowdown-optimal cutoffs for ``h`` hosts (Nelder–Mead in log space).

    Parameterised by log-increments so the ordering constraint is built
    in; infeasible points (any ρ_i ≥ 1) are given an infinite objective.
    Initialised at the SITA-E cutoffs.
    """
    if n_hosts == 2:
        return np.array([opt_cutoff(load, dist, metric)])
    lam = n_hosts * load / dist.mean
    start = equal_load_cutoffs(dist, n_hosts)

    def decode(theta: np.ndarray) -> np.ndarray:
        # theta[0] is log c_1; subsequent entries are log spacing increments.
        logs = np.concatenate(([theta[0]], theta[0] + np.cumsum(np.exp(theta[1:]))))
        return np.exp(logs)

    def encode(cut: np.ndarray) -> np.ndarray:
        logs = np.log(cut)
        return np.concatenate(([logs[0]], np.log(np.diff(logs))))

    def objective(theta: np.ndarray) -> float:
        cut = decode(theta)
        if np.any(sita_host_loads(lam, dist, cut) >= 1.0):
            return math.inf
        try:
            return getattr(analyze_sita(lam, dist, cut), metric)
        except ValueError:
            return math.inf

    from scipy import optimize

    res = optimize.minimize(
        objective,
        encode(start),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
    )
    best = decode(res.x)
    if not math.isfinite(objective(res.x)):
        raise ValueError(f"multi-host opt search failed at load {load}")
    return best


def fair_cutoffs_multi(
    load: float, dist: ServiceDistribution, n_hosts: int
) -> np.ndarray:
    """Cutoffs equalising the expected slowdown of all ``h`` size classes.

    Solves the ``h − 1`` equations ``E[S_i] = E[S_h]`` with least-squares
    on log-cutoff increments, starting from SITA-E.
    """
    if n_hosts == 2:
        return np.array([fair_cutoff(load, dist)])
    lam = n_hosts * load / dist.mean
    start = equal_load_cutoffs(dist, n_hosts)

    def decode(theta: np.ndarray) -> np.ndarray:
        logs = np.concatenate(([theta[0]], theta[0] + np.cumsum(np.exp(theta[1:]))))
        return np.exp(logs)

    def encode(cut: np.ndarray) -> np.ndarray:
        logs = np.log(cut)
        return np.concatenate(([logs[0]], np.log(np.diff(logs))))

    def residuals(theta: np.ndarray) -> np.ndarray:
        cut = decode(theta)
        if np.any(sita_host_loads(lam, dist, cut) >= 1.0):
            return np.full(n_hosts - 1, 1e6)
        try:
            slows = analyze_sita(lam, dist, cut).class_mean_slowdowns()
        except ValueError:
            return np.full(n_hosts - 1, 1e6)
        s = np.asarray(slows)
        if np.any(~np.isfinite(s)):
            return np.full(n_hosts - 1, 1e6)
        return np.log(s[:-1] / s[-1])

    # Derivative-free: empirical distributions make the residuals a step
    # function of the cutoffs (flat between observed sizes), which starves
    # gradient-based least squares.  Nelder–Mead on the squared norm works
    # on smooth and empirical distributions alike.
    def objective(theta: np.ndarray) -> float:
        r = residuals(theta)
        return float(np.dot(r, r))

    from scipy import optimize

    res = optimize.minimize(
        objective,
        encode(start),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 6000},
    )
    cut = decode(res.x)
    # Tolerance in log-slowdown units.  Empirical distributions cannot do
    # better than the granularity of the observed sizes — the longest-job
    # class may hold only tens of jobs, so its mean slowdown moves in
    # discrete jumps; 0.25 (≈ ±28 %) accepts the best achievable
    # equalisation while still rejecting outright failures.
    if np.max(np.abs(residuals(res.x))) > 0.25:
        raise ValueError(f"multi-host fair search did not converge at load {load}")
    return cut


def optimal_group_split(
    load: float, dist: ServiceDistribution, n_hosts: int, cutoff: float
) -> int:
    """Best short-group size for section-5 grouped SITA.

    Evaluates the analytic grouped model
    (:func:`repro.analysis.policies.predict_grouped_sita`) for every
    feasible ``n_short`` and returns the argmin of mean slowdown.  Naive
    load-proportional rounding can saturate a group at small ``h`` (e.g.
    4 hosts with a 0.35 load share rounds to one short host at
    utilisation ≈ 0.98); this search avoids that.
    """
    from ..analysis.policies import predict_grouped_sita

    if n_hosts < 2:
        raise ValueError(f"grouped SITA needs >= 2 hosts, got {n_hosts}")
    best_n = None
    best_val = math.inf
    for n_short in range(1, n_hosts):
        try:
            pred = predict_grouped_sita(load, dist, n_hosts, cutoff, n_short)
        except ValueError:
            continue  # one of the groups would be unstable
        if pred.mean_slowdown < best_val:
            best_val = pred.mean_slowdown
            best_n = n_short
    if best_n is None:
        raise ValueError(
            f"no stable group split for cutoff {cutoff:.4g} at load {load} "
            f"on {n_hosts} hosts"
        )
    return best_n


# ----------------------------------------------------------------------
# simulation-based searches (paper: "experimental cutoffs")
# ----------------------------------------------------------------------


def sim_opt_cutoff(
    train: Trace,
    metric: str = "mean_slowdown",
    n_candidates: int = 40,
    warmup_fraction: float = 0.05,
) -> float:
    """Simulation-searched SITA-U-opt cutoff on a training trace.

    Evaluates a log-spaced candidate grid by direct (fast) simulation and
    returns the argmin of the ``Summary`` field ``metric`` — the paper's
    "experimental cutoff" procedure.  Degenerate cutoffs (all jobs on one
    host) simply score badly and lose.

    The grid half of :func:`repro.core.search.sim_cutoff_pair`'s opt
    search (same runs, same argmin); call the pair function directly
    when both the opt and fair cutoffs are needed.
    """
    score = _sim_scorer(train, metric, warmup_fraction)
    candidates = candidate_cutoffs(train, n_candidates)
    return _sim_winner(candidates, lambda c: score(c)[0], False, "a finite metric")[0]


def sim_fair_cutoff(
    train: Trace,
    n_candidates: int = 40,
    warmup_fraction: float = 0.05,
) -> float:
    """Simulation-searched SITA-U-fair cutoff on a training trace.

    Scores each candidate by the absolute log-ratio of short/long mean
    slowdowns and returns the most balanced one: the grid half of
    :func:`repro.core.search.sim_cutoff_pair`'s fair search.
    """
    score = _sim_scorer(train, "mean_slowdown", warmup_fraction)
    candidates = candidate_cutoffs(train, n_candidates)
    return _sim_winner(candidates, lambda c: score(c)[1], False, "two non-empty classes")[0]
