"""Shared-computation SITA cutoff-search engine.

The paper's headline policies — SITA-U-opt and SITA-U-fair — are defined
by *searches* over the cutoff axis, and the opt/fair pair walks the
*same* candidate axis twice.  This module makes both the
simulation-based and the analytic searches share their interior points
instead of recomputing them:

* **Simulation pair** (:func:`sim_cutoff_pair`): one ``simulate_fast``
  run per candidate cutoff scores it for the opt metric *and* the fair
  gap, and a golden-section refinement then sharpens each winner inside
  its grid bracket.  Scores are memoised by the cutoff's size rank (the
  objectives are step functions of the cutoff), so most refinement
  evaluations are memo hits.

* **Analytic pair** (:func:`analytic_cutoff_pair`): ``opt_cutoff`` and
  ``fair_cutoff`` read one evaluation of the SITA analysis per point of
  a load-independent log-cutoff axis; the ``"opt"`` argmin+refine and
  the ``"fair"`` sign-change bracket+``brentq`` start from the same
  evaluations.  Each evaluation runs the core of
  :func:`~repro.analysis.sita_analysis.analyze_sita`, which scores an
  infeasible point as ``None`` instead of raising.  For an
  :class:`~repro.workloads.distributions.Empirical` (the paper's
  training-half fit) both slices come off its power-sum table after one
  O(log n) rank of the cutoff; a continuous distribution evaluates its
  closed forms or quadratures at every point.

``repro.core.cutoffs`` keeps the public entry points (``opt_cutoff``,
``fair_cutoff``, ``sim_opt_cutoff``, ``sim_fair_cutoff``) as thin
wrappers over this engine with unchanged signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from ..analysis.sita_analysis import SITAAnalysis, _analyze
from ..sim.fast import simulate_fast
from ..sim.metrics import Summary
from ..solvers import brentq, minimize_bounded
from ..workloads.distributions import ServiceDistribution, _as_host_speeds
from ..workloads.traces import Trace
from .policies.sita import SITAPolicy

__all__ = [
    "SimCutoffPair",
    "analytic_cutoff_pair",
    "candidate_cutoffs",
    "sim_cutoff_pair",
]

#: Refinement tolerance on the log-size axis for the analytic searches
#: (matches the pre-engine ``minimize_scalar``/``brentq`` tolerances).
_XTOL = 1e-10

#: Refinement tolerance on the log-size axis for the *simulation*
#: searches.  The simulated objectives are step functions of the cutoff
#: (they only change when the cutoff crosses an observed size), so there
#: is nothing to resolve below the inter-size spacing; 1e-2 is ~40× finer
#: than a 40-point grid over four decades while keeping the refinement to
#: about ten evaluations per objective — some of them size-rank memo hits.
_SIM_REFINE_TOL = 1e-2

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# ----------------------------------------------------------------------
# golden-section refinement (shared by the sim and analytic fallbacks)
# ----------------------------------------------------------------------


def _golden_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    x0: float,
    f0: float,
) -> tuple[float, float]:
    """Golden-section minimisation of ``f`` on ``[lo, hi]``.

    Seeded with the incumbent ``(x0, f0)`` and returning the best point
    *evaluated* (strictly better than the incumbent, else the incumbent
    itself) — so a refinement can only improve on the grid argmin, never
    regress, and ties keep the grid value bit-identical.
    """
    best_x, best_f = x0, f0
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    if fc < best_f:
        best_x, best_f = c, fc
    if fd < best_f:
        best_x, best_f = d, fd
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


# ----------------------------------------------------------------------
# simulation-based pair search
# ----------------------------------------------------------------------


def candidate_cutoffs(trace: Trace, n_candidates: int) -> np.ndarray:
    """Log-spaced candidate cutoffs spanning the observed sizes.

    Raises a clear ``ValueError`` for degenerate training traces instead
    of letting ``math.log`` blow up (non-positive minimum size) or
    silently producing a zero-width grid (all sizes equal).
    """
    if n_candidates < 2:
        raise ValueError(f"need at least 2 candidates, got {n_candidates}")
    s = trace.service_times
    lo, hi = float(np.min(s)), float(np.max(s))
    if not math.isfinite(lo) or lo <= 0.0:
        raise ValueError(
            f"training trace {trace.name!r} has a non-positive minimum "
            f"service time ({lo:g}); a log-spaced cutoff grid needs "
            "strictly positive sizes"
        )
    if lo * 1.001 >= hi * 0.999:
        raise ValueError(
            f"training trace {trace.name!r} has (nearly) identical service "
            f"times (min {lo:g}, max {hi:g}); the candidate cutoff grid "
            "would have zero width — no 2-host split can be searched"
        )
    return np.exp(np.linspace(math.log(lo * 1.001), math.log(hi * 0.999), n_candidates))


@dataclass(frozen=True)
class SimCutoffPair:
    """Result of one shared opt+fair simulation search."""

    #: refined opt cutoff (grid argmin when ``refine=False``).
    opt: float
    #: refined fair cutoff.
    fair: float
    #: grid argmin indices.
    opt_index: int
    fair_index: int
    candidates: np.ndarray
    #: metric value at ``opt`` / gap value at ``fair``.
    opt_metric: float
    fair_gap: float


#: ``Summary`` fields a simulation search can minimise.
_SIM_METRICS = tuple(f.name for f in fields(Summary) if f.type in (float, "float"))


def _sim_scorer(
    train: Trace, metric: str, warmup_fraction: float
) -> Callable[[float], tuple[float, float]]:
    """``cutoff -> (metric, gap)`` for a 2-host SITA run of ``train``.

    One ``simulate_fast`` per cutoff gives both scores: the ``Summary``
    field ``metric`` (``inf`` where it is not finite) and the fair
    objective ``abs(log(s_short / s_long))`` over the trimmed class mean
    slowdowns (``inf`` where a size class is empty).  Cutoffs between
    the same adjacent observed sizes route every job alike, so scores
    are memoised by the cutoff's size rank: a golden-section refinement
    that revisits a flat step of the objective costs nothing.
    """
    if metric not in _SIM_METRICS:
        raise ValueError(f"metric must be one of {_SIM_METRICS}, got {metric!r}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0,1), got {warmup_fraction}")
    sorted_sizes = np.sort(train.service_times)
    memo: dict[int, tuple[float, float]] = {}

    def score(cutoff: float) -> tuple[float, float]:
        rank = int(np.searchsorted(sorted_sizes, cutoff, side="right"))
        if rank not in memo:
            result = simulate_fast(train, SITAPolicy([cutoff], name="sita-search"), 2, rng=0)
            value = getattr(result.summary(warmup_fraction), metric)
            try:
                s_short, s_long = result.trimmed(warmup_fraction).class_mean_slowdowns(cutoff)
            except ValueError:  # an empty size class
                gap = math.inf
            else:
                gap = abs(math.log(s_short / s_long))
            memo[rank] = (value if math.isfinite(value) else math.inf, gap)
        return memo[rank]

    return score


def _sim_winner(
    candidates: np.ndarray,
    objective: Callable[[float], float],
    refine: bool,
    nothing: str,
) -> tuple[float, int, float]:
    """``(cutoff, grid index, objective there)`` of the grid argmin.

    With ``refine`` the winner is sharpened by golden section inside its
    grid bracket; the grid candidate is kept bit-identical unless a
    refined point is strictly better.
    """
    values = np.array([objective(float(c)) for c in candidates])
    if not np.any(np.isfinite(values)):
        raise ValueError(f"no candidate cutoff produced {nothing}")
    index = int(np.argmin(values))
    x0, f0 = float(candidates[index]), float(values[index])
    if refine:
        lo = float(candidates[max(0, index - 1)])
        hi = float(candidates[min(candidates.size - 1, index + 1)])
        log_best, best_f = _golden_min(
            lambda log_c: objective(math.exp(log_c)),
            math.log(lo), math.log(hi), _SIM_REFINE_TOL, math.log(x0), f0,
        )
        # exp(log(x)) need not round-trip, so map back only on a strict gain.
        if best_f < f0:
            return float(math.exp(log_best)), index, best_f
    return x0, index, f0


def sim_cutoff_pair(
    train: Trace,
    metric: str = "mean_slowdown",
    n_candidates: int = 40,
    warmup_fraction: float = 0.05,
    refine: bool = True,
) -> SimCutoffPair:
    """Run the opt and fair simulation searches off one set of runs.

    Each candidate on the log-spaced grid is simulated once, and that
    run scores it for both the opt ``metric`` and the fair gap.  With
    ``refine=True`` each winner is sharpened by golden section inside
    its grid bracket, through the same memoised scorer.
    """
    candidates = candidate_cutoffs(train, n_candidates)
    score = _sim_scorer(train, metric, warmup_fraction)
    opt, opt_index, opt_metric = _sim_winner(
        candidates, lambda c: score(c)[0], refine, "a finite metric"
    )
    fair, fair_index, fair_gap = _sim_winner(
        candidates, lambda c: score(c)[1], refine, "two non-empty classes"
    )
    return SimCutoffPair(
        opt=opt,
        fair=fair,
        opt_index=opt_index,
        fair_index=fair_index,
        candidates=candidates,
        opt_metric=opt_metric,
        fair_gap=fair_gap,
    )


# ----------------------------------------------------------------------
# analytic pair search
# ----------------------------------------------------------------------


def _finite_upper(dist: ServiceDistribution) -> float:
    """A finite stand-in for the distribution's upper support bound."""
    u = dist.upper
    return u if math.isfinite(u) else dist.ppf(1.0 - 1e-12)


def _shared_axis(dist: ServiceDistribution, n_grid: int) -> np.ndarray:
    """The load-independent log-cutoff axis every search point shares.

    It spans the full support rather than the per-load feasible range:
    infeasible points simply score ``inf``, and the refinement step
    recovers the resolution a load-tailored grid would have had.
    """
    lo = max(dist.lower, dist.ppf(1e-9), 1e-300)
    hi = _finite_upper(dist)
    if not lo < hi:
        raise ValueError(
            f"distribution support [{lo:.4g}, {hi:.4g}] is too narrow for "
            "a cutoff search"
        )
    return np.exp(np.linspace(math.log(lo), math.log(hi), n_grid))


def analytic_cutoff_pair(
    load: float,
    dist: ServiceDistribution,
    want: Sequence[str] = ("opt", "fair"),
    metric: str = "mean_slowdown",
    n_grid: int = 80,
    host_speeds: Sequence[float] | None = None,
) -> dict[str, float]:
    """Derive any of the 2-host SITA-U cutoffs off one shared axis.

    Evaluates the analysis once per axis point; the ``"opt"``
    argmin+refine and the ``"fair"`` sign-change bracket+``brentq`` then
    read the same evaluations.  Returns ``{target: cutoff}`` for each
    requested target, matching the historical ``opt_cutoff`` /
    ``fair_cutoff`` results to search tolerance.  Speeds that are not
    two positive finite numbers raise ``analyze_sita``'s error.
    """
    if not want:
        raise ValueError("want must name at least one cutoff target")
    unknown = [t for t in want if t not in ("opt", "fair")]
    if unknown:
        raise ValueError(f"unknown cutoff target(s) {unknown!r}")
    speeds = _as_host_speeds(host_speeds, 2).tolist()
    if host_speeds is None and not 0.0 < load < 1.0:
        raise ValueError(f"system load must be in (0,1), got {load}")
    lam = 2.0 * load / dist.mean

    def evaluate(c: float) -> SITAAnalysis | None:
        try:
            return _analyze(lam, dist, (c,), speeds)
        except ValueError:  # a slice moment diverges
            return None

    axis = _shared_axis(dist, n_grid)
    evals = [evaluate(float(c)) for c in axis]
    if not any(a is not None for a in evals):
        # The shared axis can straddle a feasibility window narrower than
        # its spacing; fall back to the load-tailored grid the pre-engine
        # searches used (raises the historical errors when truly empty).
        if host_speeds is not None:
            raise ValueError(f"no feasible cutoff on the grid at load {load}")
        from .cutoffs import feasible_cutoff_range

        c_min, c_max = feasible_cutoff_range(load, dist)
        axis = np.exp(np.linspace(math.log(c_min), math.log(c_max), n_grid))
        evals = [evaluate(float(c)) for c in axis]
        if not any(a is not None for a in evals):
            raise ValueError(f"no feasible cutoff on the grid at load {load}")

    out: dict[str, float] = {}
    for target in want:
        if target == "opt":
            out["opt"] = _opt_from_axis(axis, evals, evaluate, metric, load)
        else:
            out["fair"] = _fair_from_axis(axis, evals, evaluate, load)
    return out


def _opt_from_axis(
    axis: np.ndarray,
    evals: list[SITAAnalysis | None],
    evaluate: Callable[[float], SITAAnalysis | None],
    metric: str,
    load: float,
) -> float:
    values = np.array(
        [getattr(a, metric) if a is not None else math.inf for a in evals]
    )
    if not np.any(np.isfinite(values)):
        raise ValueError(f"no feasible cutoff on the grid at load {load}")
    best = int(np.nanargmin(values))
    lo = axis[max(0, best - 1)]
    hi = axis[min(axis.size - 1, best + 1)]

    def objective(log_c: float) -> float:
        a = evaluate(math.exp(log_c))
        return getattr(a, metric) if a is not None else math.inf

    x, _ = minimize_bounded(objective, (math.log(lo), math.log(hi)), xatol=_XTOL)
    return float(math.exp(x))


def _gap_of(a: SITAAnalysis | None) -> float:
    """Log-ratio of short to long class mean slowdown (NaN if infeasible)."""
    if a is None:
        return math.nan
    s_short, s_long = a.class_mean_slowdowns()
    try:
        return math.log(s_short / s_long)
    except ValueError:
        return math.nan


def _gap_at(
    log_c: float, evaluate: Callable[[float], SITAAnalysis | None]
) -> float:
    # Module-level, with ``evaluate`` passed through ``args=``, so no
    # closure over the distribution outlives the solve.
    return _gap_of(evaluate(math.exp(log_c)))


def _fair_from_axis(
    axis: np.ndarray,
    evals: list[SITAAnalysis | None],
    evaluate: Callable[[float], SITAAnalysis | None],
    load: float,
) -> float:
    gaps = np.array([_gap_of(a) for a in evals])
    finite = np.isfinite(gaps)
    if not np.any(finite):
        raise ValueError(f"no feasible fair cutoff at load {load}")

    # The feasible set is an interval on the cutoff axis, so finite gap
    # values are contiguous grid points; the gap grows with the cutoff
    # (more load short ⇒ shorts slow down, longs speed up), giving at
    # most one sign change to bracket.
    idx = np.flatnonzero(finite)
    for i, j in zip(idx, idx[1:]):
        if j == i + 1 and gaps[i] == 0.0:
            return float(axis[i])
        if j == i + 1 and (gaps[i] < 0.0) and (gaps[j] >= 0.0):
            root = brentq(
                _gap_at,
                math.log(axis[i]),
                math.log(axis[j]),
                args=(evaluate,),
                xtol=_XTOL,
            )
            return float(math.exp(root))
    # No equal-slowdown point inside the feasible range (extreme loads,
    # small training samples): return the fairest feasible cutoff, the
    # |gap| argmin sharpened inside its bracket.
    abs_gaps = np.where(finite, np.abs(gaps), math.inf)
    best = int(np.argmin(abs_gaps))
    lo = axis[max(0, best - 1)]
    hi = axis[min(axis.size - 1, best + 1)]

    def objective(log_c: float) -> float:
        g = _gap_at(log_c, evaluate)
        return abs(g) if math.isfinite(g) else math.inf

    x, fx = _golden_min(
        objective,
        math.log(lo),
        math.log(hi),
        _XTOL,
        math.log(float(axis[best])),
        float(abs_gaps[best]),
    )
    if fx < float(abs_gaps[best]):
        return float(math.exp(x))
    return float(axis[best])
