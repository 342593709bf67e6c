"""Shared-computation SITA cutoff-search engine.

The paper's headline policies — SITA-U-opt and SITA-U-fair — are defined
by *searches* over the cutoff axis, and those searches dominate sweep
cost: every figure point re-derives cutoffs from scratch, and the
opt/fair pair walks the *same* candidate axis twice.  This module makes
both the simulation-based and the analytic searches share their interior
points instead of recomputing them:

* **Simulation pair** (:func:`sim_cutoff_pair`): one batched
  :class:`~repro.sim.fast.SitaScanKernel` pass scores every candidate for
  the opt metric *and* the fair gap — no per-candidate
  ``SimulationResult``/``Summary`` — and a golden-section refinement then
  sharpens each winner inside its grid bracket, reusing the kernel's
  partition memo (the objectives are step functions of the cutoff, so
  most refinement evaluations are cache hits).

* **Analytic pair** (:func:`analytic_cutoff_pair`): ``opt_cutoff`` and
  ``fair_cutoff`` both drive :func:`~repro.analysis.sita_analysis.analyze_sita`
  over a log-cutoff axis.  The truncated-distribution partial moments
  inside it depend only on ``(dist, cutoff)`` — not on load.  For a
  continuous distribution they are closed forms or quadratures, memoised
  in a bounded, explicitly-keyed :class:`MomentMemo` shared across the
  opt/fair pair, across loads, and across policies within a sweep.  For
  an :class:`~repro.workloads.distributions.Empirical` (the paper's
  training-half fit) they are read off the sample's cumulative
  power-sum table in O(log n), which is as cheap as a memo hit, so the
  memo neither stores nor pins empirical distributions.
  :func:`analyze_sita_cached` rebuilds the full
  :class:`~repro.analysis.sita_analysis.SITAAnalysis` from the slice
  moments with the exact floating-point operations of the direct path,
  so cached and direct analyses agree bit for bit.

The memo lives **per process**.  Under ``repro run --workers N`` each
worker therefore builds its own — still a win: a worker computes the
opt+fair pair for every sweep point it is handed (one shared axis per
pair), experiments that sweep loads over a fixed distribution hit the
cross-load cache inside each worker, and the memo holds only scalars so
duplicating it costs a few kilobytes, not a recomputation.  Sharing it
across processes would mean locking or serialising distribution objects
— more expensive than the arithmetic it saves.

``repro.core.cutoffs`` keeps the public entry points (``opt_cutoff``,
``fair_cutoff``, ``sim_opt_cutoff``, ``sim_fair_cutoff``) as thin
wrappers over this engine with unchanged signatures.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..analysis.mg1 import MG1Metrics, safe_inverse_moments
from ..analysis.sita_analysis import SITAAnalysis, SITAHost
from ..sim.contract import kernel_contract
from ..sim.fast import SitaScanKernel, SitaScanResult, simulate_fast
from ..solvers import brentq, minimize_bounded
from ..workloads.distributions import Empirical, ServiceDistribution
from ..workloads.traces import Trace

__all__ = [
    "MomentMemo",
    "SimCutoffPair",
    "analytic_cutoff_pair",
    "analyze_sita_cached",
    "candidate_cutoffs",
    "clear_search_memo",
    "search_memo_stats",
    "sim_cutoff_pair",
    "sim_pair_reference",
]

#: Refinement tolerance on the log-size axis for the analytic searches
#: (matches the pre-engine ``minimize_scalar``/``brentq`` tolerances).
_XTOL = 1e-10

#: Refinement tolerance on the log-size axis for the *simulation*
#: searches.  The simulated objectives are step functions of the cutoff
#: (they only change when the cutoff crosses an observed size), so there
#: is nothing to resolve below the inter-size spacing; 1e-2 is ~40× finer
#: than a 40-point grid over four decades while keeping the refinement to
#: about ten evaluations per objective — some of them partition-memo hits.
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


@kernel_contract(
    shapes={"return": ("m",)},
    dtypes={"return": "float64"},
    writes=(),
    contiguous=("return",),
)
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
    #: grid argmin indices — bit-identical to the per-candidate loop's.
    opt_index: int
    fair_index: int
    candidates: np.ndarray
    #: metric value at ``opt`` / gap value at ``fair``.
    opt_metric: float
    fair_gap: float
    #: the full per-candidate scan (shared by both searches).
    scan: SitaScanResult


def sim_cutoff_pair(
    train: Trace,
    metric: str = "mean_slowdown",
    n_candidates: int = 40,
    warmup_fraction: float = 0.05,
    refine: bool = True,
) -> SimCutoffPair:
    """Run the opt and fair simulation searches off **one** batched scan.

    The scan scores every candidate for both objectives in a single pass
    (two subset Lindley recursions per distinct partition); the grid
    argmins are bit-identical to the historical per-candidate
    ``simulate_fast`` loops on the same grid.  With ``refine=True`` each
    winner is sharpened by golden section inside its grid bracket — the
    refinement shares the kernel's partition memo, so revisiting a flat
    step of the objective is free.
    """
    candidates = candidate_cutoffs(train, n_candidates)
    kernel = SitaScanKernel(train, metric=metric, warmup_fraction=warmup_fraction)
    scan = kernel.scan(candidates)

    scores = scan.values
    if not np.any(np.isfinite(scores)):
        raise ValueError("no candidate cutoff produced a finite metric")
    opt_index = int(np.argmin(scores))

    gaps = scan.gap
    if not np.any(np.isfinite(gaps)):
        raise ValueError("no candidate cutoff produced two non-empty classes")
    fair_index = int(np.argmin(gaps))

    opt_c, opt_f = float(candidates[opt_index]), float(scores[opt_index])
    fair_c, fair_f = float(candidates[fair_index]), float(gaps[fair_index])
    if refine:
        opt_c, opt_f = _refine_sim(
            kernel, candidates, opt_index, opt_c, opt_f,
            lambda row: row[0],
        )
        fair_c, fair_f = _refine_sim(
            kernel, candidates, fair_index, fair_c, fair_f,
            lambda row: row[3],
        )
    return SimCutoffPair(
        opt=opt_c,
        fair=fair_c,
        opt_index=opt_index,
        fair_index=fair_index,
        candidates=candidates,
        opt_metric=opt_f,
        fair_gap=fair_f,
        scan=scan,
    )


def _refine_sim(
    kernel: SitaScanKernel,
    candidates: np.ndarray,
    index: int,
    x0: float,
    f0: float,
    objective: Callable[[tuple], float],
) -> tuple[float, float]:
    """Golden-section sharpening of a grid winner inside its bracket."""
    lo = float(candidates[max(0, index - 1)])
    hi = float(candidates[min(candidates.size - 1, index + 1)])

    def f(log_c: float) -> float:
        return objective(kernel.evaluate(math.exp(log_c)))

    log_best, best_f = _golden_min(
        f, math.log(lo), math.log(hi), _SIM_REFINE_TOL, math.log(x0), f0
    )
    # The incumbent is tracked in log space; map back through the cutoff
    # only if refinement strictly improved, keeping the grid candidate
    # bit-identical otherwise (exp(log(x)) need not round-trip).
    if best_f < f0:
        return float(math.exp(log_best)), best_f
    return x0, f0


def sim_pair_reference(
    train: Trace,
    metric: str = "mean_slowdown",
    n_candidates: int = 40,
    warmup_fraction: float = 0.05,
) -> tuple[float, float]:
    """The pre-engine per-candidate search pair, kept as the reference.

    Two full ``simulate_fast`` passes (policy, Lindley, result, summary)
    per candidate — exactly the historical ``sim_opt_cutoff`` +
    ``sim_fair_cutoff`` loops.  Used by the scan-vs-loop equivalence
    tests and by ``repro bench`` to measure the ``search.sim_pair``
    speedup against the old path in the same run.
    """
    from .policies.sita import SITAPolicy

    candidates = candidate_cutoffs(train, n_candidates)
    scores = []
    for c in candidates:
        policy = SITAPolicy([c], name="sita-search")
        try:
            result = simulate_fast(train, policy, 2, rng=0)
        except ValueError:
            scores.append(math.inf)
            continue
        value = getattr(result.summary(warmup_fraction=warmup_fraction), metric)
        scores.append(value if math.isfinite(value) else math.inf)
    score_arr = np.array(scores)
    if not np.any(np.isfinite(score_arr)):
        raise ValueError("no candidate cutoff produced a finite metric")
    opt_c = float(candidates[int(np.nanargmin(score_arr))])

    best_c = None
    best_gap = math.inf
    for c in candidates:
        policy = SITAPolicy([c], name="sita-search")
        result = simulate_fast(train, policy, 2, rng=0)
        trimmed = result.trimmed(warmup_fraction)
        try:
            s_short, s_long = trimmed.class_mean_slowdowns(c)
        except ValueError:
            continue  # degenerate split
        gap = abs(math.log(s_short / s_long))
        if gap < best_gap:
            best_gap, best_c = gap, float(c)
    if best_c is None:
        raise ValueError("no candidate cutoff produced two non-empty classes")
    return opt_c, best_c


# ----------------------------------------------------------------------
# analytic moment memo
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _IntervalMoments:
    """Truncated-distribution moments of one size slice ``(lo, hi]``.

    Everything :func:`~repro.analysis.sita_analysis.analyze_sita` derives
    from the distribution for one host — and none of it depends on the
    arrival rate, which is why the memo can be shared across loads.
    """

    p: float
    #: unconditional partial first moment (load numerator).
    work: float
    mean: float
    m2: float
    m3: float
    inv1: float
    inv2: float


@dataclass(frozen=True)
class _CutoffMoments:
    """Both slices of a 2-host cutoff plus the parent mean."""

    dist_mean: float
    short: _IntervalMoments | None
    long: _IntervalMoments | None


def _interval_moments(
    dist: ServiceDistribution, lo: float, hi: float
) -> _IntervalMoments | None:
    p = dist.prob_interval(lo, hi)
    if p <= 0.0:
        return None
    cond = dist.conditional(lo, hi)
    inv1, inv2 = safe_inverse_moments(cond)
    return _IntervalMoments(
        p=p,
        work=dist.partial_moment(1.0, lo, hi),
        mean=cond.mean,
        m2=cond.second_moment,
        m3=cond.third_moment,
        inv1=inv1,
        inv2=inv2,
    )


def _cutoff_moments(
    dist: ServiceDistribution, dist_mean: float, c: float
) -> _CutoffMoments:
    return _CutoffMoments(
        dist_mean=dist_mean,
        short=_interval_moments(dist, 0.0, c),
        long=_interval_moments(dist, c, math.inf),
    )


class MomentMemo:
    """Bounded two-level LRU memo of truncated-distribution moments.

    Serves the continuous distributions, whose truncated moments are
    closed forms or quadratures worth keeping.  An
    :class:`~repro.workloads.distributions.Empirical` bypasses it: its
    slice moments are two table lookups (see
    :class:`~repro.workloads.distributions.Empirical`), so a miss costs
    about as much as a hit, and pinning the distribution would pin its
    power-sum table (about 9 MB per 220k sizes).

    Keyed by distribution **identity** (the same convention as the
    experiment layer's trace cache — a distribution object is immutable
    for its lifetime) × the cutoff value.  Entries hold seven scalars
    per slice, so even a full memo is a few hundred kilobytes.
    ``max_dists`` bounds how many distribution objects are kept alive by
    the memo's strong references; ``max_cutoffs`` bounds the
    per-distribution axis (a sweep's shared axis plus every refinement
    point fits comfortably).
    """

    def __init__(self, max_dists: int = 8, max_cutoffs: int = 4096) -> None:
        if max_dists < 1 or max_cutoffs < 1:
            raise ValueError("memo bounds must be >= 1")
        self.max_dists = max_dists
        self.max_cutoffs = max_cutoffs
        self._dists: OrderedDict[
            int,
            tuple[ServiceDistribution, float, OrderedDict[float, _CutoffMoments]],
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, dist: ServiceDistribution, cutoff: float) -> _CutoffMoments:
        """Moments of both slices at ``cutoff``, computing on a miss."""
        c = float(cutoff)
        if isinstance(dist, Empirical):
            return _cutoff_moments(dist, dist.mean, c)
        key = id(dist)
        node = self._dists.get(key)
        if node is None:
            node = (dist, dist.mean, OrderedDict())
            self._dists[key] = node
            while len(self._dists) > self.max_dists:
                self._dists.popitem(last=False)
        else:
            self._dists.move_to_end(key)
        _, dist_mean, per_cutoff = node
        entry = per_cutoff.get(c)
        if entry is not None:
            per_cutoff.move_to_end(c)
            self.hits += 1
            return entry
        self.misses += 1
        entry = _cutoff_moments(dist, dist_mean, c)
        per_cutoff[c] = entry
        while len(per_cutoff) > self.max_cutoffs:
            per_cutoff.popitem(last=False)
        return entry

    def clear(self) -> None:
        self._dists.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "n_dists": len(self._dists),
            "n_cutoffs": sum(len(node[2]) for node in self._dists.values()),
        }


#: The process-wide memo used by the analytic searches by default.
_MOMENT_MEMO = MomentMemo()


def clear_search_memo() -> None:
    """Drop every memoised moment (and the distribution references)."""
    _MOMENT_MEMO.clear()


def search_memo_stats() -> dict:
    """Hit/miss counters and sizes of the process-wide memo."""
    return _MOMENT_MEMO.stats()


def analyze_sita_cached(
    arrival_rate: float,
    dist: ServiceDistribution,
    cutoff: float,
    host_speeds: Sequence[float] | None = None,
    memo: MomentMemo | None = None,
) -> SITAAnalysis:
    """Memoised 2-host :func:`~repro.analysis.sita_analysis.analyze_sita`.

    The truncated-distribution moments are looked up in (or inserted
    into) the memo, or read off the power-sum table of an ``Empirical``;
    the per-load M/G/1 arithmetic is then replayed with
    the exact floating-point operations of the direct path, so the
    returned analysis — every field, including the nested
    :class:`~repro.analysis.mg1.MG1Metrics` — is bit-identical to
    ``analyze_sita(arrival_rate, dist, [cutoff], host_speeds)``,
    including its ``ValueError`` on infeasible cutoffs.
    """
    c = float(cutoff)
    c_arr = np.asarray([c], dtype=float)
    if host_speeds is None:
        speeds = np.ones(2)
    else:
        speeds = np.asarray(host_speeds, dtype=float)
        if speeds.shape != (2,):
            raise ValueError(
                f"host_speeds must have 2 entries, got {speeds.shape}"
            )
        if np.any(speeds <= 0):
            raise ValueError("host speeds must be positive")
    mm = (_MOMENT_MEMO if memo is None else memo).get(dist, c)

    hosts: list[SITAHost] = []
    mean_s = 0.0
    mean_s2 = 0.0
    mean_wslow = 0.0
    mean_resp = 0.0
    mean_wait = 0.0
    for i, (lo, hi, im) in enumerate(
        ((0.0, c, mm.short), (c, math.inf, mm.long))
    ):
        if im is None:
            hosts.append(
                SITAHost(
                    host=i, lo=lo, hi=hi, job_fraction=0.0,
                    load_fraction=0.0, utilisation=0.0, mg1=None,
                )
            )
            continue
        v = float(speeds[i])
        # Replicate analyze_sita's served distribution: for v != 1 it is
        # ScaledDistribution(cond, 1/v), whose moments are scale**j times
        # the conditional's — the same ops on the memoised scalars.
        if v == 1.0:
            served_mean, served_m2, served_m3 = im.mean, im.m2, im.m3
            s_inv1, s_inv2 = im.inv1, im.inv2
        else:
            scale = 1.0 / v
            served_mean = scale**1 * im.mean
            served_m2 = scale**2 * im.m2
            served_m3 = scale**3 * im.m3
            s_inv1 = scale**-1 * im.inv1 if math.isfinite(im.inv1) else math.inf
            s_inv2 = scale**-2 * im.inv2 if math.isfinite(im.inv2) else math.inf
        lam_i = arrival_rate * im.p
        rho_i = lam_i * served_mean
        if rho_i >= 1.0:
            raise ValueError(
                f"infeasible cutoffs {c_arr}: host {i} utilisation {rho_i:.4f} >= 1"
            )
        # mg1_metrics(lam_i, served), inlined on the memoised moments —
        # including utilisation()'s positivity check, which the direct
        # path hits first for a non-positive arrival rate.
        if lam_i <= 0:
            raise ValueError(f"arrival rate must be positive, got {lam_i}")
        ew = lam_i * served_m2 / (2.0 * (1.0 - rho_i))
        ew2 = 2.0 * ew**2 + lam_i * served_m3 / (3.0 * (1.0 - rho_i))
        mean_wslow_i = ew * s_inv1
        var_slow_i = (
            ew2 * s_inv2 - mean_wslow_i**2 if math.isfinite(s_inv2) else math.inf
        )
        m = MG1Metrics(
            arrival_rate=lam_i,
            utilisation=rho_i,
            mean_wait=ew,
            second_moment_wait=ew2,
            mean_response=ew + served_mean,
            mean_queue_length=lam_i * ew,
            mean_waiting_slowdown=mean_wslow_i,
            mean_slowdown=1.0 + mean_wslow_i,
            var_slowdown=var_slow_i,
        )
        # Slowdown uses the *nominal* size: S = (W + X/v)/X = W/X + 1/v.
        es_i = ew * im.inv1 + 1.0 / v
        hosts.append(
            SITAHost(
                host=i,
                lo=lo,
                hi=hi,
                job_fraction=im.p,
                load_fraction=im.work / mm.dist_mean,
                utilisation=rho_i,
                mg1=m,
                class_mean_slowdown=es_i,
            )
        )
        es2 = (
            ew2 * im.inv2
            + (2.0 / v) * ew * im.inv1
            + 1.0 / v**2
        )
        mean_s += im.p * es_i
        mean_s2 += im.p * es2
        mean_wslow += im.p * (ew * im.inv1)
        mean_resp += im.p * m.mean_response
        mean_wait += im.p * ew
    var_s = (
        mean_s2 - mean_s**2
        if math.isfinite(mean_s2) and math.isfinite(mean_s)
        else math.inf
    )
    return SITAAnalysis(
        cutoffs=(c,),
        hosts=tuple(hosts),
        mean_slowdown=mean_s,
        var_slowdown=var_s,
        mean_waiting_slowdown=mean_wslow,
        mean_response=mean_resp,
        mean_wait=mean_wait,
    )


# ----------------------------------------------------------------------
# analytic pair search
# ----------------------------------------------------------------------


def _finite_upper(dist: ServiceDistribution) -> float:
    u = dist.upper
    return u if math.isfinite(u) else dist.ppf(1.0 - 1e-12)


@kernel_contract(
    shapes={"return": ("m",)},
    dtypes={"return": "float64"},
    writes=(),
    contiguous=("return",),
)
def _shared_axis(dist: ServiceDistribution, n_grid: int) -> np.ndarray:
    """The load-independent log-cutoff axis every search point shares.

    Spanning the full support (rather than the per-load feasible range)
    is what lets the memo serve *every* load of a sweep: infeasible
    points simply score ``inf``, and the refinement step recovers the
    resolution a load-tailored grid would have had.
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
    memo: MomentMemo | None = None,
) -> dict[str, float]:
    """Derive any of the 2-host SITA-U cutoffs off one shared axis.

    Evaluates the memoised analysis once per axis point; the ``"opt"``
    argmin+refine and the ``"fair"`` sign-change bracket+``brentq`` then
    read the same evaluations.  Returns ``{target: cutoff}`` for each
    requested target, matching the historical ``opt_cutoff`` /
    ``fair_cutoff`` results to search tolerance.
    """
    if not want:
        raise ValueError("want must name at least one cutoff target")
    unknown = [t for t in want if t not in ("opt", "fair")]
    if unknown:
        raise ValueError(f"unknown cutoff target(s) {unknown!r}")
    if host_speeds is None and not 0.0 < load < 1.0:
        raise ValueError(f"system load must be in (0,1), got {load}")
    lam = 2.0 * load / dist.mean

    def evaluate(c: float) -> SITAAnalysis | None:
        try:
            return analyze_sita_cached(
                lam, dist, c, host_speeds=host_speeds, memo=memo
            )
        except ValueError:
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
