"""Waiting-time *distributions* via Laplace-transform inversion.

The Pollaczek–Khinchine machinery in :mod:`.mg1` gives moments; this
module gives the full FCFS waiting-time distribution, so tail metrics
(the p95/p99 slowdowns the simulator reports) have analytic
counterparts:

* :class:`LaplaceEvaluator` — ``X*(s) = E[e^{−sX}]`` for any
  :class:`~repro.workloads.distributions.ServiceDistribution`: closed
  form for the exponential family, a fixed Stieltjes quadrature grid
  otherwise (vectorised over many ``s``);
* :func:`mg1_waiting_cdf` — the PK *transform* form
  ``W*(s) = (1−ρ)s / (s − λ(1 − X*(s)))`` inverted with the classic
  Abate–Whitt Euler algorithm (binomially accelerated alternating
  series);
* :func:`mg1_waiting_slowdown_ccdf` — ``P(W/X > y)`` by conditioning on
  the tagged job's size (independent of its wait under FCFS/PASTA):
  ``∫ P(W > y·x) dF(x)`` over a quantile grid — the analytic tail of the
  paper's slowdown metric.

Accuracy is validated against the exact M/M/1 waiting CDF
(``F(t) = 1 − ρ·e^{−μ(1−ρ)t}``) and against simulation in
``tests/analysis/test_transforms.py``.
"""

from __future__ import annotations

import math

import numpy as np

from ..workloads.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    Hyperexponential,
    ServiceDistribution,
)
from .mg1 import utilisation

__all__ = [
    "LaplaceEvaluator",
    "mg1_waiting_cdf",
    "mg1_waiting_slowdown_ccdf",
    "mg1_waiting_slowdown_quantile",
]


class LaplaceEvaluator:
    """Evaluate ``X*(s) = E[e^{−sX}]`` for a service distribution.

    Closed forms where they exist; otherwise a 4000-point log-spaced
    Stieltjes grid built once at construction, so evaluating the
    transform at the many complex points an inversion needs stays cheap.
    Supports complex ``s`` with ``Re(s) >= 0``.
    """

    def __init__(self, dist: ServiceDistribution, n_grid: int = 4000) -> None:
        self.dist = dist
        self._kind = "numeric"
        if isinstance(dist, Exponential):
            self._kind = "exponential"
        elif isinstance(dist, Erlang):
            self._kind = "erlang"
        elif isinstance(dist, Hyperexponential):
            self._kind = "hyperexp"
        elif isinstance(dist, Deterministic):
            self._kind = "deterministic"
        else:
            lo = max(dist.lower, dist.ppf(1e-12), 1e-300)
            hi = dist.upper if math.isfinite(dist.upper) else dist.ppf(1.0 - 1e-12)
            if hi <= lo:
                # Degenerate numeric support: treat as a point mass.
                self._kind = "deterministic-numeric"
                self._atom = lo
                return
            edges = np.exp(np.linspace(math.log(lo), math.log(hi), n_grid + 1))
            cdf = np.array([dist.cdf(x) for x in edges])
            self._weights = np.diff(cdf)
            self._points = np.sqrt(edges[:-1] * edges[1:])
            # Mass the grid may have missed at the extremes.
            self._w_lo = cdf[0]
            self._w_hi = 1.0 - cdf[-1]

    def __call__(self, s: complex) -> complex:
        return complex(self.batch(np.asarray([s], dtype=complex))[0])

    def batch(self, s: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over an array of complex ``s``."""
        s = np.asarray(s, dtype=complex)
        if self._kind == "exponential":
            mu = 1.0 / self.dist.mu
            return mu / (mu + s)
        if self._kind == "erlang":
            stage = 1.0 / (self.dist.mu / self.dist.n)
            return (stage / (stage + s)) ** self.dist.n
        if self._kind == "hyperexp":
            rates = 1.0 / self.dist.means
            return np.sum(
                self.dist.probs[None, :] * (rates[None, :] / (rates[None, :] + s[:, None])),
                axis=1,
            )
        if self._kind == "deterministic":
            return np.exp(-s * self.dist.value)
        if self._kind == "deterministic-numeric":
            return np.exp(-s * self._atom)
        out = np.empty(s.shape, dtype=complex)
        # Chunk so the (chunk × grid) matrix stays cache-friendly.
        chunk = max(1, 2_000_000 // self._points.size)
        for start in range(0, s.size, chunk):
            block = s[start : start + chunk, None]
            e = np.exp(-block * self._points[None, :])
            out[start : start + chunk] = e @ self._weights
            # Endpoint corrections: treat missed mass as atoms at the edges.
            out[start : start + chunk] += self._w_lo * e[:, 0] + self._w_hi * e[:, -1]
        return out


def _abate_whitt_euler_batch(
    transform_batch, ts: np.ndarray, m: int = 15, n: int = 30
) -> np.ndarray:
    """Invert a Laplace transform at every ``t > 0`` in ``ts`` (Abate–Whitt
    EULER), with one batched transform evaluation for all contour points.

    ``transform_batch`` maps a complex array to the transform values; uses
    the alternating series on the Bromwich contour with binomial (Euler)
    acceleration of the last ``m`` partial sums.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("inversion requires t > 0")
    a = 18.4  # controls the discretisation error (~1e-8)
    ks = np.arange(n + m + 1)
    # s[i, k] = a/(2 t_i) + i·kπ/t_i — all contour points, all targets.
    s = a / (2.0 * ts)[:, None] + 1j * (ks[None, :] * math.pi / ts[:, None])
    vals = transform_batch(s.ravel()).reshape(s.shape).real
    signs = np.where(ks % 2 == 0, 1.0, -1.0)
    terms = vals * signs[None, :]
    terms[:, 0] *= 0.5
    partial = np.cumsum(terms, axis=1)
    weights = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)
    accel = partial[:, n : n + m + 1] @ weights / weights.sum()
    return np.exp(a / 2.0) / ts * accel


def mg1_waiting_cdf(
    arrival_rate: float,
    dist: ServiceDistribution,
    t,
    evaluator: LaplaceEvaluator | None = None,
) -> np.ndarray:
    """``P(W <= t)`` for the M/G/1 FCFS waiting time, by PK inversion.

    ``t`` may be a scalar or array; ``t = 0`` returns the atom ``1 − ρ``.
    Pass a prebuilt ``evaluator`` to amortise the quadrature grid across
    many calls.
    """
    rho = utilisation(arrival_rate, dist)
    if rho >= 1.0:
        raise ValueError(f"unstable queue: utilisation {rho:.4f} >= 1")
    lt = evaluator if evaluator is not None else LaplaceEvaluator(dist)

    def w_over_s_batch(s: np.ndarray) -> np.ndarray:
        # W*(s)/s — the transform of the CDF.
        return (1.0 - rho) / (s - arrival_rate * (1.0 - lt.batch(s)))

    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(ts.shape)
    pos = ts > 0
    out[ts < 0] = 0.0
    out[ts == 0] = 1.0 - rho
    if np.any(pos):
        inverted = _abate_whitt_euler_batch(w_over_s_batch, ts[pos])
        out[pos] = np.clip(inverted, 0.0, 1.0)
    return out if np.ndim(t) else float(out[0])


def _interpolated_waiting_cdf(
    arrival_rate: float,
    dist: ServiceDistribution,
    evaluator: LaplaceEvaluator,
    t_min: float,
    t_max: float,
    n_grid: int = 200,
):
    """A cheap callable CDF: invert once on a log grid, interpolate after.

    The waiting CDF is smooth and monotone, so 200 grid inversions plus
    log-t interpolation reproduce it to ~1e-3 at a fraction of the cost of
    per-point inversion.
    """
    t_grid = np.logspace(math.log10(max(t_min, 1e-12)), math.log10(t_max), n_grid)
    cdf_grid = np.asarray(
        mg1_waiting_cdf(arrival_rate, dist, t_grid, evaluator=evaluator)
    )
    cdf_grid = np.maximum.accumulate(cdf_grid)
    log_t = np.log(t_grid)
    atom = mg1_waiting_cdf(arrival_rate, dist, 0.0, evaluator=evaluator)

    def cdf(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.interp(
            np.log(np.maximum(t, t_grid[0])), log_t, cdf_grid
        )
        out = np.where(t <= 0.0, np.where(t < 0.0, 0.0, atom), out)
        return out

    return cdf


def mg1_waiting_slowdown_ccdf(
    arrival_rate: float,
    dist: ServiceDistribution,
    y,
    n_quantiles: int = 200,
) -> np.ndarray:
    """``P(W/X > y)`` for a tagged M/G/1 job, by conditioning on its size.

    Under FCFS/PASTA a job's waiting time is independent of its own size,
    so ``P(W/X > y) = ∫ P(W > y·x) dF(x)``; the integral uses the size
    distribution's quantile grid and a grid-interpolated waiting CDF.
    The paper's response-based slowdown satisfies
    ``P(S > 1 + y) = P(W/X > y)``.
    """
    lt = LaplaceEvaluator(dist)
    qs = (np.arange(n_quantiles) + 0.5) / n_quantiles
    xs = np.array([dist.ppf(q) for q in qs])
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    pos = ys[ys > 0]
    out = np.empty(ys.shape)
    out[ys <= 0] = np.where(
        ys[ys <= 0] < 0, 1.0, utilisation(arrival_rate, dist)
    )
    if pos.size:
        t_min = float(pos.min() * xs.min())
        t_max = float(pos.max() * xs.max())
        cdf = _interpolated_waiting_cdf(arrival_rate, dist, lt, t_min, t_max)
        thresholds = np.outer(pos, xs)
        vals = 1.0 - cdf(thresholds.ravel()).reshape(thresholds.shape)
        out[ys > 0] = np.mean(vals, axis=1)
    return out if np.ndim(y) else float(out[0])


def mg1_waiting_slowdown_quantile(
    arrival_rate: float,
    dist: ServiceDistribution,
    q: float,
    n_quantiles: int = 200,
) -> float:
    """The ``q``-quantile of the waiting slowdown ``W/X`` (e.g. q = 0.95).

    Geometric bisection on :func:`mg1_waiting_slowdown_ccdf`; the analytic
    counterpart of the simulator's ``p95_slowdown``/``p99_slowdown``
    (which are response-based: ``p_q(S) = 1 + p_q(W/X)``).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0,1), got {q}")
    target = 1.0 - q

    # P(W/X > 0) = P(W > 0) = rho.
    rho = utilisation(arrival_rate, dist)
    if target >= rho:
        return 0.0
    # One batched CCDF curve on a wide log grid of y, then interpolate.
    y_grid = np.logspace(-6.0, 9.0, 160)
    ccdf_vals = np.asarray(
        mg1_waiting_slowdown_ccdf(arrival_rate, dist, y_grid, n_quantiles)
    )
    if ccdf_vals[-1] > target:
        raise ValueError("slowdown quantile out of numeric range")
    return float(np.exp(np.interp(-target, -ccdf_vals, np.log(y_grid))))
