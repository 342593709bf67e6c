"""Service-time distributions with full moment machinery.

Every task-assignment result in Schroeder & Harchol-Balter (HPDC 2000)
ultimately rests on moments of the job service-time distribution:

* the Pollaczek–Khinchine formula needs ``E[X]``, ``E[X^2]`` (and ``E[X^3]``
  for the second waiting-time moment);
* the slowdown metric needs the *inverse* moments ``E[1/X]`` and ``E[1/X^2]``
  (a job's waiting time is independent of its own size under FCFS/PASTA);
* SITA cutoff analysis needs *partial* moments ``E[X^j ; a < X <= b]`` so the
  per-host load and variability can be computed for any size interval.

This module provides an abstract :class:`ServiceDistribution` with exact
closed-form (or numerically exact) implementations of all of the above for
the distributions used in the paper and its surrounding literature:

* :class:`BoundedPareto` — the canonical heavy-tailed supercomputing
  workload model (used by the paper's own analysis, ref [11]);
* :class:`Pareto` — the unbounded variant (ref [10]);
* :class:`Exponential`, :class:`Hyperexponential`, :class:`Erlang` — the
  classical queueing models the paper contrasts against;
* :class:`Lognormal`, :class:`Weibull` — alternative empirical fits;
* :class:`Deterministic` — degenerate sanity-check distribution;
* :class:`Empirical` — an observed trace of service times (the paper's
  trace-driven mode).

All distributions are immutable (an :class:`Empirical` builds its
power-sum table on first use, a cache that changes no result); sampling
takes an explicit :class:`numpy.random.Generator` so experiments are
reproducible.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ..solvers import brentq, ndtr, ndtri

__all__ = [
    "ServiceDistribution",
    "ScaledDistribution",
    "BoundedPareto",
    "Pareto",
    "Exponential",
    "Hyperexponential",
    "Erlang",
    "Lognormal",
    "Weibull",
    "Deterministic",
    "Empirical",
    "ConditionalDistribution",
]


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` to a :class:`numpy.random.Generator`."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _as_host_speeds(host_speeds, n_hosts: int) -> np.ndarray:
    """Per-host speeds as a ``(n_hosts,)`` float array: ones by default,
    otherwise checked finite and positive (``ValueError`` if not).

    The one entry check of the simulators and the SITA analysis; it
    lives here, below both layers, so either can import it.
    """
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    if host_speeds is None:
        return np.ones(n_hosts)
    speeds = np.asarray(host_speeds, dtype=float)
    if speeds.shape != (n_hosts,):
        raise ValueError(f"host_speeds must have {n_hosts} entries, got {speeds.shape}")
    if not (np.isfinite(speeds).all() and (speeds > 0.0).all()):
        raise ValueError(f"host speeds must be positive and finite, got {speeds.tolist()}")
    return speeds


def _quad_partial_moment(pdf, j: float, lo: float, hi: float, scale: float) -> float:
    """Quadrature fallback for ``∫ x^j pdf(x) dx`` on ``(lo, hi]``.

    Used where a family's closed-form incomplete-gamma identity does not
    apply (strongly negative ``j``).  ``scale`` bounds the effective upper
    integration limit for unbounded supports.
    """
    from scipy import integrate

    if math.isinf(hi):
        hi = lo + 50.0 * scale  # the exp tail beyond this is negligible
    val, _ = integrate.quad(lambda x: x**j * pdf(x), lo, hi, limit=200)
    return val


class ServiceDistribution(ABC):
    """A positive-valued job service-time distribution.

    Subclasses implement :meth:`moment`, :meth:`partial_moment`,
    :meth:`cdf`, :meth:`ppf`, :meth:`sample`, and the support bounds
    :attr:`lower` / :attr:`upper`.  Everything else (means, SCV, load
    fractions, conditional views) derives from those primitives.
    """

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def lower(self) -> float:
        """Infimum of the support (may be 0)."""

    @property
    @abstractmethod
    def upper(self) -> float:
        """Supremum of the support (``math.inf`` if unbounded)."""

    @abstractmethod
    def moment(self, j: float) -> float:
        """Return ``E[X^j]``.

        ``j`` may be negative (inverse moments) or fractional.  Raises
        :class:`ValueError` if the moment diverges.
        """

    @abstractmethod
    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        """Return the *unconditional* partial moment ``E[X^j ; lo < X <= hi]``.

        This is ``∫_{lo}^{hi} x^j dF(x)`` — mass-weighted, so
        ``partial_moment(0, lo, hi) == P(lo < X <= hi)`` and
        ``partial_moment(j, lower, upper) == moment(j)``.
        """

    @abstractmethod
    def cdf(self, x: float) -> float:
        """Return ``P(X <= x)``."""

    @abstractmethod
    def ppf(self, q: float) -> float:
        """Return the ``q``-quantile (inverse CDF), ``q`` in [0, 1]."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw ``n`` i.i.d. service times as a float array."""

    # ------------------------------------------------------------------
    # derived moments
    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        """``E[X]``."""
        return self.moment(1)

    @property
    def second_moment(self) -> float:
        """``E[X^2]``."""
        return self.moment(2)

    @property
    def third_moment(self) -> float:
        """``E[X^3]``."""
        return self.moment(3)

    @property
    def variance(self) -> float:
        """``Var[X]``."""
        return self.second_moment - self.mean**2

    @property
    def scv(self) -> float:
        """Squared coefficient of variation ``C^2 = Var[X]/E[X]^2``.

        The paper reports ``C^2 ≈ 43`` for the PSC C90 trace, the key
        driver of every result.
        """
        return self.variance / self.mean**2

    @property
    def inverse_moment(self) -> float:
        """``E[1/X]`` — converts waiting time into waiting slowdown."""
        return self.moment(-1)

    @property
    def inverse_second_moment(self) -> float:
        """``E[1/X^2]`` — used for the variance of slowdown."""
        return self.moment(-2)

    # ------------------------------------------------------------------
    # interval machinery (the SITA workhorses)
    # ------------------------------------------------------------------

    def prob_interval(self, lo: float, hi: float) -> float:
        """``P(lo < X <= hi)``."""
        return self.partial_moment(0.0, lo, hi)

    def load_fraction(self, lo: float, hi: float) -> float:
        """Fraction of total *work* contributed by jobs in ``(lo, hi]``.

        SITA-E picks its cutoff so this equals ``1/h`` per interval; the
        paper's structural fact is that the top 1.3 % of C90 jobs carry a
        load fraction of one half.
        """
        return self.partial_moment(1.0, lo, hi) / self.mean

    def conditional(self, lo: float, hi: float) -> "ServiceDistribution":
        """Return the distribution of ``X`` conditioned on ``lo < X <= hi``.

        This is the service-time distribution *seen by one SITA host*.
        """
        return ConditionalDistribution(self, lo, hi)

    def scaled(self, factor: float) -> "ServiceDistribution":
        """Return the distribution of ``factor · X``.

        ``dist.scaled(1/v)`` is what a speed-``v`` host experiences.
        """
        return ScaledDistribution(self, factor)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Return the Table-1 style characteristics of the distribution."""
        return {
            "mean": self.mean,
            "min": self.lower,
            "max": self.upper,
            "scv": self.scv,
        }

    def __repr__(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, np.ndarray):  # by shape and range
                return (
                    f"array(shape={value.shape}, "
                    f"range=[{value.min():.6g}, {value.max():.6g}])"
                )
            if isinstance(value, ServiceDistribution):
                return repr(value)
            return f"{value:.6g}"

        params = ", ".join(
            f"{k}={fmt(v)}" for k, v in vars(self).items() if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


# ----------------------------------------------------------------------
# Bounded Pareto
# ----------------------------------------------------------------------


class BoundedPareto(ServiceDistribution):
    """Bounded Pareto ``B(k, p, alpha)`` on ``[k, p]``.

    Density ``f(x) = alpha * k^alpha * x^{-alpha-1} / (1 - (k/p)^alpha)``.
    This is the distribution used throughout Harchol-Balter et al.'s SITA
    analysis [11]: heavy-tailed body with a finite maximum, so *all*
    moments (positive and negative) exist in closed form.

    Parameters
    ----------
    k:
        Smallest possible service time (> 0).
    p:
        Largest possible service time (> k).
    alpha:
        Tail exponent.  Supercomputing workloads empirically show
        ``alpha`` near 1 (very heavy-tailed).
    """

    def __init__(self, k: float, p: float, alpha: float) -> None:
        if not (k > 0 and p > k):
            raise ValueError(f"require 0 < k < p, got k={k}, p={p}")
        if alpha <= 0:
            raise ValueError(f"require alpha > 0, got {alpha}")
        self.k = float(k)
        self.p = float(p)
        self.alpha = float(alpha)
        # normalising constant: P(X >= x) uses k^alpha x^-alpha scaled by this
        self._norm = 1.0 - (self.k / self.p) ** self.alpha

    @property
    def lower(self) -> float:
        return self.k

    @property
    def upper(self) -> float:
        return self.p

    def moment(self, j: float) -> float:
        return self.partial_moment(j, self.k, self.p)

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        lo = max(float(lo), self.k)
        hi = min(float(hi), self.p)
        if hi <= lo:
            return 0.0
        a, k = self.alpha, self.k
        log_k = math.log(k)
        if abs(j - a) < 1e-12:
            c = a * math.exp(a * log_k) / self._norm
            return c * math.log(hi / lo)

        # c * (hi^{j-a} - lo^{j-a}) / (j-a) with c = a k^a / norm; combine the
        # k^a factor into each power term in log space so extreme alpha (the
        # fit routine probes alpha up to 50) cannot overflow a float.
        def term(x: float) -> float:
            e = a * log_k + (j - a) * math.log(x)
            return math.exp(e) if e > -745.0 else 0.0

        return a / (self._norm * (j - a)) * (term(hi) - term(lo))

    def cdf(self, x: float) -> float:
        if x < self.k:
            return 0.0
        if x >= self.p:
            return 1.0
        return (1.0 - (self.k / x) ** self.alpha) / self._norm

    def ppf(self, q: float) -> float:
        q = np.clip(q, 0.0, 1.0)
        # invert q = (1 - (k/x)^a) / norm
        inner = 1.0 - q * self._norm
        return self.k * inner ** (-1.0 / self.alpha)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        u = rng.random(n)
        inner = 1.0 - u * self._norm
        return self.k * inner ** (-1.0 / self.alpha)

    @classmethod
    def fit(cls, mean: float, scv: float, upper: float) -> "BoundedPareto":
        """Calibrate ``(k, alpha)`` to hit a target mean and SCV given ``p``.

        This is how the synthetic C90/J90/CTC workloads are matched to the
        paper's Table 1: we know the mean service requirement, the squared
        coefficient of variation and the maximum; we solve the two moment
        equations for the two free parameters.

        The solver is a nested bisection: for each candidate ``alpha`` the
        inner solve finds the (unique) ``k`` matching the mean — the mean is
        strictly increasing in ``k`` — and the outer solve adjusts ``alpha``
        to match the SCV, which is strictly decreasing in ``alpha`` at fixed
        mean (heavier tail, more variability).

        Raises
        ------
        ValueError
            If no bounded Pareto with the given ``upper`` can achieve the
            target moments.  The family's SCV is capped for a given
            ``upper/mean`` ratio (the alpha → 0 limit); e.g. with
            ``upper/mean ≈ 9.6`` the largest reachable SCV is ≈ 3.8.
        """
        if mean <= 0 or scv <= 0 or upper <= mean:
            raise ValueError("require mean > 0, scv > 0, upper > mean")
        m2_target = (scv + 1.0) * mean**2
        log_k_lo = math.log(upper) - 60.0
        log_k_hi = math.log(upper) - 1e-9

        def solve_k(alpha: float) -> float | None:
            """k matching the mean at this alpha, or None if unreachable."""

            def mean_err(log_k: float) -> float:
                return cls(math.exp(log_k), upper, alpha).mean - mean

            lo, hi = log_k_lo, log_k_hi
            if mean_err(lo) > 0.0:
                return None  # even the tiniest k gives too large a mean
            return brentq(mean_err, lo, hi, xtol=1e-13)

        def m2_err(alpha: float) -> float:
            log_k = solve_k(alpha)
            if log_k is None:
                return math.inf
            return cls(math.exp(log_k), upper, alpha).second_moment - m2_target

        alpha_lo, alpha_hi = 1e-4, 50.0
        err_lo = m2_err(alpha_lo)
        err_hi = m2_err(alpha_hi)
        if not (err_lo > 0.0 > err_hi) and not (err_lo < 0.0 < err_hi):
            max_scv = (m2_err(alpha_lo) + m2_target) / mean**2 - 1.0
            raise ValueError(
                f"could not fit BoundedPareto(mean={mean}, scv={scv}, "
                f"upper={upper}): reachable SCV range at this upper/mean "
                f"ratio tops out near {max_scv:.3g}"
            )
        alpha = brentq(m2_err, alpha_lo, alpha_hi, xtol=1e-12)
        log_k = solve_k(alpha)
        assert log_k is not None
        return cls(math.exp(log_k), upper, alpha)

    @classmethod
    def fit_min(cls, lower: float, mean: float, scv: float) -> "BoundedPareto":
        """Calibrate ``(alpha, p)`` to hit a target mean and SCV given ``k``.

        The alternative calibration: pin the *smallest* job size and let the
        maximum fall out of the moment equations.  This is the right mode
        for reproducing the paper: the direction of every SITA-U result —
        that underloading the short-job host is both slowdown-optimal and
        fair — is driven by the presence of very small jobs (large
        ``E[1/X]``), so the minimum must be honoured; the maximum is a
        single sample extreme with far less influence.

        Same nested-bisection strategy as :meth:`fit`: for fixed ``alpha``
        the mean is strictly increasing in ``p``; at the matched mean the
        SCV is strictly decreasing in ``alpha``.
        """
        if lower <= 0 or mean <= lower or scv <= 0:
            raise ValueError("require lower > 0, mean > lower, scv > 0")
        m2_target = (scv + 1.0) * mean**2
        log_p_lo = math.log(lower) + 1e-9
        log_p_hi = math.log(lower) + 80.0

        def solve_p(alpha: float) -> float | None:
            def mean_err(log_p: float) -> float:
                return cls(lower, math.exp(log_p), alpha).mean - mean

            if mean_err(log_p_hi) < 0.0:
                return None  # even a huge p cannot reach the mean
            return brentq(mean_err, log_p_lo, log_p_hi, xtol=1e-13)

        def m2_err(alpha: float) -> float:
            log_p = solve_p(alpha)
            if log_p is None:
                return math.inf
            return cls(lower, math.exp(log_p), alpha).second_moment - m2_target

        alpha_lo, alpha_hi = 1e-4, 50.0
        err_lo, err_hi = m2_err(alpha_lo), m2_err(alpha_hi)
        if not (err_lo > 0.0 > err_hi) and not (err_lo < 0.0 < err_hi):
            raise ValueError(
                f"could not fit BoundedPareto(lower={lower}, mean={mean}, "
                f"scv={scv}): target outside the family's reachable range"
            )
        alpha = brentq(m2_err, alpha_lo, alpha_hi, xtol=1e-12)
        log_p = solve_p(alpha)
        assert log_p is not None
        return cls(lower, math.exp(log_p), alpha)


class Pareto(ServiceDistribution):
    """Unbounded Pareto on ``[k, ∞)`` with tail exponent ``alpha``.

    ``P(X > x) = (k/x)^alpha``.  Moments ``E[X^j]`` exist only for
    ``j < alpha``; the paper's companion analysis [10] uses this model.
    """

    def __init__(self, k: float, alpha: float) -> None:
        if k <= 0 or alpha <= 0:
            raise ValueError(f"require k > 0 and alpha > 0, got k={k}, alpha={alpha}")
        self.k = float(k)
        self.alpha = float(alpha)

    @property
    def lower(self) -> float:
        return self.k

    @property
    def upper(self) -> float:
        return math.inf

    def moment(self, j: float) -> float:
        if j >= self.alpha:
            raise ValueError(
                f"E[X^{j}] diverges for Pareto with alpha={self.alpha}"
            )
        return self.alpha * self.k**j / (self.alpha - j)

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        lo = max(float(lo), self.k)
        hi = float(hi)
        if hi <= lo:
            return 0.0
        a, k = self.alpha, self.k
        c = a * k**a
        if math.isinf(hi):
            if j >= a:
                raise ValueError(f"partial moment to infinity diverges for j={j}")
            return c * lo ** (j - a) / (a - j)
        if abs(j - a) < 1e-12:
            return c * math.log(hi / lo)
        return c * (hi ** (j - a) - lo ** (j - a)) / (j - a)

    def cdf(self, x: float) -> float:
        if x < self.k:
            return 0.0
        return 1.0 - (self.k / x) ** self.alpha

    def ppf(self, q: float) -> float:
        q = np.clip(q, 0.0, 1.0 - 1e-15)
        return self.k * (1.0 - q) ** (-1.0 / self.alpha)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        u = rng.random(n)
        return self.k * (1.0 - u) ** (-1.0 / self.alpha)


# ----------------------------------------------------------------------
# Exponential family
# ----------------------------------------------------------------------


class Exponential(ServiceDistribution):
    """Exponential with given mean (``C^2 = 1``).

    The memoryless baseline: under exponential service times the classical
    result says Least-Work-Left is the best policy, which is exactly the
    regime the paper shows does *not* describe supercomputing workloads.
    """

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"require mean > 0, got {mean}")
        self.mu = float(mean)

    @property
    def lower(self) -> float:
        return 0.0

    @property
    def upper(self) -> float:
        return math.inf

    def moment(self, j: float) -> float:
        from scipy import special

        if j <= -1:
            raise ValueError(f"E[X^{j}] diverges for Exponential")
        return self.mu**j * special.gamma(j + 1.0)

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        from scipy import special

        lo = max(float(lo), 0.0)
        if hi <= lo:
            return 0.0
        if j <= -1 and lo == 0.0:
            raise ValueError(f"partial moment with j={j} diverges at 0")
        # E[X^j; lo<X<=hi] = mu^j [ Γ(j+1, lo/mu) - Γ(j+1, hi/mu) ] with
        # upper incomplete gamma; use gammaincc (regularised upper).
        a = j + 1.0
        if a <= 0.0:
            # Incomplete-gamma identities need a > 0; away from 0 the
            # integral is finite, so fall back to quadrature.
            return _quad_partial_moment(
                lambda x: math.exp(-x / self.mu) / self.mu, j, lo, hi, self.mu
            )
        scale = self.mu**j * special.gamma(a)
        top = 0.0 if math.isinf(hi) else special.gammaincc(a, hi / self.mu)
        return scale * (special.gammaincc(a, lo / self.mu) - top)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return 1.0 - math.exp(-x / self.mu)

    def ppf(self, q: float) -> float:
        q = np.clip(q, 0.0, 1.0 - 1e-15)
        return -self.mu * math.log(1.0 - q)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        return rng.exponential(self.mu, size=n)


class Hyperexponential(ServiceDistribution):
    """Mixture of exponentials — the standard high-variability (C² > 1) model.

    Parameters
    ----------
    probs:
        Branch probabilities (sum to 1).
    means:
        Mean of the exponential in each branch.
    """

    def __init__(self, probs, means) -> None:
        p = np.asarray(probs, dtype=float)
        m = np.asarray(means, dtype=float)
        if p.shape != m.shape or p.ndim != 1 or p.size == 0:
            raise ValueError("probs and means must be equal-length 1-D arrays")
        if not math.isclose(p.sum(), 1.0, rel_tol=1e-9):
            raise ValueError(f"probs must sum to 1, got {p.sum()}")
        if np.any(p < 0) or np.any(m <= 0):
            raise ValueError("probs must be >= 0 and means > 0")
        self.probs = p
        self.means = m

    @property
    def lower(self) -> float:
        return 0.0

    @property
    def upper(self) -> float:
        return math.inf

    def moment(self, j: float) -> float:
        from scipy import special

        if j <= -1:
            raise ValueError(f"E[X^{j}] diverges for Hyperexponential")
        return float(np.sum(self.probs * self.means**j) * special.gamma(j + 1.0))

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        total = 0.0
        for p, m in zip(self.probs, self.means):
            total += p * Exponential(m).partial_moment(j, lo, hi)
        return total

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return float(np.sum(self.probs * (1.0 - np.exp(-x / self.means))))

    def ppf(self, q: float) -> float:
        q = float(np.clip(q, 0.0, 1.0 - 1e-15))
        if q <= 0.0:
            return 0.0
        hi = float(np.max(self.means)) * max(1.0, -math.log(1.0 - q)) * 2.0 + 1.0
        while self.cdf(hi) < q:
            hi *= 2.0
        return brentq(lambda x: self.cdf(x) - q, 0.0, hi, xtol=1e-12)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        branch = rng.choice(self.probs.size, size=n, p=self.probs)
        return rng.exponential(self.means[branch])

    @classmethod
    def fit_balanced(cls, mean: float, scv: float) -> "Hyperexponential":
        """Two-phase H2 with balanced means matching a target mean and SCV ≥ 1.

        Uses the standard balanced-means construction: ``p1*m1 = p2*m2``.
        """
        if scv < 1.0:
            raise ValueError(f"H2 requires scv >= 1, got {scv}")
        if scv == 1.0:
            return cls([0.5, 0.5], [mean, mean])
        r = math.sqrt((scv - 1.0) / (scv + 1.0))
        p1 = (1.0 + r) / 2.0
        p2 = 1.0 - p1
        m1 = mean / (2.0 * p1)
        m2 = mean / (2.0 * p2)
        return cls([p1, p2], [m1, m2])


class Erlang(ServiceDistribution):
    """Erlang-``n`` (sum of ``n`` i.i.d. exponentials), ``C^2 = 1/n``.

    Low-variability model; also the *interarrival* distribution seen by one
    host under Round-Robin splitting of a Poisson stream (E_h/G/1).
    """

    def __init__(self, n: int, mean: float) -> None:
        if n < 1 or int(n) != n:
            raise ValueError(f"require integer n >= 1, got {n}")
        if mean <= 0:
            raise ValueError(f"require mean > 0, got {mean}")
        self.n = int(n)
        self.mu = float(mean)  # overall mean; each stage has mean mu/n

    @property
    def lower(self) -> float:
        return 0.0

    @property
    def upper(self) -> float:
        return math.inf

    def moment(self, j: float) -> float:
        from scipy import special

        if j <= -self.n:
            raise ValueError(f"E[X^{j}] diverges for Erlang-{self.n}")
        stage = self.mu / self.n
        return stage**j * special.gamma(self.n + j) / special.gamma(self.n)

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        from scipy import special

        lo = max(float(lo), 0.0)
        if hi <= lo:
            return 0.0
        a = self.n + j
        stage = self.mu / self.n
        if a <= 0:
            if lo == 0.0:
                raise ValueError(f"partial moment with j={j} diverges at 0")
            norm = stage**self.n * special.gamma(self.n)
            return _quad_partial_moment(
                lambda x: x ** (self.n - 1) * math.exp(-x / stage) / norm,
                j, lo, hi, stage,
            )
        scale = stage**j * special.gamma(a) / special.gamma(self.n)
        top = 0.0 if math.isinf(hi) else special.gammaincc(a, hi / stage)
        return scale * (special.gammaincc(a, lo / stage) - top)

    def cdf(self, x: float) -> float:
        from scipy import special

        if x <= 0:
            return 0.0
        return float(special.gammainc(self.n, x * self.n / self.mu))

    def ppf(self, q: float) -> float:
        from scipy import special

        q = float(np.clip(q, 0.0, 1.0 - 1e-15))
        return float(special.gammaincinv(self.n, q) * self.mu / self.n)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        return rng.gamma(self.n, self.mu / self.n, size=n)


# ----------------------------------------------------------------------
# Lognormal / Weibull
# ----------------------------------------------------------------------


class Lognormal(ServiceDistribution):
    """Lognormal with underlying normal parameters ``mu_log``, ``sigma_log``."""

    def __init__(self, mu_log: float, sigma_log: float) -> None:
        if sigma_log <= 0:
            raise ValueError(f"require sigma_log > 0, got {sigma_log}")
        self.mu_log = float(mu_log)
        self.sigma_log = float(sigma_log)

    @property
    def lower(self) -> float:
        return 0.0

    @property
    def upper(self) -> float:
        return math.inf

    def moment(self, j: float) -> float:
        return math.exp(j * self.mu_log + 0.5 * j**2 * self.sigma_log**2)

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        lo = max(float(lo), 0.0)
        if hi <= lo:
            return 0.0

        def phi_arg(x: float) -> float:
            return (math.log(x) - self.mu_log - j * self.sigma_log**2) / self.sigma_log

        top = 1.0 if math.isinf(hi) else ndtr(phi_arg(hi))
        bot = 0.0 if lo == 0.0 else ndtr(phi_arg(lo))
        return self.moment(j) * (top - bot)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return ndtr((math.log(x) - self.mu_log) / self.sigma_log)

    def ppf(self, q: float) -> float:
        q = float(np.clip(q, 1e-15, 1.0 - 1e-15))
        return math.exp(self.mu_log + self.sigma_log * ndtri(q))

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        return rng.lognormal(self.mu_log, self.sigma_log, size=n)

    @classmethod
    def fit(cls, mean: float, scv: float) -> "Lognormal":
        """Match a target mean and squared coefficient of variation."""
        if mean <= 0 or scv <= 0:
            raise ValueError("require mean > 0 and scv > 0")
        sigma2 = math.log(1.0 + scv)
        mu = math.log(mean) - sigma2 / 2.0
        return cls(mu, math.sqrt(sigma2))

    @classmethod
    def fit_truncated(
        cls, mean: float, scv: float, upper: float
    ) -> "ConditionalDistribution":
        """A lognormal truncated at ``upper`` matching the target mean and SCV.

        Models administratively capped runtimes — the CTC SP2 killed jobs
        at 12 hours, so observed runtimes are a right-truncated version of
        the underlying demand distribution.  Solves for the base
        ``(mu, sigma)`` such that the *truncated* moments hit the targets.
        """
        if mean <= 0 or scv <= 0 or upper <= mean:
            raise ValueError("require mean > 0, scv > 0, upper > mean")
        m2_target = (scv + 1.0) * mean**2

        # Nested bisection (same strategy as the BoundedPareto fits): at
        # fixed sigma the truncated mean is increasing in mu, and at the
        # matched mean the truncated SCV is increasing in sigma (up to a
        # plateau — the family's SCV is capped by the truncation point).
        def solve_mu(sigma: float) -> float:
            def mean_err(mu: float) -> float:
                base = cls(mu, sigma)
                if base.cdf(upper) <= 1e-300:
                    # All mass beyond the cap: the truncated mean limits to
                    # the cap itself, so the error is its positive extreme.
                    return upper - mean
                d = ConditionalDistribution(base, 0.0, upper)
                return d.mean - mean

            return brentq(mean_err, -40.0, 60.0, xtol=1e-12)

        def m2_err(sigma: float) -> float:
            d = ConditionalDistribution(cls(solve_mu(sigma), sigma), 0.0, upper)
            return d.second_moment - m2_target

        sigma_lo, sigma_hi = 1e-3, 8.0
        if m2_err(sigma_lo) > 0.0:
            raise ValueError(
                f"truncated Lognormal cannot have SCV as low as {scv} here"
            )
        if m2_err(sigma_hi) < 0.0:
            reachable = (m2_err(sigma_hi) + m2_target) / mean**2 - 1.0
            raise ValueError(
                f"could not fit truncated Lognormal(mean={mean}, scv={scv}, "
                f"upper={upper}): the truncation caps the reachable SCV "
                f"near {reachable:.3g}"
            )
        sigma = brentq(m2_err, sigma_lo, sigma_hi, xtol=1e-12)
        return ConditionalDistribution(cls(solve_mu(sigma), sigma), 0.0, upper)


class Weibull(ServiceDistribution):
    """Weibull with scale ``lam`` and shape ``k_shape`` (heavy-tailed for k<1)."""

    def __init__(self, lam: float, k_shape: float) -> None:
        if lam <= 0 or k_shape <= 0:
            raise ValueError("require lam > 0 and k_shape > 0")
        self.lam = float(lam)
        self.k_shape = float(k_shape)

    @property
    def lower(self) -> float:
        return 0.0

    @property
    def upper(self) -> float:
        return math.inf

    def moment(self, j: float) -> float:
        from scipy import special

        if j <= -self.k_shape:
            raise ValueError(f"E[X^{j}] diverges for Weibull(k={self.k_shape})")
        return self.lam**j * special.gamma(1.0 + j / self.k_shape)

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        from scipy import special

        lo = max(float(lo), 0.0)
        if hi <= lo:
            return 0.0
        a = 1.0 + j / self.k_shape
        if a <= 0:
            if lo == 0.0:
                raise ValueError(f"partial moment with j={j} diverges at 0")
            k, lam = self.k_shape, self.lam

            def pdf(x: float) -> float:
                return (k / lam) * (x / lam) ** (k - 1.0) * math.exp(-((x / lam) ** k))

            return _quad_partial_moment(pdf, j, lo, hi, lam)
        scale = self.lam**j * special.gamma(a)
        z_lo = (lo / self.lam) ** self.k_shape
        top = 0.0 if math.isinf(hi) else special.gammaincc(a, (hi / self.lam) ** self.k_shape)
        return scale * (special.gammaincc(a, z_lo) - top)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return 1.0 - math.exp(-((x / self.lam) ** self.k_shape))

    def ppf(self, q: float) -> float:
        q = float(np.clip(q, 0.0, 1.0 - 1e-15))
        return self.lam * (-math.log(1.0 - q)) ** (1.0 / self.k_shape)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        return self.lam * rng.weibull(self.k_shape, size=n)


class Deterministic(ServiceDistribution):
    """All jobs take exactly ``value`` seconds (``C^2 = 0``)."""

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"require value > 0, got {value}")
        self.value = float(value)

    @property
    def lower(self) -> float:
        return self.value

    @property
    def upper(self) -> float:
        return self.value

    def moment(self, j: float) -> float:
        return self.value**j

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        if lo < self.value <= hi:
            return self.value**j
        return 0.0

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def ppf(self, q: float) -> float:
        return self.value

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        return np.full(n, self.value)


# ----------------------------------------------------------------------
# Empirical (trace-driven)
# ----------------------------------------------------------------------


#: Powers tabulated by :class:`_PowerSums`, in row order.
_POWERS = (1, 2, 3, -1, -2)
_POWER_ROWS = {j: row for row, j in enumerate(_POWERS)}


class _PowerSums:
    """Cumulative power sums of one sorted sample, each row filled on first use.

    Row ``r`` of the ``(5, n + 1)`` table holds, for the power
    ``_POWERS[r]``:

    * ``j = 1, 2, 3`` — *prefix* sums, ``t[r, k] = Σ_{i<k} x_i^j``;
    * ``j = -1, -2`` — *suffix* sums, ``t[r, k] = Σ_{i>=k} x_i^j``.

    The power sum over any rank range ``[a, b)`` is then one subtraction.
    Each direction accumulates from the small terms up (ascending ``x``
    for positive powers, descending for negative ones), and a slice that
    reaches the dominant end of its power — a SITA long slice for
    ``x^j``, a short slice for ``1/x^j`` — is read straight off the table
    rather than as the difference of two large sums.  The table is one
    ``np.empty`` block, so a row nobody reads (the equal-load cutoffs
    read only ``j = 1``) costs neither its sum nor its page faults.
    """

    __slots__ = ("x", "_table", "_filled")

    def __init__(self, x: np.ndarray) -> None:
        self.x = x
        self._table = np.empty((len(_POWERS), x.size + 1))
        self._filled = [False] * len(_POWERS)

    def range_sum(self, j: float, a: int, b: int) -> float:
        """``Σ_{a <= i < b} x_i^j`` for ranks ``a < b`` of the sorted sample."""
        if j == 0:
            return float(b - a)
        row = _POWER_ROWS.get(j)
        if row is None:
            # Powers outside the table (fractional j) sum the slice.
            return float(np.sum(self.x[a:b] ** j))
        t = self._table
        if not self._filled[row]:
            self._fill(row)
        if j > 0:
            return float(t[row, b] - t[row, a])
        return float(t[row, a] - t[row, b])

    def _fill(self, row: int) -> None:
        x, t, j = self.x, self._table, _POWERS[row]
        if j > 0:
            t[row, 0] = 0.0
            np.cumsum(x**j, out=t[row, 1:])
        else:
            t[row, -1] = 0.0
            np.cumsum((x**j)[::-1], out=t[row, -2::-1])
        self._filled[row] = True


class Empirical(ServiceDistribution):
    """The empirical distribution of an observed array of service times.

    This is the paper's trace-driven mode: all moments, partial moments and
    quantiles are computed from the sample, and :meth:`sample` resamples
    with replacement.

    Moments of orders 1, 2, 3, -1 and -2 — everything the M/G/1 and SITA
    analyses read — come from a table of cumulative power sums built once
    per sample, so :meth:`moment`, :meth:`partial_moment`,
    :meth:`prob_interval` and the moments of a :meth:`conditional` slice
    each cost a ``searchsorted`` and a subtraction.  A conditional is a
    view on the same sorted sample and shares its table: it is not
    copied, re-sorted or re-validated.  :meth:`cutoff_moments` reads
    every slice of a SITA cutoff list off one ``searchsorted`` per cutoff.
    """

    def __init__(self, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError("service times must be positive and finite")
        self.values = np.sort(v)
        self._sums = _PowerSums(self.values)
        #: rank of ``values[0]`` in the table's sample (0 unless a slice).
        self._offset = 0

    @property
    def n(self) -> int:
        """Number of observations."""
        return self.values.size

    @property
    def lower(self) -> float:
        return float(self.values[0])

    @property
    def upper(self) -> float:
        return float(self.values[-1])

    def _ranks(self, lo: float, hi: float) -> tuple[int, int]:
        """Table ranks ``[a, b)`` of the observations in ``(lo, hi]``."""
        i0 = int(np.searchsorted(self.values, lo, side="right"))
        i1 = int(np.searchsorted(self.values, hi, side="right"))
        return self._offset + i0, self._offset + i1

    def moment(self, j: float) -> float:
        a = self._offset
        return self._sums.range_sum(j, a, a + self.n) / self.n

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        a, b = self._ranks(lo, hi)
        if b <= a:
            return 0.0
        return self._sums.range_sum(j, a, b) / self.n

    def cutoff_moments(self, cutoffs) -> list[tuple | None]:
        """``(p, work, mean, m2, m3, inv1, inv2)`` of each SITA slice
        ``(0, c_1], …, (c_{h-1}, ∞)`` (``None`` if empty) off one
        ``searchsorted`` per cutoff, with the sums and divisions of
        :meth:`prob_interval`, :meth:`partial_moment` and the
        :meth:`conditional`'s moments."""
        n, a, sums = self.n, self._offset, self._sums.range_sum
        inner = (a + int(np.searchsorted(self.values, c, side="right")) for c in cutoffs)
        ranks = [a, *inner, a + n]

        def moments(lo: int, hi: int) -> tuple | None:
            m = hi - lo
            if m <= 0:
                return None
            s1 = sums(1, lo, hi)
            rest = (sums(j, lo, hi) / m for j in (2, 3, -1, -2))
            return (float(m) / n, s1 / n, s1 / m, *rest)

        return [moments(lo, hi) for lo, hi in zip(ranks, ranks[1:])]

    def cdf(self, x: float) -> float:
        return float(np.searchsorted(self.values, x, side="right")) / self.n

    def ppf(self, q: float) -> float:
        q = float(np.clip(q, 0.0, 1.0))
        idx = min(self.n - 1, max(0, math.ceil(q * self.n) - 1))
        return float(self.values[idx])

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        return rng.choice(self.values, size=n, replace=True)

    def conditional(self, lo: float, hi: float) -> "ServiceDistribution":
        a, b = self._ranks(lo, hi)
        if b <= a:
            raise ValueError(f"no observations in ({lo}, {hi}]")
        view = object.__new__(Empirical)
        view.values = self._sums.x[a:b]
        view._sums = self._sums
        view._offset = a
        return view


# ----------------------------------------------------------------------
# Conditional view
# ----------------------------------------------------------------------


class ScaledDistribution(ServiceDistribution):
    """``c · X`` for a positive constant ``c``.

    The service-time distribution seen by a host of speed ``1/c``: a job
    of nominal size ``x`` occupies a speed-``v`` host for ``x/v`` seconds,
    so the host's M/G/1 analysis runs on ``X/v = ScaledDistribution(X, 1/v)``.
    Also obtainable as :meth:`ServiceDistribution.scaled`.
    """

    def __init__(self, parent: ServiceDistribution, scale: float) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.parent = parent
        self.scale = float(scale)

    @property
    def lower(self) -> float:
        return self.parent.lower * self.scale

    @property
    def upper(self) -> float:
        return self.parent.upper * self.scale

    def moment(self, j: float) -> float:
        return self.scale**j * self.parent.moment(j)

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        return self.scale**j * self.parent.partial_moment(
            j, lo / self.scale, hi / self.scale
        )

    def cdf(self, x: float) -> float:
        return self.parent.cdf(x / self.scale)

    def ppf(self, q: float) -> float:
        return self.scale * self.parent.ppf(q)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        return self.scale * self.parent.sample(n, rng)


class ConditionalDistribution(ServiceDistribution):
    """``X | lo < X <= hi`` for an arbitrary parent distribution.

    Moments come from the parent's partial moments; sampling uses inverse-CDF
    restricted to the interval.  This is what a single SITA host "sees".
    """

    def __init__(self, parent: ServiceDistribution, lo: float, hi: float) -> None:
        lo = max(float(lo), 0.0)
        hi = float(hi)
        mass = parent.prob_interval(lo, hi)
        if mass <= 0.0:
            raise ValueError(f"interval ({lo}, {hi}] has zero probability")
        self.parent = parent
        self.lo = lo
        self.hi = hi
        self.mass = mass
        self._q_lo = parent.cdf(lo)
        self._q_hi = parent.cdf(hi) if not math.isinf(hi) else 1.0

    @property
    def lower(self) -> float:
        return max(self.lo, self.parent.lower)

    @property
    def upper(self) -> float:
        return min(self.hi, self.parent.upper)

    def moment(self, j: float) -> float:
        return self.parent.partial_moment(j, self.lo, self.hi) / self.mass

    def partial_moment(self, j: float, lo: float, hi: float) -> float:
        lo = max(float(lo), self.lo)
        hi = min(float(hi), self.hi)
        if hi <= lo:
            return 0.0
        return self.parent.partial_moment(j, lo, hi) / self.mass

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (self.parent.cdf(x) - self._q_lo) / self.mass

    def ppf(self, q: float) -> float:
        q = float(np.clip(q, 0.0, 1.0))
        return self.parent.ppf(self._q_lo + q * (self._q_hi - self._q_lo))

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        rng = _as_rng(rng)
        if self.mass >= 0.05:
            # Rejection sampling: draw from the parent in vectorised blocks
            # and keep the in-interval values — far faster than per-element
            # inverse-CDF when the interval holds most of the mass (the
            # truncated-lognormal CTC workload keeps > 90 %).
            out = np.empty(n)
            filled = 0
            while filled < n:
                block = self.parent.sample(
                    max(64, int((n - filled) / self.mass * 1.2)), rng
                )
                keep = block[(block > self.lo) & (block <= self.hi)]
                take = min(keep.size, n - filled)
                out[filled : filled + take] = keep[:take]
                filled += take
            return out
        u = self._q_lo + rng.random(n) * (self._q_hi - self._q_lo)
        return np.asarray([self.parent.ppf(q) for q in u])
