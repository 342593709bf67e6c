"""The pure-Python Brent solvers against SciPy's, bit for bit.

:mod:`repro.solvers` replaces ``scipy.optimize.brentq`` and
``scipy.optimize.minimize_scalar(method="bounded")`` on every path the
package takes, so each port must return the *same float* (compared by
``float.hex``) and raise the same exception type as the original — on
arbitrary brackets, tolerances and ``args=``, and on the repository's
own objectives (load quantiles, the SITA-U opt/fair searches and the
distribution fits).  SciPy is imported here as the reference only.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import repro.core.cutoffs as cutoffs_mod
import repro.core.search as search_mod
import repro.workloads.distributions as dist_mod
from repro.core.cutoffs import _solve_load_quantile, feasible_cutoff_range
from repro.core.search import analytic_cutoff_pair, clear_search_memo
from repro.solvers import brentq, minimize_bounded
from repro.workloads import BoundedPareto, Empirical, Lognormal, c90
from repro.workloads.distributions import Hyperexponential

EPS = np.finfo(float).eps


def scipy_minimize_bounded(func, bounds, args=(), xatol=1e-5, maxiter=500):
    res = optimize.minimize_scalar(
        func,
        bounds=bounds,
        args=args,
        method="bounded",
        options={"xatol": xatol, "maxiter": maxiter},
    )
    return float(res.x), float(res.fun)


def outcome(fn, *args, **kwargs):
    """``float.hex`` of every returned float, or the exception type name."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the exception type is what is compared
        return type(exc).__name__
    if isinstance(out, tuple):
        return tuple(float(v).hex() for v in out)
    return float(out).hex()


# ----------------------------------------------------------------------
# root-finding objectives (state through ``args=``)
# ----------------------------------------------------------------------


def odd_power(x, r, p, s):
    return s * (x - r) ** p


def saturating(x, r, k):
    return math.tanh((x - r) * k)


def capped(x, r, cap):
    # Infinite beyond ``cap``, like the distribution fits' infeasible side.
    return math.inf if x > cap else x - r


def stepped(x, r, q):
    return math.floor((x - r) * q) + 0.5


def exp_minus(x, c):
    return math.exp(x) - c


def as_numpy(x, r):
    return np.float64(x - r) ** 3


ROOT_CASES = st.one_of(
    st.tuples(
        st.just(odd_power),
        st.tuples(
            st.floats(-50, 50),
            st.sampled_from([1, 3, 5]),
            # Tiny scales underflow the extrapolation's divisors to zero.
            st.one_of(st.floats(1e-3, 1e3), st.floats(1e-300, 1e-150)),
        ),
    ),
    st.tuples(st.just(saturating), st.tuples(st.floats(-50, 50), st.floats(1e-2, 1e2))),
    st.tuples(st.just(capped), st.tuples(st.floats(-50, 50), st.floats(-60, 60))),
    st.tuples(st.just(stepped), st.tuples(st.floats(-50, 50), st.floats(1e-2, 1e2))),
    st.tuples(st.just(exp_minus), st.floats(1e-3, 1e6)),  # a bare (non-tuple) arg
    st.tuples(st.just(as_numpy), st.tuples(st.floats(-50, 50))),
)


@settings(max_examples=400, deadline=None)
@given(
    case=ROOT_CASES,
    a=st.floats(-100, 100),
    b=st.floats(-100, 100),
    xtol=st.floats(1e-15, 1.0),
    rtol=st.one_of(st.just(4 * EPS), st.floats(4 * EPS, 1e-3)),
    maxiter=st.integers(0, 100),
)
def test_brentq_matches_scipy(case, a, b, xtol, rtol, maxiter):
    f, args = case
    kw = dict(args=args, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert outcome(brentq, f, a, b, **kw) == outcome(optimize.brentq, f, a, b, **kw)


@pytest.mark.parametrize(
    "f, a, b, kw, exc",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),  # same sign
        (lambda x: 1e-200, 0.0, 1.0, {}, ValueError),  # product underflows
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, ValueError),
        (lambda x: math.nan, 0.0, 1.0, {}, ValueError),
        (math.sin, 3.0, 3.5, {"maxiter": 1}, RuntimeError),
        (math.sin, 3.0, 3.5, {"maxiter": 0}, RuntimeError),
        (math.sin, 3.0, 3.5, {"maxiter": -1}, ValueError),
        (math.sin, 3.0, 3.5, {"xtol": 0.0}, ValueError),
        (math.sin, 3.0, 3.5, {"rtol": EPS}, ValueError),
    ],
)
def test_brentq_raises_like_scipy(f, a, b, kw, exc):
    with pytest.raises(exc):
        optimize.brentq(f, a, b, **kw)
    with pytest.raises(exc):
        brentq(f, a, b, **kw)


def test_brentq_returns_an_exact_endpoint_root():
    assert brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0


# ----------------------------------------------------------------------
# bounded minimisation objectives
# ----------------------------------------------------------------------


def wavy(x, c, amp, w):
    return (x - c) ** 2 + amp * math.sin(w * x)


def vee(x, c):
    return abs(x - c)


def plateaus(x, c, q):
    return float(math.floor((x - c) * q) ** 2)


def infeasible_right(x, c):
    return math.inf if x > c else (x - c + 1.0) ** 2


def numpy_valued(x, c):
    return np.float64(x - c) ** 2 - 1.0


MIN_CASES = st.one_of(
    st.tuples(
        st.just(wavy),
        st.tuples(st.floats(-50, 50), st.floats(0, 10), st.floats(0.1, 10)),
    ),
    st.tuples(st.just(vee), st.tuples(st.floats(-50, 50))),
    st.tuples(st.just(plateaus), st.tuples(st.floats(-50, 50), st.floats(0.1, 10))),
    st.tuples(st.just(infeasible_right), st.tuples(st.floats(-50, 50))),
    st.tuples(st.just(numpy_valued), st.tuples(st.floats(-50, 50))),
)


# SciPy's NumPy scalars warn on ``inf - inf``; the port's plain floats do not.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    case=MIN_CASES,
    lo=st.floats(-50, 50),
    width=st.one_of(st.just(0.0), st.floats(1e-9, 100)),
    xatol=st.floats(1e-12, 1.0),
    maxiter=st.integers(1, 500),
)
def test_minimize_bounded_matches_scipy(case, lo, width, xatol, maxiter):
    f, args = case
    bounds = (lo, lo + width)
    kw = dict(args=args, xatol=xatol, maxiter=maxiter)
    assert outcome(minimize_bounded, f, bounds, **kw) == outcome(
        scipy_minimize_bounded, f, bounds, **kw
    )


@pytest.mark.parametrize(
    "bounds", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0), (0.0, 1.0, 2.0)]
)
def test_minimize_bounded_rejects_bad_bounds_like_scipy(bounds):
    with pytest.raises(ValueError):
        scipy_minimize_bounded(vee, bounds, args=(0.5,))
    with pytest.raises(ValueError):
        minimize_bounded(vee, bounds, args=(0.5,))


# ----------------------------------------------------------------------
# the repository's own objectives, with SciPy swapped in as reference
# ----------------------------------------------------------------------


@pytest.fixture
def with_scipy_solvers(monkeypatch):
    """Run a callable with every call site bound to SciPy's solvers."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            for mod in (cutoffs_mod, search_mod, dist_mod):
                m.setattr(mod, "brentq", optimize.brentq)
            m.setattr(search_mod, "minimize_bounded", scipy_minimize_bounded)
            clear_search_memo()
            try:
                return fn(*args, **kwargs)
            finally:
                clear_search_memo()

    return run


def _empirical():
    return Empirical(c90().service_dist.sample(20_000, rng=5))


DISTS = {
    "empirical": _empirical,
    "bounded-pareto": lambda: BoundedPareto(332.0, 1e10, 1.1),
    "lognormal": lambda: c90().service_dist,
}


@pytest.mark.parametrize("name", sorted(DISTS))
def test_load_quantiles_match_scipy(name, with_scipy_solvers):
    dist = DISTS[name]()
    for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
        ours = _solve_load_quantile(dist, frac)
        ref = with_scipy_solvers(_solve_load_quantile, dist, frac)
        assert ours.hex() == ref.hex()
    for load in (0.3, 0.7, 0.9):
        ours = feasible_cutoff_range(load, dist)
        ref = with_scipy_solvers(feasible_cutoff_range, load, dist)
        assert [v.hex() for v in ours] == [v.hex() for v in ref]


@pytest.mark.parametrize("name", sorted(DISTS))
def test_opt_and_fair_cutoffs_match_scipy(name, with_scipy_solvers):
    # Exercises _opt_from_axis (bounded minimiser) and _fair_from_axis
    # (brentq on the slowdown gap), on the same shared axis.
    dist = DISTS[name]()
    for load in (0.3, 0.5, 0.7, 0.9):
        clear_search_memo()
        ours = analytic_cutoff_pair(load, dist)
        ref = with_scipy_solvers(analytic_cutoff_pair, load, dist)
        assert {k: v.hex() for k, v in ours.items()} == {
            k: v.hex() for k, v in ref.items()
        }
    clear_search_memo()
    ours = analytic_cutoff_pair(0.7, dist, want=("opt",), metric="mean_response")
    ref = with_scipy_solvers(
        analytic_cutoff_pair, 0.7, dist, want=("opt",), metric="mean_response"
    )
    assert ours["opt"].hex() == ref["opt"].hex()


def _state(d):
    return [float(v).hex() for v in (d.mean, d.second_moment, d.lower, d.upper)]


@pytest.mark.parametrize(
    "fit",
    [
        lambda: BoundedPareto.fit(mean=4562.6, scv=43.0, upper=1e7),
        lambda: BoundedPareto.fit(mean=100.0, scv=2.0, upper=5_000.0),
        lambda: BoundedPareto.fit_min(lower=1.0, mean=4562.6, scv=43.0),
        lambda: BoundedPareto.fit_min(lower=10.0, mean=50.0, scv=3.0),
        lambda: Lognormal.fit_truncated(mean=4520.0, scv=3.0, upper=43_200.0),
    ],
)
def test_distribution_fits_match_scipy(fit, with_scipy_solvers):
    assert _state(fit()) == _state(with_scipy_solvers(fit))


def test_hyperexponential_ppf_matches_scipy(with_scipy_solvers):
    d = Hyperexponential.fit_balanced(mean=10.0, scv=20.0)
    for q in (0.01, 0.5, 0.9, 0.999):
        assert d.ppf(q).hex() == with_scipy_solvers(d.ppf, q).hex()
