"""The pure-Python SciPy ports against SciPy, bit for bit.

:mod:`repro.solvers` replaces ``scipy.optimize.brentq``,
``scipy.optimize.minimize_scalar(method="bounded")`` and
``scipy.special.ndtr``/``ndtri`` on every path the package takes, so
each port must return the *same float* (compared by ``float.hex`` or
``==`` on the bit pattern) and raise the same exception type as the
original — on arbitrary brackets, tolerances and ``args=``, on every
branch edge of the Cephes normal-distribution code, and on the
repository's own objectives (load quantiles, the SITA-U opt/fair
searches, the distribution fits and the lognormal workloads).  SciPy is
imported here as the reference only.
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
from repro.core.cutoffs import (
    _solve_load_quantile,
    equal_load_cutoffs,
    feasible_cutoff_range,
)
from repro.core.search import analytic_cutoff_pair
from repro.solvers import _erf, _erfc, brentq, minimize_bounded, ndtr, ndtri
from repro.workloads import BoundedPareto, Empirical, Lognormal, c90, ctc, j90
from repro.workloads.catalog import CTC_RUNTIME_CAP
from repro.workloads.distributions import Hyperexponential

special = pytest.importorskip("scipy.special")

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
            return fn(*args, **kwargs)

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
        ours = analytic_cutoff_pair(load, dist)
        ref = with_scipy_solvers(analytic_cutoff_pair, load, dist)
        assert {k: v.hex() for k, v in ours.items()} == {
            k: v.hex() for k, v in ref.items()
        }
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


# ----------------------------------------------------------------------
# the Cephes normal CDF and quantile
# ----------------------------------------------------------------------


def assert_same_floats(port, ref, xs):
    """``port(x)`` equals ``ref(x)`` bit for bit, NaN for NaN, on every ``x``."""
    xs = np.asarray(xs, dtype=float)
    ours = np.array([port(x) for x in xs.tolist()])
    want = ref(xs)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(ours), nan)
    bits, want_bits = ours[~nan].view(np.int64), want[~nan].view(np.int64)
    bad = np.flatnonzero(bits != want_bits)
    assert bad.size == 0, [
        (x.hex(), o.hex(), w.hex())
        for x, o, w in zip(xs[~nan][bad][:5], ours[~nan][bad][:5], want[~nan][bad][:5])
    ]


def around(*edges, ulps=4):
    """Every float within ``ulps`` steps of each edge, on both sides."""
    out = []
    for edge in edges:
        x = lo = hi = float(edge)
        out.append(x)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
MAXLOG = 7.09782712893383996843e2


def test_ndtr_matches_scipy_on_seeded_probes():
    rng = np.random.default_rng(20000731)
    n = 40_000
    mags = 10.0 ** rng.uniform(-300, 2.5, n)
    xs = np.concatenate(
        [
            rng.normal(size=n),
            rng.normal(scale=8.0, size=n),
            rng.uniform(-40.0, 40.0, n),
            mags * rng.choice([-1.0, 1.0], n),  # log-uniform magnitudes
        ]
    )
    assert_same_floats(ndtr, special.ndtr, xs)


def test_ndtr_matches_scipy_on_branch_edges():
    r2 = math.sqrt(2.0)
    edges = [
        1.0,  # ndtr: |a|/sqrt(2) against sqrt(1/2), erf or erfc
        r2,  # erfc: |x| < 1 hands back to 1 - erf
        8.0 * r2,  # erfc: the P/Q to R/S switch at x = 8
        math.sqrt(MAXLOG) * r2,  # erfc: exp(-x²) underflow at MAXLOG
        38.5,  # ndtr underflows to 0 on the left
        8.3,  # and rounds to 1 on the right
    ]
    edges += [-e for e in edges]
    assert_same_floats(ndtr, special.ndtr, around(*edges) + SPECIALS)


def test_erf_and_erfc_hand_off_like_scipy():
    # ndtr never calls erf with |x| > 1; erf's own hand-off to 1 - erfc
    # and erfc's to 1 - erf are checked here directly.
    rng = np.random.default_rng(11)
    xs = around(1.0, -1.0, 8.0, -8.0, math.sqrt(MAXLOG), -math.sqrt(MAXLOG))
    xs += rng.uniform(-30.0, 30.0, 20_000).tolist() + SPECIALS
    assert_same_floats(_erf, special.erf, xs)
    assert_same_floats(_erfc, special.erfc, xs)


def test_ndtri_matches_scipy_on_seeded_probes():
    rng = np.random.default_rng(20000731)
    n = 40_000
    qs = np.concatenate(
        [
            rng.uniform(0.0, 1.0, n),
            10.0 ** rng.uniform(-300, 0, n),  # lower tail down to 1e-300
            1.0 - 10.0 ** rng.uniform(-16, 0, n),  # upper tail up to 1 - 1e-16
            special.ndtr(rng.normal(size=n)),  # the quantiles of normal draws
        ]
    )
    assert_same_floats(ndtri, special.ndtri, qs)


def test_ndtri_matches_scipy_on_branch_edges():
    exp_m2 = 0.13533528323661269189
    edges = [
        exp_m2,  # central rational approximation against the tails
        1.0 - exp_m2,  # the upper tail is reflected
        math.exp(-32.0),  # sqrt(-2 log y) = 8: the P1/Q1 to P2/Q2 switch
        1.0 - math.exp(-32.0),
        0.5,
        0.0,
        1.0,
        2.2250738585072014e-308,  # smallest normal
        1e-300,
        1.0 - 1e-16,
    ]
    out_of_domain = [-0.0, -1e-300, -1.0, 1.0 + 2.2e-16, 2.0, math.inf, -math.inf]
    qs = around(*edges) + out_of_domain + SPECIALS
    assert_same_floats(ndtri, special.ndtri, qs)
    assert math.isnan(ndtri(math.nan))
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf


def test_ports_return_plain_floats():
    for v in (ndtr(0.3), ndtr(np.float64(-9.0)), ndtri(0.3), ndtri(np.float64(1e-20))):
        assert type(v) is float


# ----------------------------------------------------------------------
# the lognormal workloads, with scipy.special swapped in as reference
# ----------------------------------------------------------------------


@pytest.fixture
def with_scipy_special(monkeypatch):
    """Run a callable with the lognormal bound to ``scipy.special``."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(dist_mod, "ndtr", special.ndtr)
            m.setattr(dist_mod, "ndtri", special.ndtri)
            return fn(*args, **kwargs)

    return run


def hexes(values):
    if isinstance(values, dict):
        return {k: float(v).hex() for k, v in values.items()}
    return [float(v).hex() for v in values]


LOGNORMAL_WORKLOADS = {"c90": c90, "j90": j90, "ctc": ctc}


def test_ctc_fit_matches_scipy_special(with_scipy_special):
    ref = with_scipy_special(
        Lognormal.fit_truncated, mean=4520.0, scv=3.0, upper=CTC_RUNTIME_CAP
    )
    ours = ctc().service_dist
    assert hexes([ours.parent.mu_log, ours.parent.sigma_log]) == hexes(
        [ref.parent.mu_log, ref.parent.sigma_log]
    )
    assert _state(ours) == _state(ref)


@pytest.mark.parametrize("name", sorted(LOGNORMAL_WORKLOADS))
def test_lognormal_functions_match_scipy_special(name, with_scipy_special):
    dist = LOGNORMAL_WORKLOADS[name]().service_dist
    xs = [0.0, 1e-3, 1.0, 30.0, 600.0, 4562.6, 4e4, 43_200.0, 1e6, 1e9, math.inf]
    qs = [0.0, 1e-15, 1e-6, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0 - 1e-12, 1.0]
    for fn, probes in ((dist.cdf, xs), (dist.ppf, qs)):
        ours = [fn(v) for v in probes]
        assert hexes(ours) == hexes(with_scipy_special(lambda: [fn(v) for v in probes]))
    for j in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
        pairs = list(zip(xs, xs[1:])) + [(0.0, math.inf), (5.0, 5.0)]
        ours = [dist.partial_moment(j, lo, hi) for lo, hi in pairs]
        ref = with_scipy_special(
            lambda: [dist.partial_moment(j, lo, hi) for lo, hi in pairs]
        )
        assert hexes(ours) == hexes(ref)


@pytest.mark.parametrize("name", sorted(LOGNORMAL_WORKLOADS))
def test_lognormal_cutoffs_match_scipy_special(name, with_scipy_special):
    dist = LOGNORMAL_WORKLOADS[name]().service_dist
    for load in (0.3, 0.5, 0.7, 0.9):
        ours = analytic_cutoff_pair(load, dist, want=("opt", "fair"))
        ref = with_scipy_special(analytic_cutoff_pair, load, dist, want=("opt", "fair"))
        assert hexes(ours) == hexes(ref)
    ours = equal_load_cutoffs(dist, 4)
    assert hexes(ours) == hexes(with_scipy_special(equal_load_cutoffs, dist, 4))
