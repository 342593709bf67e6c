"""Unit and property tests for the service-time distribution library.

The moment machinery here underpins every analytic result in the repo
(Pollaczek–Khinchine needs E[X^2]/E[X^3], slowdowns need E[1/X]/E[1/X^2],
SITA needs partial moments), so these tests are deliberately exhaustive:
closed-form moments vs numerical integration, sampling vs analytic
moments, partial-moment additivity, CDF/PPF roundtrips, and conditional
(truncated) views.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from repro.core.cutoffs import equal_load_cutoffs
from repro.workloads.distributions import (
    _POWERS,
    BoundedPareto,
    ConditionalDistribution,
    Deterministic,
    Empirical,
    Erlang,
    Exponential,
    Hyperexponential,
    Lognormal,
    Pareto,
    Weibull,
)

# A representative instance of every family, with the moment orders that
# are finite for it.
FAMILIES = [
    pytest.param(BoundedPareto(1.0, 1e5, 1.1), (-2, -1, 0, 1, 2, 3), id="bounded-pareto"),
    pytest.param(BoundedPareto(2.0, 5e4, 0.5), (-2, -1, 0, 1, 2, 3), id="bp-alpha<1"),
    pytest.param(BoundedPareto(1.0, 1e4, 2.0), (-2, -1, 0, 1, 2, 3), id="bp-alpha=2"),
    pytest.param(Pareto(1.0, 2.5), (0, 1, 2), id="pareto"),
    pytest.param(Exponential(10.0), (0, 1, 2, 3), id="exponential"),
    pytest.param(
        Hyperexponential([0.6, 0.4], [5.0, 50.0]), (0, 1, 2, 3), id="hyperexp"
    ),
    pytest.param(Erlang(3, 12.0), (-2, -1, 0, 1, 2, 3), id="erlang3"),
    pytest.param(Lognormal(2.0, 1.5), (-2, -1, 0, 1, 2, 3), id="lognormal"),
    pytest.param(Weibull(10.0, 0.7), (0, 1, 2, 3), id="weibull-heavy"),
    pytest.param(Weibull(10.0, 3.0), (-2, -1, 0, 1, 2, 3), id="weibull-light"),
    pytest.param(Deterministic(7.0), (-2, -1, 0, 1, 2, 3), id="deterministic"),
    pytest.param(
        Empirical([1.0, 2.0, 2.0, 5.0, 100.0]), (-2, -1, 0, 1, 2, 3), id="empirical"
    ),
]


def _numeric_moment(dist, j: float) -> float:
    """Brute-force E[X^j] as a Stieltjes sum over a fine log-spaced grid.

    ``E[X^j] = Σ x_mid^j · (F(b) − F(a))`` with geometric midpoints — robust
    even for heavy tails and near-critical moment orders where adaptive
    quadrature gives up.
    """
    lo = max(dist.lower, dist.ppf(1e-13))
    hi = dist.upper if math.isfinite(dist.upper) else dist.ppf(1.0 - 1e-13)
    edges = np.exp(np.linspace(math.log(lo) - 1e-12, math.log(hi) + 1e-12, 40_001))
    cdf = np.array([dist.cdf(x) for x in edges])
    mids = np.sqrt(edges[:-1] * edges[1:])
    return float(np.sum(mids**j * np.diff(cdf)))


class TestMomentsAgainstQuadrature:
    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_moment_matches_quadrature(self, dist, orders):
        for j in orders:
            if isinstance(dist, (Pareto, Exponential, Hyperexponential, Weibull)) and j > 1:
                tol = 0.05  # unbounded heavy tails strain the quadrature
            else:
                tol = 5e-3
            analytic = dist.moment(j)
            numeric = _numeric_moment(dist, j)
            assert analytic == pytest.approx(numeric, rel=tol), f"j={j}"

    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_zeroth_moment_is_one(self, dist, orders):
        assert dist.moment(0) == pytest.approx(1.0, rel=1e-9)


class TestMomentsAgainstSampling:
    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_sample_mean(self, dist, orders):
        x = dist.sample(200_000, np.random.default_rng(7))
        assert np.all(x > 0)
        assert np.mean(x) == pytest.approx(dist.mean, rel=0.1)

    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_sample_within_support(self, dist, orders):
        x = dist.sample(10_000, np.random.default_rng(8))
        assert np.min(x) >= dist.lower - 1e-9
        assert np.max(x) <= dist.upper + 1e-9

    def test_sample_inverse_moment(self):
        d = BoundedPareto(1.0, 1e4, 1.2)
        x = d.sample(400_000, np.random.default_rng(9))
        assert np.mean(1.0 / x) == pytest.approx(d.inverse_moment, rel=0.02)


class TestDerivedMoments:
    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_variance_consistency(self, dist, orders):
        if 2 in orders:
            assert dist.variance == pytest.approx(
                dist.moment(2) - dist.moment(1) ** 2, rel=1e-9, abs=1e-12
            )

    def test_exponential_scv_is_one(self):
        assert Exponential(3.0).scv == pytest.approx(1.0)

    def test_erlang_scv(self):
        assert Erlang(4, 10.0).scv == pytest.approx(0.25)

    def test_deterministic_scv_is_zero(self):
        assert Deterministic(5.0).scv == pytest.approx(0.0, abs=1e-12)

    def test_hyperexponential_scv_above_one(self):
        assert Hyperexponential([0.5, 0.5], [1.0, 100.0]).scv > 1.0


class TestPartialMoments:
    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_full_range_equals_moment(self, dist, orders):
        for j in orders:
            full = dist.partial_moment(j, 0.0, math.inf if math.isinf(dist.upper) else dist.upper)
            assert full == pytest.approx(dist.moment(j), rel=1e-9)

    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_additivity(self, dist, orders):
        mid = dist.ppf(0.6)
        hi = dist.upper if not math.isinf(dist.upper) else dist.ppf(1 - 1e-13)
        for j in orders:
            left = dist.partial_moment(j, 0.0, mid)
            right = dist.partial_moment(j, mid, hi)
            total = dist.partial_moment(j, 0.0, hi)
            assert left + right == pytest.approx(total, rel=1e-8)

    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_empty_interval_is_zero(self, dist, orders):
        assert dist.partial_moment(1, 5.0, 5.0) == 0.0
        assert dist.partial_moment(1, 7.0, 3.0) == 0.0

    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_prob_interval_matches_cdf(self, dist, orders):
        a = dist.ppf(0.25)
        b = dist.ppf(0.8)
        assert dist.prob_interval(a, b) == pytest.approx(
            dist.cdf(b) - dist.cdf(a), rel=1e-6, abs=1e-9
        )

    def test_load_fraction_monotone(self):
        d = BoundedPareto(1.0, 1e5, 1.1)
        cs = np.logspace(0.1, 5.0, 20)
        fracs = [d.load_fraction(0.0, c) for c in cs]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == pytest.approx(1.0, rel=1e-9)


class TestCdfPpf:
    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_roundtrip(self, dist, orders):
        if isinstance(dist, (Deterministic, Empirical)):
            pytest.skip("atomic distributions don't invert pointwise")
        for q in (0.01, 0.25, 0.5, 0.9, 0.999):
            assert dist.cdf(dist.ppf(q)) == pytest.approx(q, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_cdf_monotone_and_bounded(self, dist, orders):
        grid = [dist.ppf(q) for q in np.linspace(0.001, 0.999, 25)]
        vals = [dist.cdf(x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("dist,orders", FAMILIES)
    def test_cdf_below_support_is_zero(self, dist, orders):
        assert dist.cdf(dist.lower * 0.5 if dist.lower > 0 else -1.0) == 0.0


class TestConditional:
    def test_conditional_moments_match_resampling(self):
        d = BoundedPareto(1.0, 1e5, 1.1)
        lo, hi = 10.0, 1000.0
        cond = d.conditional(lo, hi)
        x = d.sample(500_000, np.random.default_rng(3))
        sel = x[(x > lo) & (x <= hi)]
        assert cond.mean == pytest.approx(np.mean(sel), rel=0.02)
        assert cond.moment(2) == pytest.approx(np.mean(sel**2), rel=0.05)

    def test_conditional_support(self):
        d = Lognormal(1.0, 1.0)
        cond = d.conditional(2.0, 8.0)
        x = cond.sample(5_000, np.random.default_rng(4))
        assert np.all(x > 2.0)
        assert np.all(x <= 8.0)

    def test_conditional_mass_sums(self):
        d = Exponential(5.0)
        c = d.ppf(0.5)
        below = d.conditional(0.0, c)
        above = d.conditional(c, math.inf)
        total = (
            d.prob_interval(0, c) * below.mean
            + d.prob_interval(c, math.inf) * above.mean
        )
        assert total == pytest.approx(d.mean, rel=1e-9)

    def test_zero_mass_interval_raises(self):
        d = BoundedPareto(1.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            ConditionalDistribution(d, 200.0, 300.0)

    def test_conditional_cdf_endpoints(self):
        d = Lognormal(0.0, 1.0)
        cond = d.conditional(1.0, 5.0)
        assert cond.cdf(1.0) == 0.0
        assert cond.cdf(5.0) == 1.0
        assert 0.0 < cond.cdf(2.0) < 1.0

    def test_rejection_sampling_matches_ppf_path(self):
        # Interval holding most of the mass uses the rejection fast path.
        d = Lognormal(0.0, 1.0)
        cond = d.conditional(0.0, d.ppf(0.95))
        x = cond.sample(100_000, np.random.default_rng(5))
        assert np.mean(x) == pytest.approx(cond.mean, rel=0.02)


class TestValidation:
    def test_bounded_pareto_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BoundedPareto(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            BoundedPareto(10.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            BoundedPareto(1.0, 10.0, -1.0)

    def test_pareto_moment_divergence(self):
        d = Pareto(1.0, 1.5)
        with pytest.raises(ValueError):
            d.moment(2)

    def test_exponential_inverse_moment_divergence(self):
        with pytest.raises(ValueError):
            Exponential(1.0).moment(-1)

    def test_hyperexp_probs_must_sum(self):
        with pytest.raises(ValueError):
            Hyperexponential([0.5, 0.4], [1.0, 2.0])

    def test_empirical_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Empirical([1.0, 0.0])

    def test_erlang_rejects_fractional_n(self):
        with pytest.raises(ValueError):
            Erlang(1.5, 1.0)


class TestFits:
    @pytest.mark.parametrize(
        "mean,scv,upper",
        [(4562.6, 43.0, 2.2e6), (100.0, 10.0, 1e5), (50.0, 2.0, 5e3)],
    )
    def test_bounded_pareto_fit(self, mean, scv, upper):
        d = BoundedPareto.fit(mean, scv, upper)
        assert d.mean == pytest.approx(mean, rel=1e-6)
        assert d.scv == pytest.approx(scv, rel=1e-6)
        assert d.p == upper

    @pytest.mark.parametrize(
        "lower,mean,scv", [(1.0, 4562.6, 43.0), (30.0, 4520.0, 3.0), (1.0, 100.0, 5.0)]
    )
    def test_bounded_pareto_fit_min(self, lower, mean, scv):
        d = BoundedPareto.fit_min(lower, mean, scv)
        assert d.k == lower
        assert d.mean == pytest.approx(mean, rel=1e-6)
        assert d.scv == pytest.approx(scv, rel=1e-6)

    def test_bounded_pareto_fit_infeasible(self):
        # SCV beyond the family's reach for this upper/mean ratio.
        with pytest.raises(ValueError, match="reachable SCV"):
            BoundedPareto.fit(mean=4520.0, scv=4.5, upper=43_200.0)

    def test_lognormal_fit(self):
        d = Lognormal.fit(1000.0, 25.0)
        assert d.mean == pytest.approx(1000.0, rel=1e-9)
        assert d.scv == pytest.approx(25.0, rel=1e-9)

    def test_lognormal_fit_truncated(self):
        d = Lognormal.fit_truncated(4520.0, 3.0, 43_200.0)
        assert d.mean == pytest.approx(4520.0, rel=1e-6)
        assert d.scv == pytest.approx(3.0, rel=1e-6)
        assert d.upper <= 43_200.0

    def test_h2_balanced_fit(self):
        d = Hyperexponential.fit_balanced(100.0, 16.0)
        assert d.mean == pytest.approx(100.0, rel=1e-9)
        assert d.scv == pytest.approx(16.0, rel=1e-9)

    def test_h2_fit_rejects_low_scv(self):
        with pytest.raises(ValueError):
            Hyperexponential.fit_balanced(1.0, 0.5)


class TestEmpirical:
    def test_moments_are_sample_moments(self, rng):
        vals = rng.lognormal(1.0, 1.0, size=500)
        e = Empirical(vals)
        assert e.mean == pytest.approx(np.mean(vals))
        assert e.moment(2) == pytest.approx(np.mean(vals**2))
        assert e.inverse_moment == pytest.approx(np.mean(1.0 / vals))

    def test_partial_moment_counts(self):
        e = Empirical([1.0, 2.0, 3.0, 4.0])
        assert e.prob_interval(1.5, 3.5) == pytest.approx(0.5)
        assert e.partial_moment(1, 1.5, 3.5) == pytest.approx((2 + 3) / 4)

    def test_conditional_slices(self):
        e = Empirical([1.0, 2.0, 3.0, 4.0, 5.0])
        c = e.conditional(1.5, 4.5)
        assert c.n == 3
        assert c.mean == pytest.approx(3.0)

    def test_ppf_is_order_statistic(self):
        e = Empirical([10.0, 20.0, 30.0, 40.0])
        assert e.ppf(0.0) == 10.0
        assert e.ppf(0.25) == 10.0
        assert e.ppf(0.26) == 20.0
        assert e.ppf(1.0) == 40.0


def _close(ref: float):
    """Purely relative 1e-12 match: inverse moments sit far below
    ``pytest.approx``'s default absolute tolerance."""
    return pytest.approx(ref, rel=1e-12, abs=0.0)


class TestEmpiricalPowerSums:
    """The cumulative power-sum table against correctly rounded sums.

    References are ``math.fsum`` totals: each block between consecutive
    test ranks is summed exactly-rounded once, and a slice's reference is
    the ``fsum`` of its blocks (positive terms, so the reference is good
    to a few ulps).  Ranks cover both ends of the sample, where one of
    the two SITA slices holds only a handful of observations.
    """

    POWERS = (1, 2, 3, -1, -2)

    @pytest.fixture(scope="class")
    def c90_sample(self) -> Empirical:
        from repro.workloads.catalog import c90

        e = Empirical(c90().service_dist.sample(220_000, rng=20000731))
        assert np.all(np.diff(e.values) > 0)  # ranks map to distinct cutoffs
        return e

    @staticmethod
    def _ranks(n: int) -> np.ndarray:
        spread = np.linspace(50, n - 51, 200).astype(int)
        return np.unique(
            np.concatenate([np.arange(1, 50), spread, np.arange(n - 50, n)])
        )

    def test_slice_moments_match_fsum(self, c90_sample):
        e = c90_sample
        v, n = e.values, e.n
        ranks = self._ranks(n)
        edges = np.concatenate([[0], ranks, [n]])
        blocks = {
            j: [
                math.fsum((v[a:b] ** j).tolist())
                for a, b in zip(edges[:-1], edges[1:])
            ]
            for j in self.POWERS
        }
        for i, k in enumerate(ranks, start=1):
            c = float(v[k - 1])
            for lo, hi, sl, count in (
                (0.0, c, slice(0, i), k),
                (c, math.inf, slice(i, None), n - k),
            ):
                ref = {j: math.fsum(blocks[j][sl]) / count for j in self.POWERS}
                cond = e.conditional(lo, hi)
                assert cond.n == count
                assert np.shares_memory(cond.values, v)
                assert cond.mean == _close(ref[1])
                assert cond.second_moment == _close(ref[2])
                assert cond.third_moment == _close(ref[3])
                assert cond.inverse_moment == _close(ref[-1])
                assert cond.inverse_second_moment == _close(ref[-2])
                assert e.partial_moment(1, lo, hi) == _close(ref[1] * count / n)
                assert e.prob_interval(lo, hi) == count / n

    def test_conditional_of_conditional_composes_offsets(self, c90_sample):
        e = c90_sample
        v, n = e.values, e.n
        a, b = n // 3, n - 40
        outer = e.conditional(float(v[a - 1]), math.inf)
        inner = outer.conditional(0.0, float(v[b - 1]))
        sl = v[a:b]
        assert inner.n == sl.size
        assert inner.lower == v[a] and inner.upper == v[b - 1]
        for j in self.POWERS:
            ref = math.fsum((sl**j).tolist()) / sl.size
            assert inner.moment(j) == _close(ref)
        # a partial moment of the view is normalised by the view's size
        c = float(v[b + 9])
        ref = math.fsum(v[b : b + 10].tolist()) / outer.n
        assert outer.partial_moment(1, float(v[b - 1]), c) == _close(ref)

    def test_fractional_power_sums_the_slice(self, c90_sample):
        e = c90_sample
        v = e.values
        k = e.n // 2
        cond = e.conditional(float(v[k - 1]), math.inf)
        for j in (0.5, -0.5, 1.5):
            ref = math.fsum((v[k:] ** j).tolist()) / (e.n - k)
            assert cond.moment(j) == _close(ref)
        assert cond.moment(0) == 1.0


class TestLazyPowerRows:
    """The power-sum table fills each row on first use."""

    @staticmethod
    def eager_table(x: np.ndarray) -> np.ndarray:
        """The whole table built up front, every row at once."""
        t = np.zeros((len(_POWERS), x.size + 1))
        for row, j in enumerate(_POWERS):
            if j > 0:
                np.cumsum(x**j, out=t[row, 1:])
            else:
                np.cumsum((x**j)[::-1], out=t[row, -2::-1])
        return t

    @pytest.fixture
    def sample(self) -> Empirical:
        return Empirical(np.random.default_rng(5).lognormal(0.0, 2.0, 5000))

    def test_each_lazy_row_equals_the_eager_build(self, sample):
        eager = self.eager_table(sample.values)
        sums = sample._sums
        for row, j in enumerate(_POWERS):
            assert not sums._filled[row]
            sample.moment(j)
            assert sums._filled[row]
            assert np.array_equal(sums._table[row], eager[row])

    def test_equal_load_cutoffs_fill_only_the_first_power(self, sample):
        equal_load_cutoffs(sample, 4)
        assert sample._sums._filled == [j == 1 for j in _POWERS]

    def test_conditional_slices_share_the_fills(self, sample):
        c = float(sample.values[2500])
        short, long_ = sample.conditional(0.0, c), sample.conditional(c, math.inf)
        assert short._sums is long_._sums is sample._sums
        short.second_moment
        long_.inverse_moment
        assert sample._sums._filled == [j in (2, -1) for j in _POWERS]
        eager = self.eager_table(sample.values)
        assert short.second_moment == float(eager[1, 2501] - eager[1, 0]) / 2501
        assert sample.moment(-1) == float(eager[3, 0] - eager[3, -1]) / sample.n


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------

bp_params = st.tuples(
    st.floats(0.1, 100.0),
    st.floats(2.0, 1e6),
    st.floats(0.2, 5.0),
).filter(lambda t: t[1] > t[0] * 2)


@given(bp_params, st.floats(-2.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_bp_partial_moment_never_exceeds_moment(params, j):
    k, p_mult, alpha = params
    d = BoundedPareto(k, k * p_mult if k * p_mult > k else k * 2, alpha)
    mid = d.ppf(0.7)
    partial = d.partial_moment(j, d.k, mid)
    assert partial <= d.moment(j) * (1 + 1e-9)
    assert partial >= 0.0


@given(bp_params, st.floats(0.001, 0.999))
@settings(max_examples=60, deadline=None)
def test_bp_cdf_ppf_roundtrip(params, q):
    k, p_mult, alpha = params
    d = BoundedPareto(k, k * p_mult if k * p_mult > k else k * 2, alpha)
    assert d.cdf(d.ppf(q)) == pytest.approx(q, rel=1e-6, abs=1e-9)


@given(
    st.lists(st.floats(0.01, 1e6), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_empirical_mean_bounds(values):
    e = Empirical(values)
    assert e.lower * (1 - 1e-12) <= e.mean <= e.upper * (1 + 1e-12)
    assert e.cdf(e.upper) == pytest.approx(1.0)
    assert e.prob_interval(0.0, e.upper) == pytest.approx(1.0)


@given(st.floats(0.05, 0.95), st.floats(1.5, 60.0))
@settings(max_examples=40, deadline=None)
def test_lognormal_fit_roundtrip(mean_scale, scv):
    mean = mean_scale * 1000.0
    d = Lognormal.fit(mean, scv)
    assert d.mean == pytest.approx(mean, rel=1e-9)
    assert d.scv == pytest.approx(scv, rel=1e-9)


# One instance of every concrete distribution, for ``repr``.
REPR_INSTANCES = [
    BoundedPareto(1.0, 1e5, 1.1),
    Pareto(1.0, 2.5),
    Exponential(2.0),
    Hyperexponential([0.25, 0.75], [1.0, 8.0]),
    Erlang(3, 2.0),
    Lognormal(0.0, 1.0),
    Weibull(1.0, 0.5),
    Deterministic(3.0),
    Empirical([1.0, 2.0, 4.0]),
    Lognormal(0.0, 1.0).scaled(0.5),
    Lognormal(0.0, 1.0).conditional(0.0, 2.0),
]


def _concrete_subclasses(cls):
    for sub in cls.__subclasses__():
        if not getattr(sub, "__abstractmethods__", None):
            yield sub
        yield from _concrete_subclasses(sub)


def test_repr_instances_cover_every_concrete_distribution():
    from repro.workloads.distributions import ServiceDistribution

    covered = {type(d) for d in REPR_INSTANCES}
    library = {
        cls
        for cls in _concrete_subclasses(ServiceDistribution)
        if cls.__module__ == ServiceDistribution.__module__
    }
    assert covered == library


@pytest.mark.parametrize("dist", REPR_INSTANCES, ids=lambda d: type(d).__name__)
def test_repr_formats_every_distribution(dist):
    text = repr(dist)
    assert text.startswith(f"{type(dist).__name__}(") and text.endswith(")")


def test_repr_shows_arrays_by_shape_and_range_and_nests_parents():
    assert repr(Empirical([4.0, 1.0, 2.0])) == (
        "Empirical(values=array(shape=(3,), range=[1, 4]))"
    )
    assert repr(Exponential(2.0).scaled(0.5)) == (
        f"ScaledDistribution(parent={Exponential(2.0)!r}, scale=0.5)"
    )
