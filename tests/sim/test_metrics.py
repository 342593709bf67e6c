"""Tests for SimulationResult and summary statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.metrics import SimulationResult, _sorted_percentile, batch_means_ci


@pytest.fixture
def result() -> SimulationResult:
    return SimulationResult(
        policy_name="test",
        n_hosts=2,
        arrival_times=np.array([0.0, 1.0, 2.0, 3.0]),
        sizes=np.array([2.0, 4.0, 1.0, 8.0]),
        wait_times=np.array([0.0, 2.0, 3.0, 0.0]),
        host_assignments=np.array([0, 1, 0, 1]),
    )


class TestDerivedArrays:
    def test_response_times(self, result):
        assert list(result.response_times) == [2.0, 6.0, 4.0, 8.0]

    def test_slowdowns(self, result):
        assert list(result.slowdowns) == [1.0, 1.5, 4.0, 1.0]

    def test_waiting_slowdowns(self, result):
        assert list(result.waiting_slowdowns) == [0.0, 0.5, 3.0, 0.0]

    def test_slowdown_at_least_one(self, result):
        assert np.all(result.slowdowns >= 1.0)


class TestSummary:
    def test_means(self, result):
        s = result.summary()
        assert s.mean_slowdown == pytest.approx(np.mean([1.0, 1.5, 4.0, 1.0]))
        assert s.mean_response == pytest.approx(5.0)
        assert s.mean_wait == pytest.approx(1.25)
        assert s.n_jobs == 4

    def test_variances(self, result):
        s = result.summary()
        assert s.var_slowdown == pytest.approx(np.var([1.0, 1.5, 4.0, 1.0]))
        assert s.var_response == pytest.approx(np.var([2.0, 6.0, 4.0, 8.0]))

    def test_host_fractions(self, result):
        s = result.summary()
        assert s.host_load_fraction == pytest.approx((3.0 / 15.0, 12.0 / 15.0))
        assert s.host_job_fraction == pytest.approx((0.5, 0.5))
        assert sum(s.host_load_fraction) == pytest.approx(1.0)

    def test_max_slowdown(self, result):
        assert result.summary().max_slowdown == 4.0

    def test_one_pass_fields_match_per_host_forms(self, rng):
        # Host 3 gets no jobs.
        n = 5000
        sizes = rng.lognormal(0.0, 2.0, n)
        hosts = rng.integers(0, 3, n)
        r = SimulationResult(
            policy_name="test",
            n_hosts=4,
            arrival_times=np.cumsum(rng.exponential(1.0, n)),
            sizes=sizes,
            wait_times=rng.exponential(5.0, n),
            host_assignments=hosts,
        )
        s = r.summary()
        slow = r.slowdowns
        assert s.p95_slowdown == float(np.percentile(slow, 95))
        assert s.p99_slowdown == float(np.percentile(slow, 99))
        assert s.host_job_fraction == tuple(
            float(np.mean(hosts == i)) for i in range(4)
        )
        total = float(np.sum(sizes))
        expected_load = [float(np.sum(sizes[hosts == i])) / total for i in range(4)]
        assert s.host_load_fraction == pytest.approx(expected_load, rel=1e-12, abs=0)
        assert s.host_load_fraction[3] == 0.0
        assert s.host_job_fraction[3] == 0.0

    @staticmethod
    def result_with_slowdowns(slow: np.ndarray) -> SimulationResult:
        """A one-host result with sizes of 1 and slowdowns ``slow``, unsorted."""
        n = slow.size
        return SimulationResult(
            policy_name="test",
            n_hosts=1,
            arrival_times=np.zeros(n),
            sizes=np.ones(n),
            wait_times=slow - 1.0,
            host_assignments=np.zeros(n, dtype=int),
        )

    @pytest.mark.parametrize(
        "slow",
        [
            pytest.param(1.0 + np.random.default_rng(3).pareto(1.1, 9999), id="heavy-tail"),
            pytest.param(np.array([7.5]), id="n=1"),
            pytest.param(
                np.random.default_rng(4).choice([1.0, 1.5, 2.0, 40.0], 1001), id="duplicates"
            ),
            pytest.param(np.array([3.0, 1.25]), id="n=2"),
            pytest.param(np.array([2.0, 2.0]), id="n=2-tied"),
            pytest.param(np.repeat([9.0, 1.0], [20, 180]), id="two-values"),
            pytest.param(
                1.0 + np.random.default_rng(6).pareto(1.1, 200_000), id="heavy-tail-200k"
            ),
        ],
    )
    def test_tail_percentiles_equal_np_percentile(self, slow):
        r = self.result_with_slowdowns(slow)
        s = r.summary()
        p95, p99 = np.percentile(r.slowdowns, [95, 99]).tolist()
        assert (s.p95_slowdown, s.p99_slowdown) == (p95, p99)

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(np.array([7.5]), id="n=1"),
            pytest.param(np.array([3.0, 1.25]), id="n=2"),
            pytest.param(np.array([1.0, 2.0, np.inf]), id="inf"),
            pytest.param(np.array([np.inf]), id="n=1-inf"),
            pytest.param(np.array([1.0, np.nan, 3.0, 4.0]), id="nan"),
        ],
    )
    def test_sorted_percentile_edges(self, values):
        # Every q, including the ends of the range, and numpy's NaN
        # results for a NaN sample or an inf - inf interpolation.
        ranked = np.sort(values)
        for q in (0, 1, 50, 95, 99, 100):
            with np.errstate(invalid="ignore"):
                expected = float(np.percentile(values, q))
            # repr tells -0.0 from 0.0 and matches NaN to NaN.
            assert repr(_sorted_percentile(ranked, q)) == repr(expected), q

    def test_empty_result_raises(self):
        r = self.result_with_slowdowns(np.empty(0))
        with pytest.raises(ValueError):
            r.summary()

    def test_as_row(self, result):
        row = result.summary().as_row()
        assert row["mean_slowdown"] == pytest.approx(1.875)
        assert "load_frac_host0" in row and "load_frac_host1" in row


class TestWarmupTrimming:
    def test_trim_drops_prefix(self, result):
        trimmed = result.trimmed(0.5)
        assert trimmed.n_jobs == 2
        assert list(trimmed.sizes) == [1.0, 8.0]

    def test_trim_zero_is_identity(self, result):
        assert result.trimmed(0.0) is result

    def test_trim_validation(self, result):
        with pytest.raises(ValueError):
            result.trimmed(1.0)
        with pytest.raises(ValueError):
            result.trimmed(-0.1)

    def test_summary_with_warmup(self, result):
        s = result.summary(warmup_fraction=0.5)
        assert s.n_jobs == 2
        assert s.mean_slowdown == pytest.approx(np.mean([4.0, 1.0]))


class TestClassSlowdowns:
    def test_split(self, result):
        short, long_ = result.class_mean_slowdowns(cutoff=3.0)
        # short: sizes 2,1 -> slowdowns 1.0, 4.0; long: 4,8 -> 1.5, 1.0
        assert short == pytest.approx(2.5)
        assert long_ == pytest.approx(1.25)

    def test_degenerate_cutoff_raises(self, result):
        with pytest.raises(ValueError):
            result.class_mean_slowdowns(0.5)
        with pytest.raises(ValueError):
            result.class_mean_slowdowns(100.0)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SimulationResult(
                policy_name="x",
                n_hosts=1,
                arrival_times=np.array([0.0, 1.0]),
                sizes=np.array([1.0]),
                wait_times=np.array([0.0, 0.0]),
                host_assignments=np.array([0, 0]),
            )

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError, match="negative wait"):
            SimulationResult(
                policy_name="x",
                n_hosts=1,
                arrival_times=np.array([0.0]),
                sizes=np.array([1.0]),
                wait_times=np.array([-0.5]),
                host_assignments=np.array([0]),
            )


class TestBatchMeans:
    def test_iid_ci_covers_mean(self, rng):
        x = rng.normal(10.0, 2.0, size=10_000)
        mean, half = batch_means_ci(x, n_batches=20)
        assert mean == pytest.approx(10.0, abs=0.2)
        assert half > 0
        assert abs(mean - 10.0) < 3 * half

    def test_requires_enough_data(self):
        with pytest.raises(ValueError):
            batch_means_ci(np.ones(10), n_batches=20)

    def test_correlated_data_widens_ci(self, rng):
        # AR(1) with strong correlation: batch-means CI should far exceed
        # the naive iid CI.
        n = 20_000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.normal(0.0, 1.0, n)
        for i in range(1, n):
            x[i] = 0.99 * x[i - 1] + eps[i]
        _, half = batch_means_ci(x, n_batches=20)
        naive = 1.96 * np.std(x) / np.sqrt(n)
        assert half > 3 * naive

    def test_slowdown_ci_smoke(self, small_c90_trace):
        from repro.core.policies import LeastWorkLeftPolicy
        from repro.sim.runner import simulate

        r = simulate(small_c90_trace, LeastWorkLeftPolicy(), 2, rng=0)
        mean, half = r.slowdown_ci(warmup_fraction=0.1)
        assert mean > 1.0 and half > 0.0
