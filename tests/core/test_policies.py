"""Unit tests for the policy objects (dispatch mechanics only)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import (
    CentralQueuePolicy,
    GroupedSITAPolicy,
    LeastWorkLeftPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SITAPolicy,
    ShortestQueuePolicy,
    TAGSPolicy,
    validate_cutoffs,
)
from repro.sim.jobs import Job


class FakeState:
    """Minimal SystemState stand-in for unit-testing choose_host."""

    def __init__(self, work, queues):
        self._work = np.asarray(work, dtype=float)
        self._queues = np.asarray(queues, dtype=int)
        self.n_hosts = self._work.size
        self.now = 0.0

    def work_left(self):
        return self._work

    def queue_lengths(self):
        return self._queues


def job(size: float, est: float | None = None) -> Job:
    return Job(0, 0.0, size, size_estimate=est)


class TestValidateCutoffs:
    def test_accepts_increasing(self):
        out = validate_cutoffs([1.0, 5.0, 100.0])
        assert list(out) == [1.0, 5.0, 100.0]

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            validate_cutoffs([5.0, 1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_cutoffs([5.0, 5.0])

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(ValueError):
            validate_cutoffs([0.0, 1.0])
        with pytest.raises(ValueError):
            validate_cutoffs([1.0, np.inf])

    def test_empty_ok(self):
        assert validate_cutoffs([]).size == 0


class TestRandom:
    def test_uniform_over_hosts(self):
        p = RandomPolicy()
        p.reset(4, np.random.default_rng(0))
        choices = [p.choose_host(job(1.0), None) for _ in range(4000)]
        counts = np.bincount(choices, minlength=4)
        assert np.all(counts > 800)

    def test_batch_shape(self):
        p = RandomPolicy()
        p.reset(3, np.random.default_rng(0))
        out = p.assign_batch(np.ones(100), np.random.default_rng(1))
        assert out.shape == (100,)
        assert out.min() >= 0 and out.max() < 3


class TestRoundRobin:
    def test_cycles(self):
        p = RoundRobinPolicy()
        p.reset(3, np.random.default_rng(0))
        seq = [p.choose_host(job(1.0), None) for _ in range(7)]
        assert seq == [0, 1, 2, 0, 1, 2, 0]

    def test_reset_restarts_cycle(self):
        p = RoundRobinPolicy()
        p.reset(2, np.random.default_rng(0))
        p.choose_host(job(1.0), None)
        p.reset(2, np.random.default_rng(0))
        assert p.choose_host(job(1.0), None) == 0

    def test_batch_matches_sequential(self):
        p = RoundRobinPolicy()
        p.reset(4, np.random.default_rng(0))
        batch = p.assign_batch(np.ones(10), np.random.default_rng(0))
        p.reset(4, np.random.default_rng(0))
        seq = [p.choose_host(job(1.0), None) for _ in range(10)]
        assert list(batch) == seq


class TestStatePolicies:
    def test_lwl_picks_min_work(self):
        p = LeastWorkLeftPolicy()
        p.reset(3, np.random.default_rng(0))
        state = FakeState(work=[5.0, 1.0, 9.0], queues=[1, 1, 1])
        assert p.choose_host(job(1.0), state) == 1

    def test_lwl_tie_breaks_low_index(self):
        p = LeastWorkLeftPolicy()
        p.reset(3, np.random.default_rng(0))
        state = FakeState(work=[0.0, 0.0, 0.0], queues=[0, 0, 0])
        assert p.choose_host(job(1.0), state) == 0

    def test_sq_picks_min_queue(self):
        p = ShortestQueuePolicy()
        p.reset(3, np.random.default_rng(0))
        state = FakeState(work=[0.0, 0.0, 0.0], queues=[3, 0, 2])
        assert p.choose_host(job(1.0), state) == 1


class TestSITA:
    def test_host_for_size(self):
        p = SITAPolicy([10.0, 100.0])
        p.reset(3, np.random.default_rng(0))
        assert p.host_for_size(5.0) == 0
        assert p.host_for_size(10.0) == 0  # boundary goes short
        assert p.host_for_size(50.0) == 1
        assert p.host_for_size(100.0) == 1
        assert p.host_for_size(5000.0) == 2

    def test_uses_estimate_not_size(self):
        p = SITAPolicy([10.0])
        p.reset(2, np.random.default_rng(0))
        j = job(size=100.0, est=5.0)
        assert p.choose_host(j, None) == 0

    def test_batch_matches_scalar(self):
        p = SITAPolicy([10.0, 100.0])
        p.reset(3, np.random.default_rng(0))
        sizes = np.array([1.0, 10.0, 11.0, 100.0, 101.0])
        batch = p.assign_batch(sizes, np.random.default_rng(0))
        scalar = [p.host_for_size(s) for s in sizes]
        assert list(batch) == scalar

    @pytest.mark.parametrize("n_cutoffs", range(1, 8))
    def test_threshold_batch_equals_searchsorted(self, n_cutoffs):
        from repro.serve.fastpath import FastPathState

        rng = np.random.default_rng(n_cutoffs)
        cutoffs = np.sort(rng.choice(np.arange(1, 1000), n_cutoffs, replace=False)) * 1.5
        p = SITAPolicy(cutoffs)
        p.reset(n_cutoffs + 1, rng)
        sizes = np.concatenate([
            cutoffs,  # exactly at each cutoff: the shorter host
            np.nextafter(cutoffs, np.inf),
            np.nextafter(cutoffs, 0.0),
            [np.nan, np.inf, -np.inf, 0.0, -0.0],
            rng.lognormal(5.0, 2.0, 500),
        ])
        batch = p.assign_batch(sizes, rng)
        expected = np.searchsorted(cutoffs, sizes, side="left")
        assert batch.dtype == expected.dtype
        assert np.array_equal(batch, expected)
        assert batch.tolist() == [p.host_for_size(s) for s in sizes]
        fast = FastPathState(n_cutoffs + 1, np.ones(n_cutoffs + 1), "sita", p)
        n = sizes.size
        routed = fast.route_batch(np.arange(n, dtype=float), np.ones(n), sizes)
        assert np.array_equal(routed, batch)

    def test_cutoff_count_enforced_on_reset(self):
        p = SITAPolicy([10.0])
        with pytest.raises(ValueError):
            p.reset(3, np.random.default_rng(0))


class TestGroupedSITA:
    def test_groups(self):
        p = GroupedSITAPolicy(cutoff=50.0, n_short_hosts=2)
        p.reset(5, np.random.default_rng(0))
        assert p.group_slice(short=True) == slice(0, 2)
        assert p.group_slice(short=False) == slice(2, 5)

    def test_dispatch_within_group(self):
        p = GroupedSITAPolicy(cutoff=50.0, n_short_hosts=2)
        p.reset(4, np.random.default_rng(0))
        state = FakeState(work=[9.0, 1.0, 7.0, 2.0], queues=[0, 0, 0, 0])
        assert p.choose_host(job(10.0), state) == 1  # short group: hosts 0-1
        assert p.choose_host(job(500.0), state) == 3  # long group: hosts 2-3

    def test_needs_a_long_host(self):
        p = GroupedSITAPolicy(cutoff=50.0, n_short_hosts=2)
        with pytest.raises(ValueError):
            p.reset(2, np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupedSITAPolicy(cutoff=-1.0, n_short_hosts=1)
        with pytest.raises(ValueError):
            GroupedSITAPolicy(cutoff=1.0, n_short_hosts=0)


class TestTAGSAndCentral:
    def test_tags_kind(self):
        p = TAGSPolicy([10.0])
        assert p.kind == "tags"
        p.reset(2, np.random.default_rng(0))

    def test_tags_needs_cutoffs(self):
        with pytest.raises(ValueError):
            TAGSPolicy([])

    def test_central_has_no_choose_host(self):
        p = CentralQueuePolicy()
        p.reset(2, np.random.default_rng(0))
        with pytest.raises(NotImplementedError):
            p.choose_host(job(1.0), None)

    def test_reset_validates_host_count(self):
        with pytest.raises(ValueError):
            RandomPolicy().reset(0, np.random.default_rng(0))
