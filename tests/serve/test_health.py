"""Circuit-breaker and health-monitor unit tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.health import BREAKER_STATES, CircuitBreaker, HealthMonitor


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown=0.0)

    def test_starts_closed(self):
        b = CircuitBreaker()
        assert b.state(0.0) == "closed"
        assert b.allows(0.0)

    def test_trips_on_consecutive_failures_only(self):
        b = CircuitBreaker(failure_threshold=2, cooldown=10.0)
        b.record_failure(1.0)
        b.record_success(2.0)  # resets the consecutive count
        b.record_failure(3.0)
        assert b.state(4.0) == "closed"
        b.record_failure(4.0)
        assert b.state(4.0) == "open"
        assert not b.allows(4.0)
        assert b.n_trips == 1

    def test_cooldown_relaxes_to_half_open(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        assert b.state(9.99) == "open"
        assert b.state(10.0) == "half_open"
        assert b.allows(10.0)

    def test_half_open_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        b.record_success(10.0)
        assert b.state(10.0) == "closed"
        assert b.failures == 0

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        b.record_failure(10.0)  # trial failed
        assert b.state(15.0) == "open"
        assert b.state(20.0) == "half_open"
        assert b.n_trips == 2

    def test_open_ignores_stray_success(self):
        # While open nothing is dispatched, so a "success" observation
        # (e.g. a queued heartbeat) carries no information.
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        b.record_failure(0.0)
        b.record_success(5.0)
        assert b.state(5.0) == "open"

    def test_half_opens_at_is_the_first_half_open_instant(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        assert b.half_opens_at() == math.inf
        b.record_failure(0.0)
        assert b.half_opens_at() == 10.0
        b.record_success(10.0)
        assert b.half_opens_at() == math.inf

    @given(
        opened_at=st.floats(0.0, 1e9, allow_nan=False),
        cooldown=st.floats(1e-6, 1e7, allow_nan=False),
    )
    def test_half_opens_at_agrees_with_state(self, opened_at, cooldown):
        b = CircuitBreaker(failure_threshold=1, cooldown=cooldown)
        b.record_failure(opened_at)
        at = b.half_opens_at()
        assert b.state(at) == "half_open"
        assert b.state(math.nextafter(at, -math.inf)) == "open"

    def test_states_constant_is_exhaustive(self):
        assert set(BREAKER_STATES) == {"closed", "open", "half_open"}


class TestHealthMonitor:
    def make(self, n=3, **kw):
        mon = HealthMonitor(**kw)
        for i in range(n):
            mon.register_host(i)
        return mon

    def test_duplicate_registration_rejected(self):
        mon = self.make(1)
        with pytest.raises(ValueError, match="already registered"):
            mon.register_host(0)

    def test_unregistered_host_raises_with_roster(self):
        mon = self.make(2)
        with pytest.raises(KeyError, match=r"never registered.*\[0, 1\]"):
            mon.probe(7, True, 0.0)

    def test_up_mask_follows_beliefs(self):
        mon = self.make(3, failure_threshold=1, cooldown=50.0)
        mon.probe(1, False, 0.0)
        np.testing.assert_array_equal(
            mon.up_mask(1.0), np.array([True, False, True])
        )
        # After the cooldown the breaker half-opens back into the mask.
        np.testing.assert_array_equal(
            mon.up_mask(50.0), np.array([True, True, True])
        )

    def test_status_document(self):
        mon = self.make(2, failure_threshold=1)
        mon.probe(0, True, 0.0)
        mon.probe(1, False, 0.0)
        doc = mon.status(1.0)
        assert doc["0"]["state"] == "closed"
        assert doc["0"]["observations"] == {"ok": 1, "failed": 0}
        assert doc["1"]["state"] == "open"
        assert doc["1"]["trips"] == 1


class TestMaskCache:
    def make(self, n=3, **kw):
        mon = HealthMonitor(**kw)
        for i in range(n):
            mon.register_host(i)
        return mon

    def test_mask_is_cached_and_read_only(self):
        mon = self.make(3)
        m1 = mon.up_mask(1.0)
        assert m1 is mon.up_mask(2.0)  # same object, no rebuild
        with pytest.raises(ValueError):
            m1[0] = False

    def test_success_probes_do_not_invalidate(self):
        mon = self.make(2)
        m1 = mon.up_mask(0.0)
        # The dispatcher feeds a success probe back on every handoff;
        # on a clean breaker that must not thrash the cache.
        for k in range(5):
            mon.probe(0, True, float(k))
        assert mon.up_mask(5.0) is m1
        assert mon.breaker(0).n_successes == 5

    def test_failure_invalidates(self):
        mon = self.make(2, failure_threshold=1, cooldown=50.0)
        m1 = mon.up_mask(0.0)
        mon.probe(1, False, 0.0)
        m2 = mon.up_mask(1.0)
        assert m2 is not m1
        np.testing.assert_array_equal(m2, np.array([True, False]))

    def test_cooldown_expiry_invalidates_by_clock_alone(self):
        mon = self.make(2, failure_threshold=1, cooldown=50.0)
        mon.probe(1, False, 0.0)
        m_open = mon.up_mask(1.0)
        # within the validity window the cache holds...
        assert mon.up_mask(49.0) is m_open
        # ...and the open->half_open transition rebuilds it with no
        # intervening observation.
        m_half = mon.up_mask(50.0)
        assert m_half is not m_open
        np.testing.assert_array_equal(m_half, np.array([True, True]))

    def test_cooldown_boundary_that_rounds_early_still_rebuilds(self):
        # opened_at + cooldown rounds down to exactly `now`, where the
        # breaker's own test (now - opened_at >= cooldown) still reads
        # open; one ulp later it reads half-open.  A window ending at
        # the rounded sum would be empty, and the mask would stay stale
        # until the next observation.
        mon = self.make(2, failure_threshold=1, cooldown=2366.381330055404)
        mon.probe(0, False, 65159.29727227629)
        now = 67525.6786023317
        breaker = mon.breaker(0)
        assert breaker.opened_at + breaker.cooldown == now
        assert breaker.state(now) == "open"
        np.testing.assert_array_equal(mon.up_mask(now), [False, True])
        later = math.nextafter(now, math.inf)
        assert breaker.state(later) == "half_open"
        np.testing.assert_array_equal(mon.up_mask(later), [True, True])

    def test_any_live_follows_the_mask(self):
        mon = self.make(2, failure_threshold=1, cooldown=10.0)
        mon.up_mask(0.0)
        assert mon.any_live
        mon.probe(0, False, 1.0)
        mon.probe(1, False, 1.0)
        assert not mon.up_mask(2.0).any()
        assert not mon.any_live
        assert mon.up_mask(11.0).all()
        assert mon.any_live

    def test_success_after_failure_invalidates(self):
        mon = self.make(2, failure_threshold=2)
        mon.probe(0, False, 0.0)  # sub-threshold failure: closed, dirty
        m1 = mon.up_mask(1.0)
        mon.probe(0, True, 2.0)  # clears the failure streak
        assert mon.up_mask(3.0) is not m1

    def test_pristine_tracks_failure_evidence(self):
        mon = self.make(2, failure_threshold=2, cooldown=10.0)
        assert mon.pristine()
        mon.probe(0, True, 0.0)
        assert mon.pristine()  # successes keep it pristine
        mon.probe(0, False, 1.0)
        # Sub-threshold: the mask still allows host 0, but the monitor
        # is no longer pristine — this is what disengages the fast path.
        assert mon.up_mask(1.0).all()
        assert not mon.pristine()
        mon.probe(0, True, 2.0)
        assert mon.pristine()  # streak cleared: evidence gone

    def test_refresh_builds_no_array(self):
        mon = self.make(3, failure_threshold=1, cooldown=10.0)
        mon.probe(1, False, 0.0)
        assert mon.refresh(1.0) == (True, False, True)
        assert mon.any_live and mon._mask_cache is None
        mask = mon.up_mask(1.0)
        assert mask.tolist() == [True, False, True]
        assert mon.refresh(2.0) == (True, False, True)
        assert mon.up_mask(2.0) is mask


def breaker_fields(mon: HealthMonitor) -> list[tuple]:
    return [
        tuple(getattr(mon.breaker(i), name) for name in CircuitBreaker.__slots__)
        for i in mon.host_ids
    ]


class TestProbeAll:
    """A heartbeat round folds in exactly what one probe per host does."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_one_probe_per_host(self, seed):
        rng = np.random.default_rng(seed)
        one_call, per_host = HealthMonitor(2, 5.0), HealthMonitor(2, 5.0)
        for mon in (one_call, per_host):
            for i in range(4):
                mon.register_host(i)
        now = 0.0
        for _ in range(2000):
            now += float(rng.choice([0.0, 0.5, 1.0, 3.0]))
            healthy = (rng.random(4) < 0.7).tolist()
            one_call.probe_all(healthy, now)
            for i, ok in enumerate(healthy):
                per_host.probe(i, ok, now)
            assert breaker_fields(one_call) == breaker_fields(per_host)
            assert one_call.refresh(now) == per_host.refresh(now)
            assert one_call.pristine() == per_host.pristine()
        trips = sum(one_call.breaker(i).n_trips for i in range(4))
        assert trips > 0

    def test_unregistered_host_raises_with_roster(self):
        mon = HealthMonitor()
        mon.register_host(0)
        with pytest.raises(KeyError, match=r"never registered.*\[0\]"):
            mon.probe_all([True, True], 0.0)
