"""Tests for heterogeneous-speed hosts across the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sita_analysis import analyze_sita
from repro.core.cutoffs import fair_cutoff, opt_cutoff
from repro.core.search import analytic_cutoff_pair
from repro.core.policies import (
    CentralQueuePolicy,
    EstimatedLWLPolicy,
    GroupedSITAPolicy,
    LeastWorkLeftPolicy,
    RandomPolicy,
    SITAPolicy,
    ShortestQueuePolicy,
    TAGSPolicy,
)
from repro.sim.engine import Simulator
from repro.sim.runner import simulate
from repro.sim.server import DistributedServer
from repro.workloads.catalog import c90
from repro.workloads.traces import Trace


@pytest.fixture(scope="module")
def trace():
    return c90().make_trace(load=0.5, n_hosts=2, n_jobs=4_000, rng=61)


SPEEDS2 = np.array([2.0, 1.0])


class TestMechanics:
    def test_fast_host_halves_processing(self):
        t = Trace([0.0], [10.0])
        r = simulate(t, RandomPolicy(), 1, rng=0, host_speeds=np.array([2.0]))
        assert r.response_times[0] == pytest.approx(5.0)
        assert r.wait_times[0] == 0.0
        assert r.slowdowns[0] == pytest.approx(0.5)  # nominal-size slowdown

    def test_queueing_on_slow_host(self):
        t = Trace([0.0, 0.0], [10.0, 10.0])
        r = simulate(
            t, SITAPolicy([100.0]), 2, rng=0, host_speeds=np.array([0.5, 1.0])
        )
        # Both jobs to host 0 at speed 0.5: first takes 20s, second waits 20.
        assert r.wait_times[1] == pytest.approx(20.0)
        assert r.response_times[1] == pytest.approx(40.0)

    def test_unit_speeds_unchanged(self, trace):
        a = simulate(trace, LeastWorkLeftPolicy(), 2, rng=0)
        b = simulate(trace, LeastWorkLeftPolicy(), 2, rng=0,
                     host_speeds=np.array([1.0, 1.0]))
        np.testing.assert_array_equal(a.wait_times, b.wait_times)
        assert b.processing_times is None

    def test_validation(self, trace):
        with pytest.raises(ValueError):
            simulate(trace, RandomPolicy(), 2, rng=0, host_speeds=np.array([1.0]))
        with pytest.raises(ValueError):
            simulate(trace, RandomPolicy(), 2, rng=0,
                     host_speeds=np.array([1.0, -1.0]))

    def test_tags_rejects_speeds(self, trace):
        with pytest.raises(ValueError):
            simulate(trace, TAGSPolicy([1000.0]), 2, rng=0, host_speeds=SPEEDS2)

    def test_estimated_lwl_rejects_speeds_on_fast(self, trace):
        with pytest.raises(ValueError):
            simulate(trace, EstimatedLWLPolicy(), 2, rng=0,
                     host_speeds=SPEEDS2, backend="fast")


class TestNonFiniteSpeeds:
    """Every host-speed entry check rejects NaN and inf with a
    ``ValueError`` before any work is done."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_event_engine_rejects_at_entry(self, trace, bad, monkeypatch):
        def no_events(self, *args, **kwargs):
            raise AssertionError("an event ran")

        monkeypatch.setattr(Simulator, "run", no_events)
        policy = SITAPolicy([float(np.median(trace.service_times))])
        with pytest.raises(ValueError, match="positive and finite"):
            simulate(trace, policy, 2, rng=0, backend="event", host_speeds=[1.0, bad])
        with pytest.raises(ValueError, match="positive and finite"):
            DistributedServer(2, policy, host_speeds=[1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_analytic_cutoff_search_rejects(self, bad):
        d = c90().service_dist
        for search in (analytic_cutoff_pair, opt_cutoff, fair_cutoff):
            with pytest.raises(ValueError, match="positive and finite"):
                search(0.5, d, host_speeds=[1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sita_analysis_rejects(self, bad):
        d = c90().service_dist
        with pytest.raises(ValueError, match="positive and finite"):
            analyze_sita(0.0001, d, [1000.0], host_speeds=[1.0, bad])


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomPolicy(),
            lambda: SITAPolicy([20_000.0]),
            lambda: LeastWorkLeftPolicy(),
            lambda: ShortestQueuePolicy(),
        ],
        ids=["random", "sita", "lwl", "sq"],
    )
    def test_fast_equals_event(self, trace, factory):
        fast = simulate(trace, factory(), 2, rng=3, backend="fast",
                        host_speeds=SPEEDS2)
        event = simulate(trace, factory(), 2, rng=3, backend="event",
                         host_speeds=SPEEDS2)
        np.testing.assert_allclose(fast.wait_times, event.wait_times, atol=1e-6)
        np.testing.assert_array_equal(fast.host_assignments, event.host_assignments)
        np.testing.assert_allclose(
            fast.processing_times, event.processing_times, atol=1e-9
        )

    def test_grouped_sita_with_speeds(self, trace):
        policy = lambda: GroupedSITAPolicy(20_000.0, 1)
        speeds = np.array([2.0, 1.0, 1.0])
        fast = simulate(trace, policy(), 3, rng=3, backend="fast",
                        host_speeds=speeds)
        event = simulate(trace, policy(), 3, rng=3, backend="event",
                         host_speeds=speeds)
        np.testing.assert_allclose(fast.wait_times, event.wait_times, atol=1e-6)

    def test_central_fcfs_with_speeds_uses_event(self, trace):
        # Equivalence with LWL breaks on unequal speeds; auto routes to the
        # event engine and the fast backend refuses.
        r = simulate(trace, CentralQueuePolicy(), 2, rng=0, host_speeds=SPEEDS2)
        assert r.n_jobs == trace.n_jobs
        with pytest.raises(ValueError):
            simulate(trace, CentralQueuePolicy(), 2, rng=0,
                     host_speeds=SPEEDS2, backend="fast")


class TestHeterogeneousAnalysis:
    def test_speed_validation(self):
        d = c90().service_dist
        with pytest.raises(ValueError):
            analyze_sita(0.0001, d, [1000.0], host_speeds=[1.0])
        with pytest.raises(ValueError):
            analyze_sita(0.0001, d, [1000.0], host_speeds=[1.0, 0.0])

    def test_reduces_to_homogeneous(self):
        d = c90().service_dist
        lam = 2 * 0.5 / d.mean
        a = analyze_sita(lam, d, [20_000.0])
        b = analyze_sita(lam, d, [20_000.0], host_speeds=[1.0, 1.0])
        assert a.mean_slowdown == pytest.approx(b.mean_slowdown, rel=1e-12)

    def test_faster_long_host_helps(self):
        d = c90().service_dist
        lam = 2 * 0.6 / d.mean
        base = analyze_sita(lam, d, [20_000.0]).mean_slowdown
        boosted = analyze_sita(
            lam, d, [20_000.0], host_speeds=[1.0, 2.0]
        ).mean_slowdown
        assert boosted < base

    def test_against_simulation(self):
        """Analytic heterogeneous SITA matches simulation."""
        d = c90().service_dist
        load, speeds = 0.5, [2.0, 1.0]
        cutoff = opt_cutoff(load, d, host_speeds=speeds)
        trace = c90().make_trace(load=load, n_hosts=2, n_jobs=200_000, rng=71)
        # The trace was generated for 2 unit hosts; speeds (2,1) give
        # capacity 3, so the realised utilisations just drop — fine for an
        # agreement check.
        r = simulate(trace, SITAPolicy([cutoff]), 2, rng=0,
                     host_speeds=np.asarray(speeds))
        sim = r.summary(0.1).mean_slowdown
        lam = 2 * load / d.mean
        ana = analyze_sita(lam, d, [cutoff], host_speeds=speeds).mean_slowdown
        assert sim == pytest.approx(ana, rel=0.4)

    def test_fair_cutoff_with_speeds_equalises(self):
        d = c90().service_dist
        cf = fair_cutoff(0.7, d, host_speeds=[1.0, 2.0])
        lam = 2 * 0.7 / d.mean
        s_short, s_long = analyze_sita(
            lam, d, [cf], host_speeds=[1.0, 2.0]
        ).class_mean_slowdowns()
        assert s_short == pytest.approx(s_long, rel=1e-4)

    def test_fast_machine_belongs_to_the_longs(self):
        """The ablate_hetero headline, asserted analytically."""
        d = c90().service_dist
        load = 0.7
        lam = 2 * load / d.mean

        def best(speeds):
            c = opt_cutoff(load, d, host_speeds=list(speeds))
            return analyze_sita(lam, d, [c], host_speeds=list(speeds)).mean_slowdown

        assert best((1.0, 2.0)) < best((2.0, 1.0))


class TestWorkConservationWithSpeeds:
    def test_busy_time_scales_with_speed(self):
        trace = Trace([0.0, 100.0], [10.0, 10.0])
        server = DistributedServer(
            2, SITAPolicy([100.0]), rng=0, host_speeds=np.array([2.0, 1.0])
        )
        server.run_trace(trace)
        # Both jobs hit host 0 (all sizes below cutoff): 2 * 10/2 = 10s busy.
        assert server.hosts[0].busy_time == pytest.approx(10.0)
        assert server.hosts[1].busy_time == 0.0
