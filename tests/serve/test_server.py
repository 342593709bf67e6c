"""DispatchServer core: accounting, determinism, faults, degraded mode."""

from __future__ import annotations

import gc
import math
import sys
from collections import deque

import numpy as np
import pytest

from repro.core.policies import (
    CentralQueuePolicy,
    LeastWorkLeftPolicy,
    SITAPolicy,
)
from repro.serve import (
    AdmissionController,
    CutoffManager,
    DispatchServer,
    HealthMonitor,
)
from repro.sim.faults import FaultModel
from repro.sim.jobs import Job
from repro.sim.server import DistributedServer
from repro.workloads.traces import Trace


def stream(n=400, seed=3):
    """A Poisson/Pareto (arrival, size) stream starting at t=0."""
    rng = np.random.default_rng(seed)
    arrivals = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0, n - 1))])
    sizes = rng.pareto(1.5, n) + 0.5
    return list(zip(arrivals.tolist(), sizes.tolist()))


class TestValidation:
    def test_rejects_non_dispatch_policy_kinds(self):
        with pytest.raises(ValueError, match="immediate-dispatch"):
            DispatchServer(2, CentralQueuePolicy())

    def test_rejects_non_positive_heartbeat(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            DispatchServer(2, LeastWorkLeftPolicy(), heartbeat_interval=0.0)

    def test_refit_requires_single_cutoff_policy(self):
        mgr = CutoffManager(1.0, 4)
        with pytest.raises(ValueError, match="single-cutoff"):
            DispatchServer(
                4,
                SITAPolicy([1.0, 2.0, 4.0], name="sita"),
                cutoff_manager=mgr,
            )

    def test_submit_rejects_bad_size(self):
        server = DispatchServer(2, LeastWorkLeftPolicy())
        with pytest.raises(ValueError, match="size"):
            server.submit(0.0, 0.0)
        with pytest.raises(ValueError, match="size"):
            server.submit(math.inf, 0.0)

    def test_submit_rejects_decreasing_arrivals(self):
        server = DispatchServer(2, LeastWorkLeftPolicy())
        server.submit(1.0, 5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            server.submit(1.0, 4.0)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
    def test_submit_rejects_non_finite_arrival(self, arrival):
        server = DispatchServer(2, LeastWorkLeftPolicy())
        server.submit(1.0, 5.0)
        with pytest.raises(ValueError, match="arrival must be finite"):
            server.submit(1.0, arrival)
        # no state moved: the clock stays put and finite jobs still go in
        assert server.now == 5.0
        assert server.n_accepted == 1
        assert server.submit(1.0, 6.0)["outcome"] == "admitted"
        server.drain()
        assert server.counters()["completed"] == 2

    @pytest.mark.parametrize("arrival", [math.nan, math.inf])
    def test_submit_batch_rejects_non_finite_arrival_atomically(self, arrival):
        server = DispatchServer(2, LeastWorkLeftPolicy(), strict=True)
        with pytest.raises(ValueError, match="arrival must be finite"):
            server.submit_batch([0.0, 1.0, arrival, 3.0], [1.0] * 4)
        assert server.n_accepted == 0
        assert server.now == 0.0
        records = server.submit_batch([0.0, 1.0], [1.0, 1.0], collect=True)
        assert [r["outcome"] for r in records] == ["admitted"] * 2
        server.drain()
        assert server.counters()["completed"] == 2


class TestFaultFreeBitIdentity:
    """With no faults and every breaker closed, the online dispatcher is
    the batch simulator: same hosts, same waits, job for job."""

    def test_waits_match_batch_run(self):
        jobs = stream(400)
        trace = Trace([a for a, _ in jobs], [s for _, s in jobs])

        batch = DistributedServer(3, LeastWorkLeftPolicy(), rng=0, strict=True)
        reference = batch.run_trace(trace)

        server = DispatchServer(3, LeastWorkLeftPolicy(), seed=0, strict=True)
        status = server.run_stream(jobs)

        assert status["counters"]["completed"] == len(jobs)
        table = server.job_table()
        assert table["index"].tolist() == list(range(len(jobs)))
        waits = table["start"] - table["arrival"]
        assert waits.tolist() == pytest.approx(list(reference.wait_times))
        assert table["host"].tolist() == list(reference.host_assignments)


class TestAccounting:
    def test_invariant_and_deterministic_repeat(self):
        jobs = stream(300)
        runs = []
        for _ in range(2):
            server = DispatchServer(2, LeastWorkLeftPolicy(), seed=1, strict=True)
            status = server.run_stream(jobs)
            assert all(status["invariant"].values())
            assert status["counters"]["in_flight"] == 0
            runs.append((status["counters"], status["clock"]))
        assert runs[0] == runs[1]

    def test_rate_rejection_is_an_explicit_outcome(self):
        server = DispatchServer(
            2,
            LeastWorkLeftPolicy(),
            admission=AdmissionController(rate=0.5, burst=1.0),
        )
        first = server.submit(1.0, 0.0)
        second = server.submit(1.0, 0.0)
        assert first["outcome"] == "admitted"
        assert second == {"outcome": "rejected", "reason": "reject-rate", "host": None}
        server.drain()
        counters = server.counters()
        assert counters["accepted"] == 2
        assert counters["rejected_intake"] == 1
        assert counters["completed"] == 1
        assert counters["in_flight"] == 0

    def test_faulted_run_conserves_every_job(self):
        jobs = stream(300, seed=5)
        faults = FaultModel(mtbf=60.0, mttr=10.0, semantics="redispatch", seed=2)
        server = DispatchServer(
            2,
            LeastWorkLeftPolicy(),
            seed=1,
            strict=True,
            faults=faults,
            heartbeat_interval=10.0,
            health=HealthMonitor(cooldown=5.0),
        )
        status = server.run_stream(jobs)
        assert all(status["invariant"].values())
        c = status["counters"]
        assert c["accepted"] == len(jobs)
        assert c["accepted"] == c["completed"] + c["rejected"] + c["lost"]
        assert c["crashes"] > 0

    def test_jain_index_reported_over_completed_slowdowns(self):
        server = DispatchServer(2, LeastWorkLeftPolicy())
        status = server.run_stream(stream(100))
        assert 0.0 < status["jain_slowdown"] <= 1.0
        assert status["latency"]["decisions"] == 100


class TestGiveUp:
    def test_impossible_job_becomes_explicit_lost(self):
        # Under "redispatch" a job longer than every up-period restarts
        # from scratch at each crash and can never complete; the give-up
        # bound turns the livelock into an explicit "lost" outcome.
        faults = FaultModel(
            mtbf=5.0, mttr=1.0, semantics="redispatch",
            distribution="deterministic",
        )
        server = DispatchServer(
            1,
            LeastWorkLeftPolicy(),
            strict=True,
            faults=faults,
            give_up_after=3,
            heartbeat_interval=1.0,
            health=HealthMonitor(failure_threshold=1, cooldown=0.5),
        )
        status = server.run_stream([(0.0, 100.0)])
        c = status["counters"]
        assert c["lost"] == 1
        assert c["given_up"] == 1
        assert c["in_flight"] == 0
        assert all(status["invariant"].values())


class TestOverflowShedding:
    def test_deferred_cap_sheds_new_arrivals(self):
        # The only host is down and its breaker opens on the first failed
        # handoff; later arrivals go straight to the deferred queue,
        # whose single slot forces the rest to shed.
        faults = FaultModel(
            mtbf=10.0, mttr=1000.0, distribution="deterministic",
        )
        server = DispatchServer(
            1,
            LeastWorkLeftPolicy(),
            strict=True,
            faults=faults,
            max_retries=0,
            admission=AdmissionController(max_deferred=1),
            health=HealthMonitor(failure_threshold=1, cooldown=2000.0),
        )
        outcomes = [server.submit(1.0, 11.0 + i)["outcome"] for i in range(4)]
        assert outcomes[0] == "admitted"  # deferred after the failed handoff
        c = server.counters()
        assert c["deferred"] == 1
        # Arrivals 2..4: one rejected at intake (backlog full), the rest
        # also rejected — the queue never grows past its cap.
        assert c["rejected"] == 3
        assert c["deferred_peak"] == 1


class TestDegradedModeIntegration:
    def test_refit_updates_the_live_policy_cutoff(self):
        policy = SITAPolicy([5.0], name="sita")
        mgr = CutoffManager(5.0, 2, window=64, refit_every=64)
        server = DispatchServer(2, policy, cutoff_manager=mgr, strict=True)
        rng = np.random.default_rng(0)
        sizes = np.where(
            rng.random(200) < 0.8,
            rng.uniform(0.5, 2.0, 200),
            rng.uniform(50.0, 200.0, 200),
        )
        for i, s in enumerate(sizes):
            server.submit(float(s), float(i))
        server.drain()
        assert mgr.n_refits >= 1
        assert mgr.mode == "fitted"
        # The fitted cutoff was pushed into the policy object itself.
        assert float(policy.cutoffs[0]) == mgr.cutoff
        assert server.status()["cutoffs"]["mode"] == "fitted"

    def test_crash_contaminates_the_window(self):
        policy = SITAPolicy([5.0], name="sita")
        mgr = CutoffManager(5.0, 2, window=64, refit_every=64)
        faults = FaultModel(
            mtbf=50.0, mttr=5.0, semantics="resume",
            distribution="deterministic",
        )
        server = DispatchServer(
            2, policy, cutoff_manager=mgr, faults=faults,
            heartbeat_interval=5.0,
        )
        for i in range(80):
            server.submit(1.0 if i % 5 else 80.0, float(i))
        server.drain()
        assert mgr.contaminated
        assert mgr.mode == "fallback"
        assert "contaminated" in mgr.last_error
        assert mgr.cutoff == 5.0


def live_jobs() -> set[int]:
    gc.collect()
    return {id(o) for o in gc.get_objects() if isinstance(o, Job)}


def value_bytes(obj, seen=None) -> int:
    """Bytes held by ``obj`` and everything it contains.  Numbers count
    by value, so small integers the interpreter shares still count once
    per slot that holds them."""
    if isinstance(obj, (int, float)):
        return sys.getsizeof(obj)
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, deque)):
        children = list(obj)
    elif hasattr(obj, "__slots__"):
        children = [getattr(obj, k) for k in obj.__slots__ if hasattr(obj, k)]
    elif hasattr(obj, "__dict__"):
        children = [vars(obj)]
    else:
        children = []
    return sys.getsizeof(obj) + sum(value_bytes(c, seen) for c in children)


class TestBoundedMemory:
    """The event path keeps one compact row per completed job and the
    latency accounting stays the same size however long the stream."""

    @pytest.mark.parametrize("semantics", ["resume", "redispatch", "lost"])
    def test_no_job_outlives_a_faulted_drain(self, semantics):
        jobs = stream(1500, seed=6)
        faults = FaultModel(mtbf=60.0, mttr=10.0, semantics=semantics, seed=2)
        before = live_jobs()
        server = DispatchServer(
            4, LeastWorkLeftPolicy(), seed=1, faults=faults,
            heartbeat_interval=10.0, health=HealthMonitor(cooldown=5.0),
        )
        status = server.run_stream(jobs)
        c = status["counters"]
        assert c["crashes"] > 0 and c["in_flight"] == 0
        assert c["completed"] > len(jobs) // 2
        inner = server._inner
        # Lost and shed jobs are counted, not kept: a drained server
        # holds no Job at all.
        held = {id(j) for j in (*inner._deferred, *inner._parked.values())}
        assert held == set()
        assert live_jobs() - before == set()
        assert (inner.n_lost, inner.n_shed) == (c["lost"], c["rejected_overflow"])

    def test_latency_state_does_not_grow_with_the_stream(self):
        jobs = stream(20_000, seed=7)
        server = DispatchServer(4, LeastWorkLeftPolicy(), seed=1)
        parts = ("_inner", "_fastpath", "policy", "admission", "health")

        def own_bytes():
            return value_bytes(
                {k: v for k, v in vars(server).items() if k not in parts}
            )

        for t, s in jobs[:1000]:
            server.submit(s, t)
        small = own_bytes()
        for t, s in jobs[1000:]:
            server.submit(s, t)
        assert server.latency_summary()["decisions"] == len(jobs)
        # Slack for a running total that outgrows one machine word.
        assert own_bytes() <= small + 64


class TestLatencyHistogram:
    def test_buckets_tile_the_integers_at_most_a_sixteenth_wide(self):
        from repro.serve.server import _N_BUCKETS, _bucket, _bucket_mid

        values = [*range(0, 5000), *(2**k + d for k in range(12, 63) for d in (-1, 0, 1))]
        buckets = np.array([_bucket(v) for v in values])
        assert buckets.max() < _N_BUCKETS
        assert np.all(np.diff(buckets[:5000]) >= 0)
        mids = _bucket_mid(buckets)
        # The midpoint is within half a bucket, at most 1/32 of the value.
        rel = np.abs(mids - np.array(values, dtype=float)) / np.maximum(values, 1)
        assert rel[32:].max() <= 1 / 32
        assert rel[:32].max() <= 0.5

    def test_percentiles_track_the_exact_nearest_rank(self):
        from repro.serve.server import _Latency

        rng = np.random.default_rng(3)
        samples = np.rint(rng.lognormal(9.0, 1.2, 5000)).astype(int)
        lat = _Latency()
        for ns in samples.tolist():
            lat.record(ns, 1)
        got = lat.percentiles_us((50, 95, 99))
        ordered = np.sort(samples)
        exact = np.array([ordered[-(-q * 5000 // 100) - 1] for q in (50, 95, 99)]) / 1e3
        assert np.all(np.abs(got - exact) <= exact / 32)
        assert got[0] <= got[1] <= got[2]
        assert lat.decisions == 5000 and lat.job_ns == int(samples.sum())

    def test_a_batch_counts_at_its_per_job_mean(self):
        from repro.serve.server import _Latency

        lat = _Latency()
        lat.record(64 * 1000 + 63, 64)
        lat.record(5000, 0)  # a settle: in the totals, in no percentile
        assert lat.decisions == 64 and lat.calls == 2
        assert lat.decision_ns == 64 * 1000 + 63 + 5000
        p50, p99 = lat.percentiles_us((50, 99))
        assert p50 == p99 == pytest.approx(1.0, rel=1 / 32)
