"""Tests for the fault-injection subsystem (crash/repair, semantics)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.policies import (
    CentralQueuePolicy,
    LeastWorkLeftPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    ShortestQueuePolicy,
    SITAPolicy,
    TAGSPolicy,
)
from repro.core.policies.base import nearest_live_host
from repro.core.policies.sita import GroupedSITAPolicy
from repro.sim.engine import Simulator
from repro.sim.faults import DRAW_BLOCK, FaultInjector, FaultModel
from repro.sim.jobs import Job
from repro.sim.runner import simulate
from repro.sim.server import DistributedServer
from repro.workloads.traces import Trace


def poisson_pareto_trace(n: int = 2000, seed: int = 1) -> Trace:
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0, n))
    sizes = rng.pareto(1.5, n) + 0.5
    return Trace(arrivals, sizes, name="faulty")


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="mtbf"):
            FaultModel(mtbf=0.0, mttr=1.0)
        with pytest.raises(ValueError, match="mttr"):
            FaultModel(mtbf=1.0, mttr=math.inf)
        with pytest.raises(ValueError, match="semantics"):
            FaultModel(mtbf=1.0, mttr=1.0, semantics="explode")
        with pytest.raises(ValueError, match="distribution"):
            FaultModel(mtbf=1.0, mttr=1.0, distribution="weibull")

    def test_infinite_mtbf_disables(self):
        fm = FaultModel(mtbf=math.inf, mttr=1.0)
        assert not fm.enabled
        assert fm.availability == 1.0

    def test_availability(self):
        fm = FaultModel(mtbf=9.0, mttr=1.0)
        assert fm.availability == pytest.approx(0.9)

    def test_injector_rejects_out_of_range_hosts(self):
        fm = FaultModel(mtbf=1.0, mttr=1.0, hosts=(0, 5))
        with pytest.raises(ValueError, match="outside"):
            FaultInjector(fm, n_hosts=2)

    def test_describe_is_stable(self):
        fm = FaultModel(mtbf=10.0, mttr=2.0, semantics="lost", seed=3)
        assert fm.describe() == FaultModel(
            mtbf=10.0, mttr=2.0, semantics="lost", seed=3
        ).describe()


class EpochRecorder:
    """The two server entry points a :class:`FaultInjector` calls, on a
    bare :class:`Simulator`: each records its host's epochs."""

    def __init__(self, n_hosts: int) -> None:
        self.sim = Simulator()
        self.hosts = [None] * n_hosts
        self.epochs: dict[int, list[tuple[str, float]]] = {
            h: [] for h in range(n_hosts)
        }

    def crash_host(self, host: int) -> None:
        self.epochs[host].append(("crash", self.sim.now))

    def repair_host(self, host: int) -> None:
        self.epochs[host].append(("repair", self.sim.now))


def reference_epochs(model: FaultModel, targets, horizon: float) -> dict:
    """Each targeted host's crash and repair epochs up to ``horizon``,
    with one ``Generator.exponential(mean)`` call per draw from the
    host's spawned stream, summed as ``schedule_after`` sums them."""
    epochs = {}
    seeds = np.random.SeedSequence(model.seed).spawn(len(targets))
    for host, seq in zip(targets, seeds):
        stream = np.random.default_rng(seq)
        out = []
        t = 0.0
        kind = "crash"
        while True:
            mean = model.mtbf if kind == "crash" else model.mttr
            if model.distribution == "deterministic":
                t = t + mean
            else:
                t = t + float(stream.exponential(mean))
            if t > horizon:
                break
            out.append((kind, t))
            kind = "repair" if kind == "crash" else "crash"
        epochs[host] = out
    return epochs


class TestBlockDraws:
    """The injector draws its durations a block at a time; its epochs
    equal one ``exponential(mean)`` call per draw, bit for bit."""

    @pytest.mark.parametrize("distribution", ["exponential", "deterministic"])
    @pytest.mark.parametrize("hosts", [None, (1, 3)])
    def test_epochs_equal_one_draw_per_call(self, distribution, hosts):
        model = FaultModel(
            mtbf=50.0, mttr=7.0, seed=9, hosts=hosts, distribution=distribution
        )
        recorder = EpochRecorder(4)
        injector = FaultInjector(model, 4)
        injector.attach(recorder)
        # About 3.5 blocks of draws per host: two draws per up/down cycle.
        horizon = 1.75 * DRAW_BLOCK * (model.mtbf + model.mttr)
        recorder.sim.run(until=horizon)
        expected = reference_epochs(model, injector.targets, horizon)
        for host in range(4):
            assert recorder.epochs[host] == expected.get(host, []), host
        for host in injector.targets:
            assert len(expected[host]) > 3 * DRAW_BLOCK
            assert injector.n_crashes[host] == (len(expected[host]) + 1) // 2


class TestDisabledFaultsBitIdentity:
    """Failure rate 0 must be bit-identical to no fault model at all."""

    @pytest.mark.parametrize(
        "policy_fn", [RandomPolicy, LeastWorkLeftPolicy, ShortestQueuePolicy]
    )
    def test_digest_matches_no_faults(self, policy_fn):
        trace = poisson_pareto_trace(800)
        base = simulate(trace, policy_fn(), 3, rng=7, backend="event")
        off = simulate(
            trace, policy_fn(), 3, rng=7,
            faults=FaultModel(mtbf=math.inf, mttr=1.0),
        )
        assert base.digest() == off.digest()


class TestDeterministicScenarios:
    """Hand-traceable single-host crash scenarios, strict mode on."""

    def one_host(self, semantics, trace, mtbf, mttr):
        faults = FaultModel(
            mtbf=mtbf, mttr=mttr, semantics=semantics, distribution="deterministic"
        )
        server = DistributedServer(1, RandomPolicy(), rng=0, strict=True,
                                   faults=faults)
        return server.run_trace(trace)

    def test_resume_keeps_progress(self):
        # size 9 at t=0; crash at 5 (done 5), repair at 8, finish at 12.
        trace = Trace([0.0], [9.0])
        result = self.one_host("resume", trace, mtbf=5.0, mttr=3.0)
        assert result.wait_times == pytest.approx([3.0])
        assert result.n_failures == 1
        assert result.n_lost == 0
        assert result.host_downtime == pytest.approx(3.0)

    def test_redispatch_restarts_from_scratch(self):
        # J0 runs [0,5); J1 (size 6) starts at 5, the crash at 7 wastes
        # its 2s of progress; after the repair at 10 it restarts from
        # zero and finishes at 16 (next crash only at 17).
        trace = Trace([0.0, 0.0], [5.0, 6.0])
        result = self.one_host("redispatch", trace, mtbf=7.0, mttr=3.0)
        assert result.wait_times == pytest.approx([0.0, 10.0])
        assert result.wasted_work == pytest.approx([0.0, 2.0])
        assert result.n_failures == 1

    def test_lost_job_never_completes(self):
        # J1 is in service when the host crashes at t=7 and is destroyed;
        # J0 completed untouched at t=5.
        trace = Trace([0.0, 0.0], [5.0, 6.0])
        result = self.one_host("lost", trace, mtbf=7.0, mttr=3.0)
        assert result.n_jobs == 1
        assert result.n_lost == 1
        assert result.sizes == pytest.approx([5.0])
        assert result.wait_times == pytest.approx([0.0])

    def test_arrivals_while_all_hosts_down_are_deferred(self):
        # Host down [7, 10); the job arriving at 8 is held at the
        # dispatcher and starts at the repair.
        trace = Trace([0.0, 8.0], [1.0, 1.0])
        result = self.one_host("resume", trace, mtbf=7.0, mttr=3.0)
        assert result.wait_times == pytest.approx([0.0, 2.0])


class TestCentralQueueCancellation:
    """Satellite: central-queue jobs survive a host crash correctly."""

    def run(self, semantics):
        # Host 0 crashes at t=4 and stays down past the horizon.
        faults = FaultModel(
            mtbf=4.0, mttr=1000.0, semantics=semantics, hosts=(0,),
            distribution="deterministic",
        )
        trace = Trace([0.0, 0.5, 1.0], [10.0, 10.0, 3.0])
        server = DistributedServer(
            2, CentralQueuePolicy(), rng=0, strict=True, faults=faults
        )
        return server.run_trace(trace)

    def test_redispatch_victim_reenters_queue_front(self):
        result = self.run("redispatch")
        # A ran [0,4) on host 0, re-queued ahead of C, re-ran [10.5,20.5)
        # on host 1; C follows [20.5,23.5).
        assert result.n_jobs == 3
        assert result.wait_times == pytest.approx([10.5, 0.0, 19.5])
        assert result.wasted_work == pytest.approx([4.0, 0.0, 0.0])
        assert list(result.host_assignments) == [1, 1, 1]

    def test_lost_victim_leaves_queue_intact(self):
        result = self.run("lost")
        # A is destroyed at t=4; B finishes at 10.5, C runs [10.5,13.5).
        assert result.n_jobs == 2
        assert result.n_lost == 1
        assert result.wait_times == pytest.approx([0.0, 9.5])

    def test_resume_finishes_after_repair(self):
        faults = FaultModel(
            mtbf=4.0, mttr=2.0, semantics="resume", hosts=(0,),
            distribution="deterministic",
        )
        trace = Trace([0.0, 0.5, 1.0], [10.0, 10.0, 3.0])
        server = DistributedServer(
            2, CentralQueuePolicy(), rng=0, strict=True, faults=faults
        )
        result = server.run_trace(trace)
        # A on host 0 is interrupted by both down windows [4,6) and
        # [10,12): legs [0,4)+[6,10)+[12,14) -> wait 4.  C takes host 1
        # when B frees it at 10.5 -> wait 9.5.
        assert result.n_jobs == 3
        assert result.wait_times == pytest.approx([4.0, 0.0, 9.5])


class TestStrictModeUnderFaults:
    """The runtime sanitizer holds across crash/repair for every
    semantics and policy kind (the satellite's invariant coverage)."""

    @pytest.mark.parametrize("semantics", ["lost", "redispatch", "resume"])
    @pytest.mark.parametrize(
        "policy_fn",
        [
            RandomPolicy,
            RoundRobinPolicy,
            ShortestQueuePolicy,
            LeastWorkLeftPolicy,
            CentralQueuePolicy,
            lambda: SITAPolicy([1.0, 2.0, 4.0], name="sita"),
            lambda: GroupedSITAPolicy(cutoff=2.0, n_short_hosts=2),
        ],
    )
    def test_invariants_hold(self, semantics, policy_fn):
        trace = poisson_pareto_trace(600, seed=4)
        faults = FaultModel(mtbf=80.0, mttr=15.0, semantics=semantics, seed=2)
        result = simulate(trace, policy_fn(), 4, rng=9, faults=faults, strict=True)
        assert result.n_jobs + result.n_lost == trace.n_jobs

    @pytest.mark.parametrize("semantics", ["lost", "redispatch", "resume"])
    def test_replays_are_bit_identical(self, semantics):
        trace = poisson_pareto_trace(600, seed=4)
        faults = FaultModel(mtbf=60.0, mttr=10.0, semantics=semantics, seed=2)
        a = simulate(trace, LeastWorkLeftPolicy(), 4, rng=9, faults=faults)
        b = simulate(trace, LeastWorkLeftPolicy(), 4, rng=9, faults=faults)
        assert a.digest() == b.digest()

    def test_different_fault_seed_changes_schedule(self):
        trace = poisson_pareto_trace(600, seed=4)
        a = simulate(
            trace, LeastWorkLeftPolicy(), 4, rng=9,
            faults=FaultModel(mtbf=60.0, mttr=10.0, seed=1),
        )
        b = simulate(
            trace, LeastWorkLeftPolicy(), 4, rng=9,
            faults=FaultModel(mtbf=60.0, mttr=10.0, seed=2),
        )
        assert a.digest() != b.digest()


class FakeState:
    def __init__(self, queues, work):
        self._queues = np.asarray(queues)
        self._work = np.asarray(work, dtype=float)

    def queue_lengths(self):
        return self._queues

    def work_left(self):
        return self._work

    def work_left_list(self):
        return self._work.tolist()


class TestFailureAwareDispatch:
    """choose_live_host skips down hosts and is the identity when all up."""

    def job(self, size=1.0):
        return Job(index=0, arrival_time=0.0, size=size)

    def test_nearest_live_host(self):
        assert nearest_live_host(2, np.array([True, False, False, False])) == 0
        assert nearest_live_host(1, np.array([True, False, True, False])) == 0
        with pytest.raises(ValueError, match="no live host"):
            nearest_live_host(0, np.zeros(3, dtype=bool))

    def test_random_skips_down_hosts(self):
        policy = RandomPolicy()
        policy.reset(4, np.random.default_rng(0))
        up = np.array([False, True, False, True])
        state = FakeState([0, 0, 0, 0], [0, 0, 0, 0])
        for _ in range(50):
            assert policy.choose_live_host(self.job(), state, up) in (1, 3)

    def test_random_identity_when_all_up(self):
        up = np.ones(4, dtype=bool)
        state = FakeState([0] * 4, [0] * 4)
        a, b = RandomPolicy(), RandomPolicy()
        a.reset(4, np.random.default_rng(5))
        b.reset(4, np.random.default_rng(5))
        for _ in range(50):
            assert a.choose_host(self.job(), state) == b.choose_live_host(
                self.job(), state, up
            )

    def test_round_robin_skips_down_hosts(self):
        policy = RoundRobinPolicy()
        policy.reset(3, np.random.default_rng(0))
        up = np.array([True, False, True])
        state = FakeState([0] * 3, [0] * 3)
        picks = [policy.choose_live_host(self.job(), state, up) for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_state_policies_skip_down_hosts(self):
        up = np.array([True, False, True])
        state = FakeState([5, 0, 9], [50.0, 0.0, 90.0])
        sq = ShortestQueuePolicy()
        sq.reset(3, np.random.default_rng(0))
        # Host 1 has the shortest queue but is down.
        assert sq.choose_live_host(self.job(), state, up) == 0
        lwl = LeastWorkLeftPolicy()
        lwl.reset(3, np.random.default_rng(0))
        assert lwl.choose_live_host(self.job(), state, up) == 0

    def test_sita_spills_to_nearest_live_host(self):
        policy = SITAPolicy([2.0, 10.0], name="sita")
        policy.reset(3, np.random.default_rng(0))
        state = FakeState([0] * 3, [0] * 3)
        # A short job belongs on host 0, which is down -> host 1.
        up = np.array([False, True, True])
        assert policy.choose_live_host(self.job(size=1.0), state, up) == 1
        # All up: interval routing unchanged.
        assert policy.choose_live_host(
            self.job(size=1.0), state, np.ones(3, dtype=bool)
        ) == 0

    def test_grouped_sita_spills_outside_dead_group(self):
        policy = GroupedSITAPolicy(cutoff=2.0, n_short_hosts=2)
        policy.reset(4, np.random.default_rng(0))
        state = FakeState([0] * 4, [1.0, 2.0, 3.0, 4.0])
        # Short group (hosts 0,1) entirely down -> nearest live host.
        up = np.array([False, False, True, True])
        assert policy.choose_live_host(self.job(size=1.0), state, up) == 2
        # One short host down -> LWL among the live short hosts.
        up = np.array([False, True, True, True])
        assert policy.choose_live_host(self.job(size=1.0), state, up) == 1


class TestRejections:
    def test_tags_plus_faults_rejected(self):
        with pytest.raises(ValueError, match="TAGS"):
            DistributedServer(
                2, TAGSPolicy([2.0]), rng=0,
                faults=FaultModel(mtbf=10.0, mttr=1.0),
            )

    def test_fast_backend_plus_faults_rejected(self):
        trace = poisson_pareto_trace(100)
        with pytest.raises(ValueError, match="event engine"):
            simulate(
                trace, RandomPolicy(), 2, rng=0, backend="fast",
                faults=FaultModel(mtbf=10.0, mttr=1.0),
            )


class TestKernelFallback:
    """Graceful degradation from a failing fast kernel to the engine."""

    def _break_fcfs(self, monkeypatch):
        import repro.sim.fast as fast

        monkeypatch.setattr(
            fast, "fcfs_waits",
            lambda t, s: np.full(np.asarray(t).size, np.nan),
        )

    def test_raise_by_default(self, monkeypatch, tiny_trace):
        self._break_fcfs(monkeypatch)
        from repro.sim.engine import InvariantViolation

        with pytest.raises(InvariantViolation, match="kernel"):
            simulate(tiny_trace, RandomPolicy(), 2, rng=0)

    def test_fallback_reruns_on_event_engine(self, monkeypatch, tiny_trace):
        reference = simulate(tiny_trace, RandomPolicy(), 2, rng=0, backend="event")
        self._break_fcfs(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = simulate(
                tiny_trace, RandomPolicy(), 2, rng=0, on_kernel_failure="fallback"
            )
        assert result.backend == "event-fallback"
        # Cross-validation: the fallback row equals a direct event run.
        assert result.wait_times == pytest.approx(reference.wait_times)
        assert list(result.host_assignments) == list(reference.host_assignments)

    def test_forced_fast_backend_still_raises(self, monkeypatch, tiny_trace):
        self._break_fcfs(monkeypatch)
        from repro.sim.engine import InvariantViolation

        with pytest.raises(InvariantViolation):
            simulate(
                tiny_trace, RandomPolicy(), 2, rng=0, backend="fast",
                on_kernel_failure="fallback",
            )


class TestLivelockDiagnosis:
    def test_impossible_fault_model_raises(self):
        # MTBF shorter than the job under re-dispatch: no progress ever.
        trace = Trace([0.0], [100.0])
        faults = FaultModel(
            mtbf=5.0, mttr=1.0, semantics="redispatch",
            distribution="deterministic",
        )
        server = DistributedServer(1, RandomPolicy(), rng=0, faults=faults)
        with pytest.raises(RuntimeError, match="availability"):
            server.run_trace(trace)

class TestMassRepairDrain:
    """All hosts down: deferred arrivals drain FCFS at the first repair."""

    def test_deferred_queue_drains_fcfs(self):
        # Both hosts crash at t=100 (deterministic draws) and repair at
        # t=150.  J0 anchors the trace at t=0 (arrivals are normalised to
        # the first arrival); J1..J3 arrive at 110/120/130 with every
        # host down and are held at the dispatcher.  Host 0's repair is
        # scheduled before host 1's (same timestamp, lower sequence
        # number), so the flush sees up=[True, False] and drains the
        # whole deferred queue FCFS onto host 0: J1 runs [150,160),
        # J2 [160,180), J3 [180,210) -> waits 40/40/50.
        faults = FaultModel(
            mtbf=100.0, mttr=50.0, semantics="resume",
            distribution="deterministic",
        )
        trace = Trace([0.0, 110.0, 120.0, 130.0], [1.0, 10.0, 20.0, 30.0])
        server = DistributedServer(
            2, LeastWorkLeftPolicy(), rng=0, strict=True, faults=faults
        )
        result = server.run_trace(trace)
        assert result.wait_times == pytest.approx([0.0, 40.0, 40.0, 50.0])
        assert list(result.host_assignments) == [0, 0, 0, 0]
        assert result.n_failures == 2
        assert result.host_downtime == pytest.approx(100.0)

    def test_drain_order_is_arrival_order(self):
        # FCFS property in isolation: with identical sizes the start
        # times (wait + arrival) of the deferred jobs must be
        # non-decreasing in arrival order.
        faults = FaultModel(
            mtbf=100.0, mttr=50.0, semantics="resume",
            distribution="deterministic",
        )
        arrivals = [0.0] + [105.0 + 5.0 * i for i in range(8)]
        trace = Trace(arrivals, [1.0] * 9)
        server = DistributedServer(
            2, LeastWorkLeftPolicy(), rng=0, strict=True, faults=faults
        )
        result = server.run_trace(trace)
        starts = np.asarray(arrivals) + np.asarray(result.wait_times)
        assert np.all(np.diff(starts[1:]) >= 0)


class TestAllUpBitIdentity:
    """choose_live_host(all-up) is bit-identical to choose_host for every
    per-job policy (satellite: 'every breaker closed' reduces to the
    fault-free dispatcher, RNG draws included)."""

    POLICIES = [
        RandomPolicy,
        RoundRobinPolicy,
        ShortestQueuePolicy,
        LeastWorkLeftPolicy,
        lambda: SITAPolicy([2.0, 10.0, 40.0], name="sita"),
        lambda: GroupedSITAPolicy(cutoff=2.0, n_short_hosts=2),
    ]

    @pytest.mark.parametrize("policy_fn", POLICIES)
    def test_sequence_identical(self, policy_fn):
        rng = np.random.default_rng(11)
        states = [
            FakeState(rng.integers(0, 6, 4), rng.uniform(0.0, 9.0, 4))
            for _ in range(40)
        ]
        sizes = rng.pareto(1.5, 40) + 0.5
        a, b = policy_fn(), policy_fn()
        a.reset(4, np.random.default_rng(3))
        b.reset(4, np.random.default_rng(3))
        up = np.ones(4, dtype=bool)
        for i, (state, size) in enumerate(zip(states, sizes)):
            job = Job(index=i, arrival_time=float(i), size=float(size))
            assert a.choose_host(job, state) == b.choose_live_host(job, state, up)


class TestScheduleIntrospection:
    """Satellite: explicit fault-schedule state + attach-time validation."""

    def test_disabled_state(self):
        inj = FaultInjector(FaultModel(mtbf=math.inf, mttr=1.0), n_hosts=2)
        status = inj.schedule_status()
        assert status["state"] == "disabled"
        assert status["total_crashes"] == 0

    def test_unattached_state(self):
        inj = FaultInjector(FaultModel(mtbf=5.0, mttr=1.0), n_hosts=2)
        assert inj.schedule_status()["state"] == "unattached"

    def test_active_state_and_down_now(self):
        faults = FaultModel(
            mtbf=4.0, mttr=1000.0, hosts=(0,), semantics="lost",
            distribution="deterministic",
        )
        trace = Trace([0.0, 0.5], [10.0, 3.0])
        server = DistributedServer(2, CentralQueuePolicy(), rng=0, faults=faults)
        server.run_trace(trace)
        status = server.fault_injector.schedule_status()
        assert status["state"] == "active"
        assert status["targets"] == [0]
        # Host 0 crashed at t=4 and its 1000s repair is still open.
        assert status["down_now"] == [0]
        assert status["crashes"] == {0: 1}

    def test_attach_rejects_unregistered_host(self):
        # Constructed against 4 hosts, attached to a 2-host server: the
        # out-of-range targets must fail loudly, not silently never crash.
        inj = FaultInjector(
            FaultModel(mtbf=5.0, mttr=1.0, hosts=(0, 3)), n_hosts=4
        )
        server = DistributedServer(2, RandomPolicy(), rng=0)
        with pytest.raises(ValueError, match="registered only hosts 0..1"):
            inj.attach(server)

    def test_double_attach_rejected(self):
        inj = FaultInjector(FaultModel(mtbf=5.0, mttr=1.0), n_hosts=1)
        server = DistributedServer(1, RandomPolicy(), rng=0)
        inj.attach(server)
        with pytest.raises(RuntimeError, match="already attached"):
            inj.attach(server)
