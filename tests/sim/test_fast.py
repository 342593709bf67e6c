"""Unit tests for the vectorised simulation kernels."""

from __future__ import annotations

import heapq
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimation import multiplicative_noise
from repro.core.policies import (
    EstimatedLWLPolicy,
    LeastWorkLeftPolicy,
    ShortestQueuePolicy,
    SITAPolicy,
)
from repro.experiments.base import ExperimentConfig
from repro.sim import fast, simulate
from repro.sim.engine import InvariantViolation, SimulationError
from repro.sim.fast import (
    _check_kernel_output,
    _fold_busy_periods,
    _lwl_hosts,
    _static_waits,
    estimated_lwl_waits,
    fcfs_starts,
    fcfs_waits,
    least_work_dispatch,
    lwl_waits,
    shortest_queue_dispatch,
    shortest_queue_waits,
)
from repro.sim.server import DistributedServer
from repro.workloads.catalog import c90, get_workload
from repro.workloads.traces import Trace


def brute_force_fcfs(arrivals, sizes):
    """Transparent O(n) reference Lindley recursion."""
    w = [0.0]
    for j in range(1, len(arrivals)):
        w.append(max(0.0, w[-1] + sizes[j - 1] - (arrivals[j] - arrivals[j - 1])))
    return np.array(w)


def brute_force_lwl(arrivals, sizes, h):
    """Reference LWL: explicit per-host virtual completion times."""
    v = [0.0] * h
    waits = []
    for t, s in zip(arrivals, sizes):
        work = [max(0.0, vi - t) for vi in v]
        i = int(np.argmin(work))
        waits.append(work[i])
        v[i] = t + work[i] + s
    return np.array(waits)


def reference_heap_lwl(arrivals, sizes, h):
    """The heappop/heappush form of the identical-host LWL heap loop.

    Pops the smallest ``(V, host)`` pair, starts the job at
    ``max(V, t)`` and pushes the host back.  Kept as the reference the
    single-``heapreplace`` kernel must reproduce bit for bit, host
    choices on ties included.
    """
    t_list = np.asarray(arrivals, dtype=float).tolist()
    s_list = np.asarray(sizes, dtype=float).tolist()
    waits = [0.0] * len(t_list)
    hosts = [0] * len(t_list)
    free = [(0.0, i) for i in range(h)]
    for j, (tj, sj) in enumerate(zip(t_list, s_list)):
        v, i = heapq.heappop(free)
        start = tj if v < tj else v
        waits[j] = start - tj
        hosts[j] = i
        heapq.heappush(free, (start + sj, i))
    return np.asarray(waits), np.asarray(hosts, dtype=int)


def reference_mask_static(arrivals, sizes, assignment, h, speeds):
    """Per-host Lindley over boolean masks (the plain form of the
    static-assignment kernel), returning ``(waits, durations)``."""
    waits = np.empty(arrivals.size)
    durations = np.empty(arrivals.size)
    for i in range(h):
        mask = assignment == i
        if np.any(mask):
            dur = sizes[mask] / speeds[i]
            waits[mask] = fcfs_waits(arrivals[mask], dur)
            durations[mask] = dur
    return waits, durations


def tie_heavy_jobs(rng, n):
    """Arrivals on a half-second grid with many exact repeats and sizes
    from {0.5, 1, 2, 3}: every sum is exact, so virtual completion times
    collide often and tie-breaking decides the host."""
    arrivals = np.cumsum(rng.choice([0.0, 0.0, 0.0, 0.5, 1.0], n))
    sizes = rng.choice([0.5, 1.0, 2.0, 3.0], n)
    return arrivals, sizes


class TestFcfsWaits:
    def test_empty(self):
        assert fcfs_waits(np.array([]), np.array([])).size == 0

    def test_single_job(self):
        assert fcfs_waits(np.array([3.0]), np.array([5.0])) == pytest.approx([0.0])

    def test_hand_example(self):
        # (t, s): (0,4) (1,2) (2,1) (3,8) (10,1)
        w = fcfs_waits(np.array([0.0, 1, 2, 3, 10]), np.array([4.0, 2, 1, 8, 1]))
        assert list(w) == pytest.approx([0.0, 3.0, 4.0, 4.0, 5.0])

    def test_matches_brute_force(self, rng):
        t = np.cumsum(rng.exponential(1.0, 500))
        s = rng.lognormal(0.0, 1.5, 500)
        np.testing.assert_allclose(fcfs_waits(t, s), brute_force_fcfs(t, s), atol=1e-9)

    def test_light_load_all_zero(self):
        t = np.arange(100, dtype=float) * 10.0
        s = np.ones(100)
        assert np.all(fcfs_waits(t, s) == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fcfs_waits(np.array([1.0, 2.0]), np.array([1.0]))


class TestLwlWaits:
    def test_matches_brute_force(self, rng):
        for h in (1, 2, 3, 8):
            t = np.cumsum(rng.exponential(1.0, 400))
            s = rng.lognormal(0.0, 1.5, 400)
            waits, _ = lwl_waits(t, s, h)
            np.testing.assert_allclose(waits, brute_force_lwl(t, s, h), atol=1e-9)

    def test_one_host_is_fcfs(self, rng):
        t = np.cumsum(rng.exponential(1.0, 300))
        s = rng.exponential(2.0, 300)
        waits, hosts = lwl_waits(t, s, 1)
        np.testing.assert_allclose(waits, fcfs_waits(t, s), atol=1e-12)
        assert np.all(hosts == 0)

    def test_hosts_in_range(self, rng):
        t = np.cumsum(rng.exponential(1.0, 200))
        s = rng.exponential(2.0, 200)
        _, hosts = lwl_waits(t, s, 4)
        assert hosts.min() >= 0 and hosts.max() < 4

    def test_more_hosts_never_worse(self, rng):
        t = np.cumsum(rng.exponential(0.5, 1000))
        s = rng.lognormal(0.0, 1.0, 1000)
        w2, _ = lwl_waits(t, s, 2)
        w4, _ = lwl_waits(t, s, 4)
        assert np.mean(w4) <= np.mean(w2) + 1e-12

    def test_invalid_hosts(self):
        with pytest.raises(ValueError):
            lwl_waits(np.array([0.0]), np.array([1.0]), 0)

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_bit_identical_to_heappop_heappush(self, h, n):
        for seed in range(8):
            t, s = tie_heavy_jobs(np.random.default_rng([h, n, seed]), n)
            waits, hosts = lwl_waits(t, s, h)
            ref_waits, ref_hosts = reference_heap_lwl(t, s, h)
            assert waits.dtype == ref_waits.dtype == np.float64
            assert hosts.dtype == ref_hosts.dtype
            assert np.array_equal(waits, ref_waits)
            assert np.array_equal(hosts, ref_hosts)

    @pytest.mark.parametrize("n", [1, 3000])
    def test_one_host_equals_fcfs_bitwise_on_exact_inputs(self, n):
        t, s = tie_heavy_jobs(np.random.default_rng(n), n)
        waits, hosts = lwl_waits(t, s, 1)
        assert np.array_equal(waits, fcfs_waits(t, s))
        assert np.all(hosts == 0)

    @pytest.mark.parametrize("h", [2, 4])
    @pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_chunk_boundaries(self, h, offset):
        # The heap loop walks the stream in _LWL_CHUNK-job chunks; a
        # stream ending just before, on or after a boundary must match
        # one unchunked walk exactly.
        chunks, extra = offset
        n = chunks * fast._LWL_CHUNK + extra
        for make in (random_jobs, tie_heavy_jobs):
            t, s = make(np.random.default_rng([h, n]), n)
            waits, hosts = lwl_waits(t, s, h)
            ref_waits, ref_hosts = reference_heap_lwl(t, s, h)
            assert np.array_equal(waits, ref_waits)
            assert np.array_equal(hosts, ref_hosts)

    def test_ties_go_to_smallest_v_then_lowest_index(self):
        # At t=10 every host is idle, with V = (3, 1, 1).  The first job
        # goes to host 1, not host 0: smallest V wins, and host 1 beats
        # host 2 on the equal V.  The next job takes host 2 (V=1).
        t = np.array([0.0, 0.0, 0.0, 10.0, 10.0])
        s = np.array([3.0, 1.0, 1.0, 1.0, 1.0])
        _, hosts = lwl_waits(t, s, 3)
        assert hosts.tolist() == [0, 1, 2, 1, 2]


def random_jobs(rng, n):
    """Continuous arrivals and sizes: completions never tie."""
    return np.cumsum(rng.exponential(1.0, n)), rng.lognormal(0.0, 1.5, n)


@pytest.fixture
def labelled_calls(monkeypatch):
    """Count the calls that take the labelled host path."""
    spy = mock.Mock(wraps=fast._labelled_lwl_hosts)
    monkeypatch.setattr(fast, "_labelled_lwl_hosts", spy)
    return spy


class TestLwlHostRecovery:
    """The bare-float heap plus bulk host recovery against the labelled
    ``(V, host)`` heap, on the inputs at the edges of the bulk rule."""

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 8])
    def test_short_streams(self, h, rng, labelled_calls):
        for n in sorted({0, 1, max(h - 1, 0), h, h + 1}):
            t, s = random_jobs(rng, n)
            waits, hosts = lwl_waits(t, s, h)
            ref_waits, ref_hosts = reference_heap_lwl(t, s, h)
            assert waits.dtype == np.float64 and hosts.dtype == np.int64
            assert np.array_equal(waits, ref_waits)
            assert np.array_equal(hosts, ref_hosts)
        # Only the empty stream takes the labelled path.
        assert labelled_calls.call_count == 1

    def test_first_jobs_take_hosts_in_index_order(self, labelled_calls):
        t = np.zeros(4)
        s = np.array([4.0, 3.0, 2.0, 1.0])
        _, hosts = lwl_waits(t, s, 4)
        assert hosts.tolist() == [0, 1, 2, 3]
        _, hosts = lwl_waits(np.append(t, 0.5), np.append(s, 1.25), 4)
        assert hosts.tolist() == [0, 1, 2, 3, 3]
        assert labelled_calls.call_count == 0

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_zero_size_takes_labelled_path(self, h, rng, labelled_calls):
        t, s = random_jobs(rng, 500)
        s[[0, 17, 250]] = 0.0
        waits, hosts = lwl_waits(t, s, h)
        ref_waits, ref_hosts = reference_heap_lwl(t, s, h)
        assert labelled_calls.call_count == 1
        assert np.array_equal(waits, ref_waits)
        assert np.array_equal(hosts, ref_hosts)

    @pytest.mark.parametrize("h", [1, 2])
    def test_nan_size_keeps_nan_waits(self, h, rng, labelled_calls):
        # On one or two hosts the NaN completion keeps returning to the
        # heap's root, as it does in the labelled heap, so later waits
        # are NaN and the kernel check fails.
        t, s = random_jobs(rng, 500)
        s[100] = np.nan
        waits, hosts = lwl_waits(t, s, h)
        assert labelled_calls.call_count == 1
        assert np.isnan(waits[101:]).any()
        ref_waits, _ = reference_heap_lwl(t[:101], s[:101], h)
        assert np.array_equal(waits[:101], ref_waits)
        assert hosts.min() >= 0 and hosts.max() < h
        with pytest.raises(InvariantViolation, match="non-finite"):
            _check_kernel_output("lwl", waits)

    def test_paper_workloads_stay_on_the_bulk_path(self, monkeypatch):
        """The labelled heap is for exact ties, non-positive sizes and
        non-finite values; no paper workload may land on it."""

        def labelled(*args):
            raise AssertionError("a paper workload took the labelled host path")

        monkeypatch.setattr(fast, "_labelled_lwl_hosts", labelled)
        cfg = ExperimentConfig(scale=0.2)
        for name in ("c90", "j90", "ctc"):
            w = get_workload(name)
            for h in (2, 4, 8):
                for load in cfg.sweep_loads():
                    tr = w.make_trace(load, h, n_jobs=cfg.jobs(w.n_jobs), rng=cfg.seed)
                    lwl_waits(tr.arrival_times, tr.service_times, h)

    @pytest.mark.parametrize("speeds", [None, "hetero"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("h", [2, 3, 4, 8])
    def test_non_finite_size_never_vanishes(self, h, bad, speeds):
        # From three identical hosts on, the NaN completion sinks to a
        # heap leaf and every later wait stays finite; the kernel itself
        # must then refuse.  Either way no result passes the kernel check.
        rng = np.random.default_rng([h, 100])
        host_speeds = None if speeds is None else np.linspace(1.0, 2.0, h)
        t, s = random_jobs(rng, 500)
        s[100] = bad
        try:
            waits, _ = lwl_waits(t, s, h, host_speeds)
        except InvariantViolation as exc:
            assert "non-finite completion" in str(exc)
        else:
            assert not np.isfinite(waits[101:]).all()
            with pytest.raises(InvariantViolation, match="non-finite"):
                _check_kernel_output("lwl", waits)

    @pytest.mark.parametrize("speeds", [None, "hetero"])
    @pytest.mark.parametrize("h", [3, 4, 8])
    def test_vanishing_nan_raises_in_the_kernel(self, h, speeds):
        # A stream whose NaN completion reaches no later wait: without the
        # kernel's own check every wait is finite and one host is lost.
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.exponential(1.0, 500))
        s = rng.exponential(1.5, 500)
        s[100] = np.nan
        host_speeds = None if speeds is None else np.linspace(1.0, 2.0, h)
        with pytest.raises(InvariantViolation, match="non-finite completion"):
            lwl_waits(t, s, h, host_speeds)

    @pytest.mark.parametrize("h", [2, 3, 4, 8])
    def test_non_finite_size_falls_back_to_the_engine(self, h, rng):
        # A trace's arrays are mutable, so a bad size can reach the kernel
        # after validation; the fallback reaches the engine, which then
        # names the non-finite event time.
        trace = Trace(*random_jobs(rng, 400))
        trace.service_times[150] = np.nan
        with pytest.raises(InvariantViolation):
            simulate(trace, LeastWorkLeftPolicy(), h, rng=0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            with pytest.raises(SimulationError, match="finite"):
                simulate(
                    trace, LeastWorkLeftPolicy(), h, rng=0, on_kernel_failure="fallback"
                )

    def test_nan_waits_fall_back_to_the_engine(self, rng, monkeypatch):
        t, s = random_jobs(rng, 400)
        trace = Trace(t, s)
        reference = simulate(trace, LeastWorkLeftPolicy(), 2, rng=0, backend="event")
        kernel = fast.lwl_waits

        def nan_size(arrivals, sizes, n_hosts, host_speeds=None):
            sizes = np.array(sizes)
            sizes[200] = np.nan
            return kernel(arrivals, sizes, n_hosts, host_speeds)

        monkeypatch.setattr(fast, "lwl_waits", nan_size)
        with pytest.raises(InvariantViolation):
            simulate(trace, LeastWorkLeftPolicy(), 2, rng=0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = simulate(
                trace, LeastWorkLeftPolicy(), 2, rng=0, on_kernel_failure="fallback"
            )
        assert result.backend == "event-fallback"
        assert np.array_equal(result.wait_times, reference.wait_times)
        assert np.array_equal(result.host_assignments, reference.host_assignments)

    @pytest.mark.parametrize("h", [2, 3, 4, 8])
    def test_tie_heavy_streams_take_labelled_path(self, h, labelled_calls):
        for seed in range(4):
            t, s = tie_heavy_jobs(np.random.default_rng([h, seed]), 2000)
            waits, hosts = lwl_waits(t, s, h)
            ref_waits, ref_hosts = reference_heap_lwl(t, s, h)
            assert np.array_equal(waits, ref_waits)
            assert np.array_equal(hosts, ref_hosts)
        assert labelled_calls.call_count == 4

    @pytest.mark.parametrize("h", [2, 4, 8])
    def test_c90_trace_250k_jobs(self, h, labelled_calls):
        trace = c90().make_trace(0.7, h, n_jobs=250_000, rng=20000731)
        t, s = trace.arrival_times, trace.service_times
        waits, hosts = lwl_waits(t, s, h)
        ref_waits, ref_hosts = reference_heap_lwl(t, s, h)
        assert labelled_calls.call_count == 0
        assert np.array_equal(waits, ref_waits)
        assert np.array_equal(hosts, ref_hosts)

    @pytest.mark.parametrize("h", [2, 8])
    def test_recovery_holds_two_int_buffers(self, h, rng):
        # Peak traced heap in units of one n-element array.  The jumping
        # rounds (about 16 at h=2) hold the two int64 buffers; a fresh
        # array per round, or a buffered ``np.take``, would add a third.
        n = 100_000
        t, s = random_jobs(rng, n)
        waits, _ = reference_heap_lwl(t, s, h)
        done = t + waits + s
        tracemalloc.start()
        try:
            hosts = _lwl_hosts(t, s, done, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(hosts, reference_heap_lwl(t, s, h)[1])
        assert peak / (8 * n) <= 2.6


def c90_stream(n=2000):
    """The first ``n`` jobs of 50,000 C90 jobs at load 0.9 on 2 hosts,
    seed 11.  A continuous-time stream on which the float expression
    matters: from job 76 on, a Shortest-Queue recursion that advances
    hosts by ``t + wait + size``, not ``start + size``, leaves the
    engine's starts."""
    trace = c90().make_trace(0.9, 2, n_jobs=50_000, rng=11)
    return Trace(trace.arrival_times[:n], trace.service_times[:n])


def random_stream(n=2000):
    return Trace(*random_jobs(np.random.default_rng(7), n))


def tie_heavy_stream(n=2000):
    return Trace(*tie_heavy_jobs(np.random.default_rng(7), n))


def unequal_speeds(h):
    """Speeds for ``h`` hosts, never all ones: [2, 1] and [1, 1, 0.5] at
    h = 2 and 3."""
    return {2: [2.0, 1.0], 3: [1.0, 1.0, 0.5]}.get(h, ([2.0, 1.0, 0.5, 1.0] * 2)[:h])


class TestDispatchKernelsEqualEngine:
    """Both dispatch kernels, and the ``simulate_fast`` entry points
    built on them, against the event engine: starts and hosts ``==``
    ``DistributedServer.run_trace``'s start and host columns, waits
    ``==`` its ``start − arrival``.  Least work left does not depend on
    the order of simultaneous events, so its streams include exact
    ties.  Shortest-Queue's run on continuous time only: on an exact
    completion/arrival tie ``run_trace`` handles the arrival first and
    the kernel the completion."""

    @staticmethod
    def engine(trace, policy, n_hosts, speeds=None, estimates=None):
        server = DistributedServer(n_hosts, policy, rng=1, host_speeds=speeds)
        server.run_trace(trace, size_estimates=estimates)
        start, host = server.completed_columns("start", "host")
        t = trace.arrival_times - trace.arrival_times[0]
        return t, trace.service_times, start, host.astype(np.int64)

    @pytest.mark.parametrize("h", range(1, 9))
    def test_least_work(self, h):
        speeds = unequal_speeds(h)
        for stream in (c90_stream, random_stream, tie_heavy_stream):
            t, s, start, host = self.engine(stream(), LeastWorkLeftPolicy(), h, speeds)
            hosts, starts = least_work_dispatch(t, s, speeds, [0.0] * h)
            assert np.array_equal(starts, start)
            assert np.array_equal(hosts, host)
            waits, hosts = lwl_waits(t, s, h, np.array(speeds))
            assert np.array_equal(waits, start - t)
            assert np.array_equal(hosts, host)

    @pytest.mark.parametrize(
        "speeds", [None, [1.0, 2.0, 0.5]], ids=["identical", "heterogeneous"]
    )
    def test_shortest_queue(self, speeds):
        h = 2 if speeds is None else len(speeds)
        for stream in (c90_stream, random_stream):
            t, s, start, host = self.engine(
                stream(), ShortestQueuePolicy(), h, speeds
            )
            hosts, starts = shortest_queue_dispatch(
                t, s, np.ones(h) if speeds is None else speeds,
                [0.0] * h, [deque() for _ in range(h)],
            )
            assert np.array_equal(starts, start)
            assert np.array_equal(hosts, host)
            waits, hosts = shortest_queue_waits(t, s, h, speeds)
            assert np.array_equal(waits, start - t)
            assert np.array_equal(hosts, host)

    @pytest.mark.parametrize("h", range(1, 9))
    def test_estimated_least_work(self, h):
        for stream in (c90_stream, random_stream, tie_heavy_stream):
            trace = stream()
            est = multiplicative_noise(trace.service_times, 4.0, rng=h)
            t, s, start, host = self.engine(
                trace, EstimatedLWLPolicy(), h, estimates=est
            )
            waits, hosts = estimated_lwl_waits(t, s, est, h)
            assert np.array_equal(waits, start - t)
            assert np.array_equal(hosts, host)


class TestStaticWaits:
    def test_matches_mask_reference_with_speeds_and_an_idle_host(self, rng):
        n = 2000
        t = np.cumsum(rng.exponential(1.0, n))
        s = rng.lognormal(0.0, 1.5, n)
        assignment = rng.choice([0, 2], n)  # host 1 gets no jobs
        speeds = np.array([1.0, 2.0, 0.5])
        waits, durations = _static_waits(t, s, assignment, 3, speeds)
        ref_waits, ref_durations = reference_mask_static(t, s, assignment, 3, speeds)
        assert np.array_equal(waits, ref_waits)
        assert np.array_equal(durations, ref_durations)

    def test_uniform_hosts_have_no_durations(self, rng):
        n = 2000
        t = np.cumsum(rng.exponential(1.0, n))
        s = rng.lognormal(0.0, 1.5, n)
        assignment = rng.integers(0, 3, n)
        speeds = np.ones(3)
        waits, durations = _static_waits(t, s, assignment, 3, speeds)
        assert durations is None
        ref_waits, _ = reference_mask_static(t, s, assignment, 3, speeds)
        assert np.array_equal(waits, ref_waits)


class TestAllocation:
    """Peak traced heap of the Lindley kernels, in units of one float64
    array of the trace's length.  Each fresh n-element temporary costs
    page faults on first touch, so these bound how many a kernel makes.
    The contract wrapper copies nothing, so the bounds hold with
    ``REPRO_SIM_STRICT=1`` as well."""

    N = 100_000

    @staticmethod
    def peak_in_arrays(fn, *args, n):
        tracemalloc.start()
        try:
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * n)

    def jobs(self):
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.exponential(1.0, self.N))
        s = rng.lognormal(0.0, 1.5, self.N)
        return t, s, rng

    def test_fcfs_waits_makes_two_arrays(self):
        t, s, _ = self.jobs()
        assert self.peak_in_arrays(fcfs_waits, t, s, n=self.N) <= 2.1

    def test_static_waits_on_uniform_hosts(self):
        # An 80/20 split, like SITA's short and long hosts.
        t, s, rng = self.jobs()
        assignment = (rng.random(self.N) >= 0.8).astype(int)
        peak = self.peak_in_arrays(
            _static_waits, t, s, assignment, 2, np.ones(2), n=self.N
        )
        assert peak <= 5.5

    def test_lwl_waits_holds_one_chunk_of_floats(self):
        # The heap loop's plain-float lists cover one chunk, not the
        # stream: about 5.2 arrays at four chunks (about 11–12 unchunked).
        n = 4 * fast._LWL_CHUNK
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.exponential(1.0, n))
        s = rng.lognormal(0.0, 1.5, n)
        for h in (2, 4):
            assert self.peak_in_arrays(lwl_waits, t, s, h, n=n) <= 6.0


class TestShortestQueueWaits:
    def test_single_host_is_fcfs(self, rng):
        t = np.cumsum(rng.exponential(1.0, 300))
        s = rng.exponential(2.0, 300)
        waits, _ = shortest_queue_waits(t, s, 1)
        np.testing.assert_allclose(waits, fcfs_waits(t, s), atol=1e-12)

    def test_ties_prefer_lowest_index(self):
        t = np.array([0.0, 0.0])
        s = np.array([5.0, 5.0])
        _, hosts = shortest_queue_waits(t, s, 3)
        assert list(hosts) == [0, 1]

    def test_counts_drive_choice(self):
        # Host 0 busy with a long job; a burst of shorts should spread out.
        t = np.array([0.0, 1.0, 2.0])
        s = np.array([100.0, 1.0, 1.0])
        _, hosts = shortest_queue_waits(t, s, 2)
        assert list(hosts) == [0, 1, 1]  # host1 empties before t=2

    def test_hand_example_waits(self):
        t = np.array([0.0, 0.0, 1.0])
        s = np.array([4.0, 4.0, 4.0])
        waits, hosts = shortest_queue_waits(t, s, 2)
        assert list(hosts) == [0, 1, 0]
        assert list(waits) == pytest.approx([0.0, 0.0, 3.0])


@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 50.0)),
        min_size=1,
        max_size=120,
    ),
)
@settings(max_examples=60, deadline=None)
def test_lwl_property_matches_brute_force(h, jobs):
    gaps = np.array([g for g, _ in jobs])
    sizes = np.array([s for _, s in jobs])
    arrivals = np.cumsum(gaps)
    waits, _ = lwl_waits(arrivals, sizes, h)
    expected = brute_force_lwl(arrivals, sizes, h)
    np.testing.assert_allclose(waits, expected, atol=1e-9)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(0.01, 50.0)),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_fcfs_property_matches_brute_force(jobs):
    gaps = np.array([g for g, _ in jobs])
    sizes = np.array([s for _, s in jobs])
    arrivals = np.cumsum(gaps)
    np.testing.assert_allclose(
        fcfs_waits(arrivals, sizes), brute_force_fcfs(arrivals, sizes), atol=1e-9
    )


def scalar_starts(arrivals, durations, v0):
    """The FCFS recursion as the event engine runs it, one job at a time."""
    v = float(v0)
    starts = []
    for t, d in zip(np.asarray(arrivals).tolist(), np.asarray(durations).tolist()):
        start = t if v < t else v
        starts.append(start)
        v = start + d
    return np.array(starts, dtype=float), v


def scalar_fold(arrivals, durations, first, v0):
    """``_fold_busy_periods``'s definition, one job at a time."""
    t = np.asarray(arrivals).tolist()
    d = np.asarray(durations).tolist()
    starts = [t[0] if v0 < t[0] else v0]
    for j in range(1, len(t)):
        starts.append(t[j] if first[j] else starts[-1] + d[j - 1])
    return np.array(starts, dtype=float)


def assert_starts_exact(arrivals, durations, v0):
    t = np.ascontiguousarray(arrivals, dtype=float)
    d = np.ascontiguousarray(durations, dtype=float)
    starts, v_end = fcfs_starts(t, d, v0)
    expected, v_expected = scalar_starts(t, d, v0)
    assert starts.dtype == np.float64
    assert np.array_equal(starts, expected)
    assert v_end == v_expected
    assert isinstance(v_end, float)
    return starts


def near_tie_stream(rng, n, base, spread):
    """Every arrival within ``spread`` ulps of the host's true backlog.

    Each job arrives a random number of ``np.nextafter`` steps either
    side of the previous job's exact completion, so whether it opens a
    busy period hangs on the last bits of a running sum — exactly where
    the approximate Lindley guess and the exact sums part ways.
    """
    d = rng.lognormal(0.0, 1.0, n)
    t = np.empty(n)
    v = base
    prev = -np.inf
    for j in range(n):
        tj = v
        step = int(rng.integers(-spread, spread + 1))
        toward = np.inf if step > 0 else -np.inf
        for _ in range(abs(step)):
            tj = np.nextafter(tj, toward)
        tj = max(tj, prev)
        t[j] = prev = tj
        v = (tj if v < tj else v) + d[j]
    return t, d


def vectorise_everything():
    """Send every input, however short, down the vector path."""
    return mock.patch.object(fast, "_FCFS_VECTOR_FROM", 1)


def count_folds(monkeypatch):
    folds = []
    real = fast._fold_busy_periods

    def counting(*args):
        folds.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(fast, "_fold_busy_periods", counting)
    return folds


class TestFcfsStarts:
    """``fcfs_starts`` against the scalar recursion, compared with ``==``.

    Every test here vectorises whatever the input's length; the length
    threshold has its own test below.
    """

    @pytest.fixture(autouse=True)
    def vector_path(self):
        with vectorise_everything():
            yield

    def test_empty(self):
        starts, v_end = fcfs_starts(np.empty(0), np.empty(0), 2.5)
        assert starts.shape == (0,)
        assert v_end == 2.5

    @pytest.mark.parametrize("v0", [0.0, 3.0, 7.5])
    def test_single_job(self, v0):
        starts = assert_starts_exact([3.0], [1.25], v0)
        assert starts[0] == max(3.0, v0)

    @pytest.mark.parametrize("offset", [-1.0, 0.0, 1.0, 1e6])
    def test_v0_below_at_and_above_first_arrival(self, rng, offset):
        t = np.cumsum(rng.exponential(1.0, 500)) + 10.0
        d = rng.lognormal(0.0, 1.5, 500) * 0.8
        assert_starts_exact(t, d, float(t[0]) + offset)

    def test_v0_one_ulp_either_side_of_first_arrival(self, rng):
        t = np.cumsum(rng.exponential(1.0, 200)) + 0.1
        d = rng.exponential(0.9, 200)
        for v0 in (np.nextafter(t[0], -np.inf), np.nextafter(t[0], np.inf)):
            assert_starts_exact(t, d, float(v0))

    def test_all_idle(self):
        t = np.arange(1, 101, dtype=float) * 10.0
        starts = assert_starts_exact(t, np.full(100, 0.5), 0.0)
        assert np.array_equal(starts, t)

    def test_one_long_busy_period(self, rng):
        t = np.cumsum(rng.exponential(1.0, 5000))
        d = rng.exponential(3.0, 5000)
        starts = assert_starts_exact(t, d, 0.0)
        assert np.all(starts[1:] > t[1:])

    def test_exact_ties_from_integer_streams(self, rng):
        # Integer arrivals and sizes: every sum is exact, so jobs often
        # arrive at the very instant the host frees up (v == t).
        for _ in range(20):
            t = np.cumsum(rng.integers(0, 4, 400)).astype(float)
            d = rng.integers(1, 5, 400).astype(float)
            v0 = float(rng.integers(0, 6))
            assert_starts_exact(t, d, v0)
            assert_starts_exact(t, d, float(t[0]))

    @pytest.mark.parametrize("base", [0.0, 1.0, 1e6, 1e9])
    @pytest.mark.parametrize("spread", [1, 3, 20])
    def test_ulp_near_ties(self, base, spread):
        rng = np.random.default_rng(int(base) % 9973 + spread)
        for _ in range(5):
            t, d = near_tie_stream(rng, 2000, base, spread)
            assert_starts_exact(t, d, base)

    def test_near_ties_take_more_than_one_round(self, monkeypatch):
        # The guess really is wrong on these streams: the refinement
        # rounds, not the guess, make the result exact.
        folds = count_folds(monkeypatch)
        t, d = near_tie_stream(np.random.default_rng(2), 2000, 1.0, 1)
        assert_starts_exact(t, d, 1.0)
        assert 1 < len(folds) <= fast._FCFS_START_ROUNDS
        # Later rounds refold only the suffix after the first wrong flag.
        assert folds == sorted(folds, reverse=True)

    def test_cascade_reaches_the_scalar_finish(self, monkeypatch):
        # One busy period whose backlog at each arrival is one ulp less
        # than at the one before (2**40 + j sits in one binade, so the
        # ulp is the same everywhere).  Guess that every job opens a
        # busy period: each round then proves only the first wrong
        # flag, the cascade outlasts the rounds and the scalar loop
        # finishes it.
        n = 4 * fast._FCFS_START_ROUNDS
        busy_until = 2.0**40 + np.arange(n)
        ulp = np.spacing(busy_until[0])
        t = busy_until - (n - np.arange(n)) * ulp
        t[0] = busy_until[0]
        d = np.ones(n)
        folds = count_folds(monkeypatch)
        monkeypatch.setattr(fast, "fcfs_waits", lambda a, s: np.zeros(a.shape[0]))
        starts = assert_starts_exact(t, d, 0.0)
        assert len(folds) == fast._FCFS_START_ROUNDS
        assert np.array_equal(starts, busy_until)

    def test_any_guess_gives_the_exact_answer(self, rng, monkeypatch):
        t = np.cumsum(rng.exponential(1.0, 3000))
        d = rng.lognormal(0.0, 1.5, 3000) * 0.7
        expected, v_expected = scalar_starts(t, d, 0.0)
        for guess in (np.zeros, np.ones, lambda n: rng.integers(0, 2, n)):
            monkeypatch.setattr(
                fast, "fcfs_waits", lambda a, s, g=guess: g(a.shape[0]).astype(float)
            )
            starts, v_end = fcfs_starts(t, d, 0.0)
            assert np.array_equal(starts, expected)
            assert v_end == v_expected

    def test_chained_calls_equal_one_call(self, rng):
        t = np.cumsum(rng.exponential(1.0, 3000))
        d = rng.lognormal(0.0, 1.5, 3000) * 0.9
        whole, v_whole = fcfs_starts(t, d, 0.0)
        v = 0.0
        parts = []
        for a, b in ((0, 1), (1, 700), (700, 701), (701, 3000)):
            starts, v = fcfs_starts(t[a:b], d[a:b], v)
            parts.append(starts)
        assert np.array_equal(np.concatenate(parts), whole)
        assert v == v_whole

    def test_inputs_untouched(self, rng):
        t = np.cumsum(rng.exponential(1.0, 300))
        d = rng.exponential(1.0, 300)
        t_copy, d_copy = t.copy(), d.copy()
        fcfs_starts(t, d, 5.0)
        assert np.array_equal(t, t_copy) and np.array_equal(d, d_copy)


@pytest.mark.parametrize(
    "m",
    [1, fast._FCFS_VECTOR_FROM - 1, fast._FCFS_VECTOR_FROM, 5000],
)
def test_fcfs_starts_vectorises_from_its_threshold(m, rng, monkeypatch):
    folds = count_folds(monkeypatch)
    t = np.cumsum(rng.exponential(1.0, m))
    d = rng.lognormal(0.0, 1.5, m) * 0.3
    assert_starts_exact(t, d, 0.0)
    assert bool(folds) == (m >= fast._FCFS_VECTOR_FROM)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 50.0)),
        min_size=1,
        max_size=200,
    ),
    st.floats(0.0, 100.0),
)
@settings(max_examples=80, deadline=None)
def test_fcfs_starts_property_matches_scalar(jobs, v0):
    gaps = np.array([g for g, _ in jobs])
    sizes = np.array([s for _, s in jobs])
    with vectorise_everything():
        assert_starts_exact(np.cumsum(gaps), sizes, v0)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 50.0), st.booleans()),
        min_size=1,
        max_size=200,
    ),
    st.floats(0.0, 100.0),
    st.sampled_from(["drawn", "all_true", "all_false"]),
)
@settings(max_examples=80, deadline=None)
def test_busy_period_fold_under_any_flags(jobs, v0, flags):
    t = np.cumsum([g for g, _, _ in jobs])
    d = np.array([s for _, s, _ in jobs])
    if flags == "drawn":
        first = np.array([f for _, _, f in jobs])
    else:
        first = np.full(len(jobs), flags == "all_true")
    got = _fold_busy_periods(t, d, first, v0)
    assert np.array_equal(got, scalar_fold(t, d, first, v0))


# ---------------------------------------------------------------------------
# kernel inputs: read-only, float32, strided, mismatched lengths
# ---------------------------------------------------------------------------

_N = 600  # above _FCFS_VECTOR_FROM, so fcfs_starts takes its vector path
_SPEEDS = np.array([1.0, 2.0, 0.5])


def _least_work(t, s, speeds):
    v = np.array([0.5, 0.0, 2.0])
    return (v, *least_work_dispatch(t, s, speeds, v))


def _shortest_queue(t, s, speeds):
    v = np.array([0.5, 0.0, 2.0])
    in_system = [deque([0.5]), deque(), deque([1.0, 2.0])]
    hosts, starts = shortest_queue_dispatch(t, s, speeds, v, in_system)
    return v, hosts, starts, np.array([len(d) for d in in_system])


#: name -> (kernel over its input arrays, extra inputs).  Every kernel
#: takes the job columns ``t, s`` first; the extra inputs follow.
#: Buffers a kernel writes are allocated inside the call.
KERNEL_CASES = {
    "fcfs_waits": (fcfs_waits, ()),
    "lwl_waits[identical]": (lambda t, s: lwl_waits(t, s, 3), ()),
    "lwl_waits[heterogeneous]": (lambda t, s, sp: lwl_waits(t, s, 3, sp), (_SPEEDS,)),
    "estimated_lwl_waits": (
        lambda t, s, e: estimated_lwl_waits(t, s, e, 3),
        ("estimates",),
    ),
    "shortest_queue_waits": (lambda t, s: shortest_queue_waits(t, s, 3), ()),
    "tags_waits": (fast.tags_waits, (np.array([1.0, 4.0]),)),
    "fcfs_starts": (lambda t, s: fcfs_starts(t, s, 5.0), ()),
    "least_work_dispatch": (_least_work, (_SPEEDS,)),
    "shortest_queue_dispatch": (_shortest_queue, (_SPEEDS,)),
}


def test_kernel_cases_cover_every_array_kernel():
    names = {name.partition("[")[0] for name in KERNEL_CASES}
    assert names == set(fast.__all__) - {"simulate_fast"}


def _kernel_inputs(name):
    rng = np.random.default_rng(20000731)
    t = np.cumsum(rng.exponential(1.0, _N))
    s = rng.exponential(2.4, _N)  # load 0.8 on three hosts
    _, extra = KERNEL_CASES[name]
    extra = tuple(
        s * rng.lognormal(0.0, 0.5, _N) if isinstance(x, str) else x.copy()
        for x in extra
    )
    return (t, s, *extra)


def _outputs(result):
    return list(result) if isinstance(result, tuple) else [result]


def assert_same_outputs(got, want):
    got, want = _outputs(got), _outputs(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)


class TestKernelInputs:
    """What every array kernel promises about its inputs.

    None writes an input, so read-only inputs give the same output as
    writable copies and come back byte-unchanged; the coercing kernels
    give the same output on float32 inputs as on their float64 copies;
    strided views give the same output as contiguous copies; and
    inputs of different lengths raise ``ValueError``.
    """

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_read_only_inputs_are_never_written(self, name):
        kernel = KERNEL_CASES[name][0]
        inputs = _kernel_inputs(name)
        before = [x.tobytes() for x in inputs]
        copies = [x.copy() for x in inputs]
        for x in inputs:
            x.flags.writeable = False
        assert_same_outputs(kernel(*inputs), kernel(*copies))
        assert [x.tobytes() for x in inputs] == before
        assert [x.tobytes() for x in copies] == before

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_float32_inputs_match_their_float64_copies(self, name):
        kernel = KERNEL_CASES[name][0]
        narrow = [x.astype(np.float32) for x in _kernel_inputs(name)]
        widened = [x.astype(np.float64) for x in narrow]
        assert_same_outputs(kernel(*narrow), kernel(*widened))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_strided_views_match_contiguous_copies(self, name):
        kernel = KERNEL_CASES[name][0]
        inputs = _kernel_inputs(name)
        views = [np.repeat(x, 2)[::2] for x in inputs]
        assert not any(v.flags.c_contiguous for v in views if v.size > 1)
        assert_same_outputs(kernel(*views), kernel(*inputs))

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_length_mismatch_raises(self, name):
        kernel = KERNEL_CASES[name][0]
        t, s, *extra = _kernel_inputs(name)
        with pytest.raises(ValueError):
            kernel(t, s[:-1], *extra)
        with pytest.raises(ValueError):
            kernel(t[:-1], s, *extra)


class TestEntryLengthChecks:
    """The workspace-free exact kernels check extents at their entry."""

    def test_fcfs_starts_rejects_unequal_columns(self):
        with pytest.raises(ValueError, match="equal-length"):
            fcfs_starts(np.arange(3.0), np.ones(5), 0.0)

    @pytest.mark.parametrize(
        "bad,kernel",
        [
            (bad, kernel)
            for bad in ("sizes", "host_speeds", "v")
            for kernel in ("least_work_dispatch", "shortest_queue_dispatch")
        ],
    )
    def test_dispatch_kernels_reject_wrong_extents(self, bad, kernel):
        args = {
            "arrival_times": np.arange(3.0),
            "sizes": np.ones(3),
            "host_speeds": np.ones(2),
            "v": np.zeros(2),
        }
        if kernel == "shortest_queue_dispatch":
            args["in_system"] = [deque(), deque()]
        args[bad] = np.resize(args[bad], args[bad].size + 1)
        with pytest.raises(ValueError, match="equal-length"):
            getattr(fast, kernel)(**args)

    def test_shortest_queue_dispatch_needs_a_deque_per_host(self):
        with pytest.raises(ValueError, match="one deque per host"):
            shortest_queue_dispatch(
                np.arange(3.0), np.ones(3), np.ones(2), np.zeros(2), [deque()]
            )


class TestHostSpeedChecks:
    """The per-job dispatch kernels and ``simulate_fast`` check
    ``n_hosts`` and ``host_speeds`` at entry: one speed per host, each
    finite and positive."""

    KERNELS = [fast.lwl_waits, fast.shortest_queue_waits]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "n_hosts,speeds",
        [(2, [1.0, 1.0, 0.5]), (3, [1.0, 0.5]), (2, [[1.0, 0.5]])],
        ids=["extra", "missing", "2-d"],
    )
    def test_speed_count_must_match_hosts(self, kernel, n_hosts, speeds):
        with pytest.raises(ValueError, match=r"host_speeds must have \d+ entries"):
            kernel(np.arange(6.0), np.full(6, 3.0), n_hosts, np.array(speeds))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_speeds_must_be_finite_and_positive(self, kernel, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            kernel(np.arange(6.0), np.full(6, 3.0), 2, np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_simulate_fast_rejects_non_finite_speeds(self, bad):
        trace = c90().make_trace(load=0.5, n_hosts=2, n_jobs=200, rng=1)
        policy = SITAPolicy([float(np.median(trace.service_times))])
        with pytest.raises(ValueError, match="positive and finite"):
            fast.simulate_fast(trace, policy, 2, rng=1, host_speeds=[1.0, bad])

    @pytest.mark.parametrize("n_hosts", [0, -1])
    def test_shortest_queue_needs_a_host(self, n_hosts):
        with pytest.raises(ValueError, match="n_hosts must be >= 1"):
            shortest_queue_waits(np.arange(6.0), np.full(6, 3.0), n_hosts)
