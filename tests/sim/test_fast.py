"""Unit tests for the vectorised simulation kernels."""

from __future__ import annotations

import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fast import _static_waits, fcfs_waits, lwl_waits, shortest_queue_waits


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

    def test_ties_go_to_smallest_v_then_lowest_index(self):
        # At t=10 every host is idle, with V = (3, 1, 1).  The first job
        # goes to host 1, not host 0: smallest V wins, and host 1 beats
        # host 2 on the equal V.  The next job takes host 2 (V=1).
        t = np.array([0.0, 0.0, 0.0, 10.0, 10.0])
        s = np.array([3.0, 1.0, 1.0, 1.0, 1.0])
        _, hosts = lwl_waits(t, s, 3)
        assert hosts.tolist() == [0, 1, 2, 1, 2]


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
