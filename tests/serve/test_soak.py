"""Memory soaks of the online server: ``pytest -m soak``.

A long-running server must run in bounded memory: per-job rows only for
the jobs it has not folded (those in flight plus the last
``RETAINED_JOBS``), running totals for the rest.  Each soak drives a
long stream under tracemalloc and asserts that the traced peak over the
second half is no higher than over the first half plus ``SLACK``, a
constant that does not depend on the stream's length, and that the
accounting invariant holds throughout.  The inputs are made before
tracing starts, or chunk by chunk, so the test's own stream does not
count.

The soaks take tens of seconds, so ``pyproject.toml`` deselects the
``soak`` marker by default; CI runs them as their own step.
"""

from __future__ import annotations

import argparse
import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.policies import SITAPolicy
from repro.serve import DispatchServer
from repro.serve.fastpath import SETTLE_EVERY
from repro.serve.runner import add_serve_arguments, build_server
from repro.sim.jobs import Job
from repro.workloads.catalog import get_workload

pytestmark = pytest.mark.soak

#: How much higher the second half's peak may be: one settle window's
#: temporaries (eight float64 columns), nothing that scales with the
#: stream.
SLACK = 8 * 8 * SETTLE_EVERY

#: ``repro serve`` arguments of the serve-faulted benchmark workload:
#: Least-Work-Left on 4 hosts under seeded crashes, "resume" semantics.
FAULTED_ARGS = [
    "c90", "--policy", "lwl", "--hosts", "4", "--seed", "1",
    "--mtbf", "20000", "--mttr", "2000",
    "--fault-semantics", "resume", "--fault-seed", "3",
]


def faulted_server_and_trace(n_jobs: int, semantics: str = "resume"):
    parser = argparse.ArgumentParser()
    add_serve_arguments(parser)
    args = parser.parse_args([*FAULTED_ARGS, "--fault-semantics", semantics])
    trace = get_workload(args.workload).make_trace(
        load=args.load, n_hosts=args.hosts, n_jobs=n_jobs, rng=11
    )
    arrivals = trace.arrival_times - trace.arrival_times[0]
    return build_server(args), arrivals.tolist(), trace.service_times.tolist()


def assert_accounted(server) -> dict:
    status = server.status()
    assert all(status["invariant"].values()), status["invariant"]
    return status["counters"]


class HalfPeaks:
    """Traced peaks of the first and second half of a run."""

    def __init__(self) -> None:
        gc.collect()
        tracemalloc.start()
        self.first = None

    def halfway(self) -> None:
        self.first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()

    def check(self) -> None:
        """Fail as soon as the second half has gone above the bound."""
        peak = tracemalloc.get_traced_memory()[1]
        assert peak <= self.first + SLACK, (
            f"second-half peak {peak} B is above the first half's "
            f"{self.first} B by {peak - self.first} B (slack {SLACK} B)"
        )

    def stop(self) -> None:
        tracemalloc.stop()


def test_fast_path_five_million_decisions_in_flat_memory():
    # SITA on 2 hosts, at about half load on the long-job host, batch
    # 256: 77 chunks of 65,536 jobs, 5,046,272 decisions.
    chunk, n_chunks, batch = 65_536, 77, 256
    server = DispatchServer(2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0)
    rng = np.random.default_rng(7)
    last = 0.0
    peaks = HalfPeaks()
    try:
        for k in range(n_chunks):
            if k == n_chunks // 2:
                peaks.halfway()
            arrivals = last + np.cumsum(rng.exponential(1.0, chunk))
            sizes = rng.lognormal(0.0, 1.5, chunk) * 0.2
            last = float(arrivals[-1])
            for i in range(0, chunk, batch):
                server.submit_batch(arrivals[i : i + batch], sizes[i : i + batch])
            del arrivals, sizes
            assert_accounted(server)
            if peaks.first is not None:
                peaks.check()
        server.drain()
        counters = assert_accounted(server)
        peaks.check()
    finally:
        peaks.stop()
    n_jobs = chunk * n_chunks
    assert counters["completed"] == counters["accepted"] == n_jobs
    assert counters["in_flight"] == 0
    assert server.fast_path_status() == {
        "engaged": True, "mode": "sita", "handovers": 0, "decisions": n_jobs,
    }


def test_faulted_event_path_in_flat_memory():
    # The serve-faulted configuration, 200k scalar submits.
    n_jobs = 200_000
    server, arrivals, sizes = faulted_server_and_trace(n_jobs)
    peaks = HalfPeaks()
    try:
        for k, (t, s) in enumerate(zip(arrivals, sizes)):
            if k == n_jobs // 2:
                peaks.halfway()
            server.submit(s, t)
            if k % 20_000 == 19_999:
                assert_accounted(server)
                if peaks.first is not None:
                    peaks.check()
        server.drain()
        counters = assert_accounted(server)
        peaks.check()
    finally:
        peaks.stop()
    assert not server.fast_path_status()["engaged"]
    assert counters["in_flight"] == 0
    assert counters["crashes"] > 0
    assert counters["completed"] + counters["lost"] + counters["rejected"] == n_jobs


def test_lost_semantics_event_path_in_flat_memory():
    # The serve-faulted configuration with "lost" semantics: about one
    # job in nine is destroyed by a crash.  Each is counted; none is
    # kept past the fold point.
    n_jobs = 120_000
    server, arrivals, sizes = faulted_server_and_trace(
        n_jobs, semantics="lost"
    )
    peaks = HalfPeaks()
    try:
        for k, (t, s) in enumerate(zip(arrivals, sizes)):
            if k == n_jobs // 2:
                peaks.halfway()
            server.submit(s, t)
            if k % 20_000 == 19_999:
                assert_accounted(server)
                if peaks.first is not None:
                    peaks.check()
        server.drain()
        counters = assert_accounted(server)
        peaks.check()
    finally:
        peaks.stop()
    assert counters["in_flight"] == 0
    assert counters["lost"] > n_jobs // 20
    assert counters["completed"] + counters["lost"] + counters["rejected"] == n_jobs


def test_event_path_memory_per_completed_job():
    # The event path keeps at most one compact row per retained
    # completed job and drops its Job; the latency state has a fixed
    # size.  The serve-faulted configuration, 50k jobs.
    server, arrivals, sizes = faulted_server_and_trace(50_000)
    jobs = list(zip(arrivals, sizes))
    gc.collect()
    # Jobs alive before the run (other test modules keep some) are not
    # the server's; holding them keeps their ids from being reused.
    earlier = [o for o in gc.get_objects() if isinstance(o, Job)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        status = server.run_stream(jobs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    c = status["counters"]
    assert all(status["invariant"].values()), status["invariant"]
    assert c["in_flight"] == 0 and c["crashes"] > 0, c
    per_job = retained / c["completed"]
    assert per_job <= 100, f"{retained} B retained, {per_job:.1f} B per completed job"
    inner = server._inner
    held = {id(j) for j in (*inner._deferred, *inner._parked.values(), *earlier)}
    alive = {id(o) for o in gc.get_objects() if isinstance(o, Job)}
    assert alive <= held, f"{len(alive - held)} Job objects survive the drain"
