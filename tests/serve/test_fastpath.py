"""The fault-free fast path: bit-identity, handover, batching, SIGKILL.

The contract under test (see :mod:`repro.serve.fastpath`): a fast-path
server is *indistinguishable* from an engine-path server on everything
the accounting can see — host assignments, counters, per-job fields,
Jain index — for any fault-free prefix, and hands the exact engine
state over the moment a breaker records failure evidence.

One deliberate exclusion: the *clock after drain* is not compared
between paths.  The engine drain overshoots (work-sized chunks), the
fast drain stops at the last completion epoch; both are legal "no work
left" instants.  Same-path runs (the soak, batch invariance, resume)
do compare clocks.

SITA, Random and Round-Robin defer their timing columns to
``FastPathState.settle`` (every ``SETTLE_EVERY`` records, and before
any read), so their long-stream cases run more than ``SETTLE_EVERY``
jobs; those engine references run without the sanitizer, which would
take seconds per thousand jobs.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    LeastWorkLeftPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    ShortestQueuePolicy,
    SITAPolicy,
)
from repro.serve import DispatchServer, HealthMonitor, SnapshotStore, serve_signature
from repro.serve import fastpath
from repro.serve import server as server_module
from repro.serve.fastpath import SETTLE_EVERY
from repro.sim.fast import shortest_queue_dispatch
from repro.sim.metrics import jain_fairness_index
from repro.sim.server import FoldedJobs, seq_sum

POLICIES = {
    "lwl": lambda n_hosts: LeastWorkLeftPolicy(),
    "sq": lambda n_hosts: ShortestQueuePolicy(),
    "random": lambda n_hosts: RandomPolicy(),
    "rr": lambda n_hosts: RoundRobinPolicy(),
    "sita": lambda n_hosts: SITAPolicy(
        [float(2**k) for k in range(n_hosts - 1)]
    ),
}


#: the fast-path modes that defer their timing columns to ``settle``.
DEFERRING = ("sita", "rr")


def stream(n, seed, size_scale=1.0):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0, n))
    sizes = rng.lognormal(0.0, 1.5, n) * size_scale
    return list(zip(arrivals.tolist(), sizes.tolist()))


def long_stream(seed, extra=3000):
    """Longer than one settle window, at about half load on 2 hosts."""
    return stream(SETTLE_EVERY + extra, seed, size_scale=0.3)


def make_pair(policy_name, n_hosts, strict=True, **kwargs):
    """A fast-path server and an engine-path server, same config."""
    servers = []
    for fast_path in (True, False):
        servers.append(
            DispatchServer(
                n_hosts,
                POLICIES[policy_name](n_hosts),
                seed=4,
                strict=strict,
                heartbeat_interval=10.0,
                fast_path=fast_path,
                **{k: v() if callable(v) else v for k, v in kwargs.items()},
            )
        )
    return servers


def columns(jobs):
    return [t for t, _ in jobs], [s for _, s in jobs]


JOB_COLUMNS = (
    "index", "arrival", "size", "host", "host_seq", "start", "completion"
)


def assert_same_jobs(a, b):
    """Equal job tables: same columns in the same order, dtypes and values
    (the event path's comes from completion-log rows)."""
    ta, tb = a.job_table(), b.job_table()
    assert list(ta) == list(tb) == list(JOB_COLUMNS)
    for column in JOB_COLUMNS:
        assert ta[column].dtype == tb[column].dtype, column
        assert np.array_equal(ta[column], tb[column]), column


class TestBitIdentity:
    """Fast path vs engine path on fault-free traces."""

    @settings(max_examples=15, deadline=None)
    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        n_hosts=st.integers(2, 4),
        n_jobs=st.integers(1, 120),
        seed=st.integers(0, 2**16),
    )
    def test_hypothesis_fast_equals_engine(self, policy, n_hosts, n_jobs, seed):
        jobs = stream(n_jobs, seed)
        fast, engine = make_pair(policy, n_hosts)
        hosts_fast = [fast.submit(s, t)["host"] for t, s in jobs]
        hosts_engine = [engine.submit(s, t)["host"] for t, s in jobs]
        assert hosts_fast == hosts_engine
        fast.drain()
        engine.drain()
        assert fast.counters() == engine.counters()
        assert_same_jobs(fast, engine)
        assert (
            fast.status()["jain_slowdown"] == engine.status()["jain_slowdown"]
        )

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_batched_fast_equals_engine(self, policy):
        jobs = stream(400, 13)
        fast, engine = make_pair(policy, 3)
        records = fast.submit_batch(
            [t for t, _ in jobs], [s for _, s in jobs], collect=True
        )
        hosts_engine = [engine.submit(s, t)["host"] for t, s in jobs]
        assert [r["host"] for r in records] == hosts_engine
        fast.drain()
        engine.drain()
        assert fast.counters() == engine.counters()
        assert_same_jobs(fast, engine)

    @pytest.mark.parametrize("n_hosts", [2, 3])
    def test_sita_special_estimates_route_alike_on_every_path(self, n_hosts):
        # NaN sorts above every cutoff in ``searchsorted``, so every
        # path must send it to the last host, as ``choose_host`` does.
        ests = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 2.0, math.nan]
        arrivals = [float(i) for i in range(len(ests))]
        sizes = [1.0 + 0.25 * i for i in range(len(ests))]
        batch, engine = make_pair("sita", n_hosts)
        scalar, _ = make_pair("sita", n_hosts)
        by_batch = batch.submit_batch(arrivals, sizes, ests, collect=True)
        by_scalar = [scalar.submit(s, t, e) for t, s, e in zip(arrivals, sizes, ests)]
        by_engine = [engine.submit(s, t, e) for t, s, e in zip(arrivals, sizes, ests)]
        hosts = [r["host"] for r in by_engine]
        assert hosts[0] == hosts[-1] == n_hosts - 1
        assert [r["host"] for r in by_batch] == hosts
        assert [r["host"] for r in by_scalar] == hosts
        for server in (batch, scalar, engine):
            server.drain()
        assert_same_jobs(batch, engine)
        assert_same_jobs(scalar, engine)

    @pytest.mark.parametrize("policy", ["lwl", "sq", "sita"])
    def test_batched_heterogeneous_speeds(self, policy):
        # Completions are start + size/speed on both paths.
        jobs = stream(400, 17)
        fast, engine = make_pair(policy, 3, host_speeds=[1.0, 2.0, 0.5])
        fast.submit_batch([t for t, _ in jobs], [s for _, s in jobs])
        for t, s in jobs:
            engine.submit(s, t)
        fast.drain()
        engine.drain()
        assert fast.counters() == engine.counters()
        assert_same_jobs(fast, engine)

    @staticmethod
    def check_mid_stream_status(policy, intake):
        jobs = stream(200, 21)
        fast, engine = make_pair(policy, 2)
        if intake == "batch":
            fast.submit_batch(*columns(jobs))
        else:
            for t, s in jobs:
                fast.submit(s, t)
        for t, s in jobs:
            engine.submit(s, t)
        sf, se = fast.status(), engine.status()
        assert sf["counters"] == se["counters"]
        assert sf["clock"] == se["clock"]
        assert sf["jain_slowdown"] == se["jain_slowdown"]
        assert sf["fast_path"]["engaged"]
        assert not se["fast_path"]["engaged"]

    def test_mid_stream_status_matches_engine(self):
        self.check_mid_stream_status("lwl", "scalar")

    @pytest.mark.parametrize(
        "policy,intake",
        [
            (policy, intake)
            for policy in sorted(POLICIES)
            for intake in ("scalar", "batch")
            if (policy, intake) != ("lwl", "scalar")  # the test above
        ],
    )
    def test_mid_stream_status_matches_engine_on_every_path(self, policy, intake):
        self.check_mid_stream_status(policy, intake)

    @pytest.mark.parametrize("policy", ["sita", "rr", "random"])
    def test_reads_at_random_points_change_nothing(self, policy):
        # Every read settles the deferred columns early, at a point the
        # settle window alone would not; none of it may show.
        jobs = long_stream(23)
        arrivals, sizes = columns(jobs)
        quiet, engine = make_pair(policy, 2, strict=False)
        nosy, _ = make_pair(policy, 2, strict=False)
        for i in range(0, len(jobs), 256):
            quiet.submit_batch(arrivals[i : i + 256], sizes[i : i + 256])
        rng = np.random.default_rng(31)
        pos = 0
        while pos < len(jobs):
            end = min(len(jobs), pos + int(rng.integers(1, 3000)))
            if rng.random() < 0.3:
                for t, s in jobs[pos:end]:
                    nosy.submit(s, t)
            else:
                nosy.submit_batch(arrivals[pos:end], sizes[pos:end])
            for t, s in jobs[pos:end]:
                engine.submit(s, t)
            pos = end
            assert nosy._fastpath.unsettled < SETTLE_EVERY
            read = int(rng.integers(3))
            if read == 0:
                sn, se = nosy.status(), engine.status()
                assert sn["counters"] == se["counters"]
                assert sn["jain_slowdown"] == se["jain_slowdown"]
            elif read == 1:
                assert nosy.counters() == engine.counters()
            else:
                # The completed jobs, as the event path's log holds them.
                assert_same_jobs(nosy, engine)
        for server in (quiet, nosy, engine):
            server.drain()
        assert nosy.status()["fast_path"]["engaged"]
        assert_same_jobs(nosy, quiet)
        assert_same_jobs(nosy, engine)
        jain = nosy.status()["jain_slowdown"]
        assert jain == quiet.status()["jain_slowdown"]
        assert jain == engine.status()["jain_slowdown"]

    @pytest.mark.parametrize("policy", DEFERRING)
    def test_unsettled_records_never_exceed_the_window(self, policy):
        jobs = stream(3 * SETTLE_EVERY + 17, 4, size_scale=0.3)
        arrivals, sizes = columns(jobs)
        server = DispatchServer(
            2, POLICIES[policy](2), seed=4, heartbeat_interval=10.0
        )
        fp = server._fastpath
        seen = []
        settle = fp.settle

        def watched():
            seen.append(fp.unsettled)
            settle()

        fp.settle = watched
        # One oversized batch, then scalar submits across a boundary.
        cut = 2 * SETTLE_EVERY + 100
        server.submit_batch(arrivals[:cut], sizes[:cut])
        assert fp.unsettled == cut % SETTLE_EVERY
        for t, s in jobs[cut:]:
            server.submit(s, t)
            assert fp.unsettled < SETTLE_EVERY
        assert seen[:3] == [SETTLE_EVERY] * 3
        assert max(seen) <= SETTLE_EVERY


class TestExactTies:
    """Integer streams, where a departure and an arrival often share an
    instant: the online event path, the online fast path and the
    Shortest-Queue kernel all count a departure at exactly ``t`` as gone
    before the arrival at ``t`` is routed."""

    def test_shortest_queue_agrees_job_by_job(self):
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.integers(0, 3, 3000)).astype(float)
        s = rng.integers(1, 6, 3000).astype(float)
        hosts, starts = shortest_queue_dispatch(
            t, s, np.ones(2), [0.0, 0.0], [deque(), deque()]
        )
        fast, engine = make_pair("sq", 2, strict=False)
        for server, engaged in ((fast, True), (engine, False)):
            records = server.submit_batch(t, s, collect=True)
            assert [r["host"] for r in records] == hosts.tolist()
            assert server.fast_path_status()["engaged"] is engaged
            server.drain()
            table = server.job_table()
            assert np.array_equal(table["host"], hosts)
            assert np.array_equal(table["start"], starts)
            assert np.array_equal(table["completion"], starts + s)
        assert fast.counters() == engine.counters()


class TestBatchInvariance:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_counters_identical_across_batch_sizes(self, policy):
        jobs = stream(1000, 11)
        results = []
        tables = []
        for batch_size in (1, 7, 256, 4096):
            server = DispatchServer(
                2, POLICIES[policy](2), seed=4, strict=True,
                heartbeat_interval=10.0,
            )
            status = server.run_stream(jobs, batch_size=batch_size)
            assert status["fast_path"]["engaged"]
            assert all(status["invariant"].values())
            lat = status["latency"]
            assert lat["p50_us"] <= lat["p95_us"] <= lat["p99_us"]
            results.append(
                (status["counters"], status["clock"], status["jain_slowdown"])
            )
            tables.append(server.job_table())
        assert all(r == results[0] for r in results[1:])
        for table in tables[1:]:
            assert table.keys() == tables[0].keys()
            for column in JOB_COLUMNS:
                assert np.array_equal(table[column], tables[0][column]), column

    def test_batch_snapshot_cadence_matches_scalar(self, tmp_path):
        jobs = stream(500, 3)

        def run(name, batch_size):
            store = SnapshotStore(
                tmp_path / f"{name}.json", serve_signature("cfg")
            )
            server = DispatchServer(
                2, LeastWorkLeftPolicy(), seed=4, strict=True,
                heartbeat_interval=10.0, snapshot_store=store,
                snapshot_every=100,
            )
            server.run_stream(jobs, batch_size=batch_size)
            return store.writes, json.loads((tmp_path / f"{name}.json").read_text())

        writes_scalar, doc_scalar = run("scalar", 1)
        writes_batch, doc_batch = run("batch", 128)
        assert writes_scalar == writes_batch
        assert doc_scalar["counters"] == doc_batch["counters"]
        assert doc_scalar["clock"] == doc_batch["clock"]

    def test_batch_validation_is_atomic(self):
        server = DispatchServer(
            2, LeastWorkLeftPolicy(), seed=4, strict=True,
            heartbeat_interval=10.0,
        )
        with pytest.raises(ValueError, match="positive and finite"):
            server.submit_batch([0.0, 1.0, 2.0], [1.0, -3.0, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            server.submit_batch([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
        # nothing was admitted or routed by the failed batches
        assert server.n_accepted == 0
        assert server.counters()["completed"] == 0
        assert server.submit_batch([0.0, 1.0], [1.0, 1.0]) == 2
        assert server.n_accepted == 2


class TestStreamErrors:
    """``run_stream`` checks the whole stream once, but an invalid job
    must fail exactly as offering the stream batch by batch did: every
    batch before the offender's is admitted and routed, and its batch
    raises ``submit_batch``'s (or, unbatched, ``submit``'s) own error
    with no state change."""

    N_JOBS = 800

    @staticmethod
    def corrupt(jobs, kind, k):
        t, s = jobs[k]
        if kind == "size":
            s = -1.0
        elif kind == "nan_size":
            s = math.nan
        elif kind == "inf_arrival":
            t = math.inf
        else:  # "decreasing"
            t = jobs[k - 1][0] - 0.5
        jobs[k] = (t, s)

    @staticmethod
    def offer_in_batches(server, jobs, batch_size):
        """The stream as consecutive ``submit_batch`` (or ``submit``)
        calls; returns the error message."""
        with pytest.raises(ValueError) as info:
            if batch_size == 1:
                for t, s in jobs:
                    server.submit(s, t)
            else:
                for i in range(0, len(jobs), batch_size):
                    server.submit_batch(*columns(jobs[i : i + batch_size]))
        return str(info.value)

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "engine"])
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    @pytest.mark.parametrize("where", ["inside", "boundary"])
    @pytest.mark.parametrize(
        "kind", ["size", "nan_size", "inf_arrival", "decreasing"]
    )
    def test_invalid_job_fails_as_batch_by_batch(
        self, kind, where, batch_size, fast_path
    ):
        k = 2 * batch_size + (3 if where == "inside" else 0)
        jobs = stream(self.N_JOBS, 8, size_scale=0.5)
        self.corrupt(jobs, kind, k)

        def make():
            return DispatchServer(
                2, SITAPolicy([1.0]), seed=4, strict=True,
                heartbeat_interval=10.0, fast_path=fast_path,
            )

        reference = make()
        message = self.offer_in_batches(reference, jobs, batch_size)
        expected = {
            "size": "job size must be positive and finite, got -1.0",
            "nan_size": "job size must be positive and finite, got nan",
            "inf_arrival": "arrival must be finite, got inf",
            "decreasing": "arrivals must be non-decreasing",
        }[kind]
        assert message.startswith(expected), message
        admitted = k - k % batch_size
        assert reference.n_accepted == admitted
        for source in (list, iter):
            server = make()
            with pytest.raises(ValueError) as info:
                server.run_stream(source(jobs), batch_size=batch_size)
            assert str(info.value) == message
            assert server.n_accepted == admitted
            assert server.counters() == reference.counters()
            assert_same_jobs(server, reference)
            assert server.status()["fast_path"]["engaged"] == fast_path

    def test_generator_stream_equals_list(self):
        jobs = stream(1500, 9)
        statuses = []
        for source in (list, iter):
            server = DispatchServer(
                2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0
            )
            status = server.run_stream(source(jobs), batch_size=256)
            statuses.append(
                (status["counters"], status["clock"], status["jain_slowdown"])
            )
        assert statuses[0] == statuses[1]

    @pytest.mark.parametrize("source", [list, iter], ids=["list", "iter"])
    @pytest.mark.parametrize(
        "jobs",
        [
            [(0.0, 1.0, 5.0), (2.0,)],
            [(0.0, 1.0, 5.0)],
            [(0.0, 1.0), (2.0,)],
            [(0.0, 1.0), 3.0],
        ],
        ids=["triple-then-single", "triple", "pair-then-single", "scalar"],
    )
    def test_every_element_must_be_a_pair(self, jobs, source):
        server = DispatchServer(
            2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0
        )
        with pytest.raises(ValueError, match="pairs"):
            server.run_stream(source(jobs))
        assert server.n_accepted == 0

    @pytest.mark.parametrize("source", [list, iter], ids=["list", "iter"])
    def test_list_pairs_read_as_tuples(self, source):
        jobs = stream(50, 2)
        statuses = []
        for stream_ in (jobs, source([list(job) for job in jobs])):
            server = DispatchServer(
                2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0
            )
            status = server.run_stream(stream_)
            statuses.append((status["counters"], status["jain_slowdown"]))
        assert statuses[0] == statuses[1]

    def test_malformed_stream_is_refused(self):
        server = DispatchServer(
            2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0
        )
        with pytest.raises(ValueError, match="pairs"):
            server.run_stream(iter([(0.0, 1.0), (1.0,)]), batch_size=4)
        assert server.n_accepted == 0


class TestJainOrder:
    """Jain's index sums the completed jobs' slowdowns strictly left to
    right in submission order on both paths, so it equals the index
    recomputed that way from the job table bit for bit, mid-stream and
    after drain."""

    @staticmethod
    def table_jain(server):
        """Jain's index of the table's slowdowns, summed left to right
        (the server's running sums); within rounding of
        ``jain_fairness_index``, whose ``np.sum`` adds pairwise."""
        table = server.job_table()
        assert server.n_completed == table["index"].size  # nothing folded
        assert np.all(np.diff(table["index"]) > 0)
        slowdowns = (table["completion"] - table["arrival"]) / table["size"]
        total = squares = 0.0
        for v in slowdowns.tolist():
            total += v
            squares += v * v
        jain = total**2 / (slowdowns.size * squares)
        assert math.isclose(jain, jain_fairness_index(slowdowns), rel_tol=1e-12)
        return jain

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_jain_sums_in_submission_order(self, policy):
        # Near saturation, so completions overtake submissions often.
        jobs = stream(600, 17, size_scale=0.8)
        fast, engine = make_pair(policy, 3, strict=False)
        for server in (fast, engine):
            server.submit_batch(*columns(jobs[:400]))
            jain = server.status()["jain_slowdown"]
            assert 0 < server.n_completed < 400
            assert jain == self.table_jain(server)
            server.submit_batch(*columns(jobs[400:]))
            server.drain()
            assert server.status()["jain_slowdown"] == self.table_jain(server)
        assert fast.status()["fast_path"]["engaged"]
        assert not engine.status()["fast_path"]["engaged"]
        assert fast.status()["jain_slowdown"] == engine.status()["jain_slowdown"]

    def test_status_survives_slowdowns_whose_squares_overflow(self):
        # The third job waits behind 1e300 of work: its slowdown squared
        # overflows a float, and so did every status after it.
        # Each status is right and prints no warning.
        server = DispatchServer(2, LeastWorkLeftPolicy())
        server.submit_batch([0.0, 0.0, 0.0], [1e300, 1e300, 1.0])
        server.drain()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                status = server.status()
                assert math.isclose(status["jain_slowdown"], 1 / 3)
        assert status["fast_path"]["engaged"]

    @staticmethod
    def unscaled_jain(values):
        """The index as the sums give it, before any overflow fallback;
        ``None`` where those sums overflow."""
        denom = values.size * seq_sum(0.0, values * values)
        if math.isinf(denom):
            return None
        try:
            return seq_sum(0.0, values) ** 2 / denom
        except OverflowError:
            return None

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.floats(1.0, 1e6), st.floats(1e150, 1.7e308)),
            min_size=1,
            max_size=40,
        ),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    def test_jain_is_the_unscaled_index_unless_it_overflows(self, values, cuts):
        v = np.array(values)
        folded = FoldedJobs()
        start = 0
        with np.errstate(over="ignore"):
            for cut in sorted(min(c, v.size) for c in cuts):
                folded.add(v[start:cut])
                start = cut
            folded.at = start
            jain = folded.jain(v[start:])
            expected = self.unscaled_jain(v)
        if expected is not None:
            assert jain == expected
        else:
            assert (1 - 1e-9) / v.size <= jain <= 1 + 1e-9


class TestHandover:
    """The LWL tests hand over with every record settled; their
    ``_deferred`` twins run SITA and Round-Robin, whose unsettled
    records the handover must settle first."""

    def breaker_pair(self, policy_name, strict=True):
        return make_pair(
            policy_name, 2, strict=strict,
            health=lambda: HealthMonitor(failure_threshold=1, cooldown=20.0),
        )

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_failure_mid_stream_hands_over_exactly(self, policy):
        jobs = stream(600, 5)
        fast, engine = self.breaker_pair(policy)
        hosts_fast, hosts_engine = [], []
        for k, (t, s) in enumerate(jobs):
            if k == 300:
                # Failure evidence out of band (a probe the operator or
                # fault layer feeds in): trips the breaker immediately
                # with failure_threshold=1.
                fast.health.probe(0, False, fast.now)
                engine.health.probe(0, False, engine.now)
            hosts_fast.append(fast.submit(s, t)["host"])
            hosts_engine.append(engine.submit(s, t)["host"])
        assert hosts_fast == hosts_engine
        fp = fast.status()["fast_path"]
        assert not fp["engaged"]
        assert fp["handovers"] == 1
        fast.drain()
        engine.drain()
        assert fast.counters() == engine.counters()
        # after handover both are on the engine path: clocks match too
        assert fast.now == engine.now
        assert_same_jobs(fast, engine)
        assert (
            fast.status()["jain_slowdown"] == engine.status()["jain_slowdown"]
        )

    def check_failure_between_batches(self, policy, jobs, split, strict):
        fast, engine = self.breaker_pair(policy, strict)
        arr, siz = columns(jobs)
        fast.submit_batch(arr[:split], siz[:split])
        for t, s in jobs[:split]:
            engine.submit(s, t)
        fast.health.probe(0, False, fast.now)
        engine.health.probe(0, False, engine.now)
        records = fast.submit_batch(arr[split:], siz[split:], collect=True)
        hosts_engine = [engine.submit(s, t)["host"] for t, s in jobs[split:]]
        assert [r["host"] for r in records] == hosts_engine
        assert not fast.status()["fast_path"]["engaged"]
        fast.drain()
        engine.drain()
        assert fast.counters() == engine.counters()
        assert_same_jobs(fast, engine)
        assert (
            fast.status()["jain_slowdown"] == engine.status()["jain_slowdown"]
        )

    def test_failure_between_batches_hands_over(self):
        self.check_failure_between_batches("lwl", stream(600, 8), 300, True)

    @pytest.mark.parametrize("policy", DEFERRING)
    def test_failure_between_batches_hands_over_deferred(self, policy):
        # The first batch spans a settle window and leaves 1000 records
        # unsettled at the failure.
        jobs = long_stream(8)
        self.check_failure_between_batches(
            policy, jobs, SETTLE_EVERY + 1000, False
        )

    def check_drain_after_failure(self, policy):
        jobs = stream(100, 2)
        fast, engine = self.breaker_pair(policy)
        for t, s in jobs:
            fast.submit(s, t)
            engine.submit(s, t)
        fast.health.probe(1, False, fast.now)
        engine.health.probe(1, False, engine.now)
        fast.drain()
        engine.drain()
        assert not fast.status()["fast_path"]["engaged"]
        assert fast.counters() == engine.counters()
        assert fast.now == engine.now
        assert_same_jobs(fast, engine)

    def test_drain_after_failure_hands_over(self):
        self.check_drain_after_failure("lwl")

    @pytest.mark.parametrize("policy", DEFERRING)
    def test_drain_after_failure_hands_over_deferred(self, policy):
        self.check_drain_after_failure(policy)

    def check_handover_after_drain(self, policy, first, more, strict):
        # A drained fast path holds its window of records as columns
        # only; the handover must materialise each of them exactly once.
        fast, engine = self.breaker_pair(policy, strict)
        for server in (fast, engine):
            server.submit_batch(*columns(first))
            server.drain()
        reference = engine.job_table()
        fast.health.probe(0, False, fast.now)
        offset = fast.now
        fast.submit_batch([t + offset for t, _ in more], [s for _, s in more])
        fast.drain()
        status = fast.status()
        assert not status["fast_path"]["engaged"]
        assert all(status["invariant"].values())
        assert status["counters"]["in_flight"] == 0
        table = fast.job_table()
        n = fast.n_accepted
        kept = min(n, server_module.RETAINED_JOBS)
        assert np.array_equal(table["index"], np.arange(n - kept, n))
        # The first stream's rows that are still retained.
        shared = np.isin(reference["index"], table["index"])
        for column in JOB_COLUMNS:
            assert np.array_equal(
                table[column][: shared.sum()], reference[column][shared]
            ), column

    def test_handover_after_drain(self):
        self.check_handover_after_drain(
            "lwl", stream(300, 9), stream(200, 10), True
        )

    @pytest.mark.parametrize("policy", DEFERRING)
    def test_handover_after_drain_deferred(self, policy):
        self.check_handover_after_drain(
            policy, long_stream(9), stream(200, 10), False
        )

    def test_faulted_server_never_engages(self):
        from repro.sim.faults import FaultModel

        server = DispatchServer(
            2, LeastWorkLeftPolicy(), seed=4, strict=True,
            heartbeat_interval=10.0,
            faults=FaultModel(mtbf=50.0, mttr=5.0, seed=1),
        )
        assert not server.status()["fast_path"]["engaged"]

    def test_fast_path_false_forces_engine(self):
        server = DispatchServer(
            2, LeastWorkLeftPolicy(), seed=4, strict=True,
            heartbeat_interval=10.0, fast_path=False,
        )
        st = server.status()["fast_path"]
        assert not st["engaged"]
        assert st["mode"] is None


class TestColumnarDrain:
    @staticmethod
    def drain_peak(policy, n_jobs):
        """Drain a batched stream; returns the drain's traced peak."""
        jobs = stream(n_jobs, 6)
        server = DispatchServer(2, policy, seed=4, heartbeat_interval=10.0)
        arrivals, sizes = columns(jobs)
        for i in range(0, len(jobs), 1024):
            server.submit_batch(arrivals[i : i + 1024], sizes[i : i + 1024])
        unsettled = server._fastpath.unsettled
        tracemalloc.start()
        try:
            server.drain()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert server.counters()["completed"] == len(jobs)
        assert server.counters()["in_flight"] == 0
        assert server._inner.n_completed == 0
        return peak, unsettled

    def test_drain_builds_no_jobs(self):
        peak, unsettled = self.drain_peak(LeastWorkLeftPolicy(), 50_000)
        assert unsettled == 0
        assert peak < 64 * 1024, peak

    def test_sita_drain_settles_at_most_one_window(self):
        # The drain's one settle covers the records since the last full
        # window, so its temporaries scale with SETTLE_EVERY, not with
        # the stream: here a full window less one, after two settled.
        peak, unsettled = self.drain_peak(
            SITAPolicy([1.0]), 3 * SETTLE_EVERY - 1
        )
        assert unsettled == SETTLE_EVERY - 1
        # Eight float64 columns of one window.
        assert peak < 8 * 8 * SETTLE_EVERY, peak


    @staticmethod
    def stream_peak(n_jobs):
        """Traced peak of a 256-batch stream of ``n_jobs``, drained and
        read; the stream's own columns exist before tracing starts."""
        rng = np.random.default_rng(6)
        arrivals = np.cumsum(rng.exponential(1.0, n_jobs))
        sizes = rng.lognormal(0.0, 1.5, n_jobs) * 0.3
        server = DispatchServer(
            2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0
        )
        tracemalloc.start()
        try:
            for i in range(0, n_jobs, 256):
                server.submit_batch(arrivals[i : i + 256], sizes[i : i + 256])
            server.drain()
            status = server.status()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status["counters"]["completed"] == n_jobs
        assert server._fastpath.m == n_jobs
        return peak

    def test_stream_memory_does_not_grow_with_length(self):
        # The record columns are a fixed window: four times the stream
        # peaks within one settle window's temporaries of the shorter.
        short, long = self.stream_peak(200_000), self.stream_peak(800_000)
        assert long - short < 8 * 8 * SETTLE_EVERY, (short, long)

    def test_run_stream_holds_a_window_not_the_stream(self):
        n = 100_000
        server = DispatchServer(
            2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0
        )
        status = server.run_stream(stream(n, 6, size_scale=0.3), batch_size=256)
        fp = server._fastpath
        assert status["counters"]["completed"] == fp.m == n
        assert fp._arrival.shape[0] < n
        assert fp.folded.at == n - server_module.RETAINED_JOBS


class TestFolding:
    """Both paths keep rows for the jobs past the fold point ``F = min(
    admitted - RETAINED_JOBS, first job in flight)`` and running totals
    for the rest.  ``F`` depends only on the state, so servers that
    folded at different times hold the same rows and the same bits."""

    @pytest.fixture
    def window(self, monkeypatch):
        """A 64-job window, so short streams fold many times."""
        monkeypatch.setattr(server_module, "RETAINED_JOBS", 64)
        return 64

    @settings(max_examples=10, deadline=None)
    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        n_hosts=st.integers(2, 4),
        split=st.integers(150, 300),
        seed=st.integers(0, 2**16),
    )
    def test_handover_after_folding_agrees_with_engine(
        self, policy, n_hosts, split, seed
    ):
        jobs = stream(400, seed, size_scale=0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(server_module, "RETAINED_JOBS", 64)
            fast, engine = make_pair(
                policy, n_hosts, strict=False,
                health=lambda: HealthMonitor(failure_threshold=1, cooldown=20.0),
            )
        for server in (fast, engine):
            server.submit_batch(*columns(jobs[:split]))
        assert_same_jobs(fast, engine)
        assume(fast._fastpath.folded.at > 0)
        for server in (fast, engine):
            server.health.probe(0, False, server.now)
            server.submit_batch(*columns(jobs[split:]))
        assert not fast.status()["fast_path"]["engaged"]
        for read in ("mid-stream", "drained"):
            assert fast.counters() == engine.counters(), read
            assert_same_jobs(fast, engine)
            assert (
                fast.status()["jain_slowdown"] == engine.status()["jain_slowdown"]
            ), read
            fast.drain()
            engine.drain()
        assert fast.job_table()["index"].size == 64

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "engine"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_folded_totals_equal_unfolded_ones(self, policy, fast_path, monkeypatch):
        # A server folding in a 64-job window against one that never
        # folds (the stream is shorter than the default window): the
        # same counters and Jain bits, and the window's rows are the
        # last of the full table.
        jobs = stream(1500, 3, size_scale=0.5)

        def run():
            server = DispatchServer(
                3, POLICIES[policy](3), seed=4, heartbeat_interval=10.0,
                fast_path=fast_path,
            )
            for i in range(0, len(jobs), 100):
                server.submit_batch(*columns(jobs[i : i + 100]))
                if i % 300 == 0:
                    server.status()
            server.drain()
            return server

        full = run()
        monkeypatch.setattr(server_module, "RETAINED_JOBS", 64)
        folded = run()
        assert folded.counters() == full.counters()
        assert folded.status()["jain_slowdown"] == full.status()["jain_slowdown"]
        table, whole = folded.job_table(), full.job_table()
        assert np.array_equal(table["index"], np.arange(len(jobs) - 64, len(jobs)))
        for column in JOB_COLUMNS:
            assert np.array_equal(table[column], whole[column][-64:]), column

    @pytest.mark.parametrize("semantics", ["lost", "redispatch"])
    def test_fold_passes_lost_jobs(self, semantics, monkeypatch):
        # A lost job never completes but is no longer in flight, so the
        # event path folds past it; the totals match an unfolded run.
        from repro.sim.faults import FaultModel

        jobs = stream(3000, 5, size_scale=0.5)

        def run():
            server = DispatchServer(
                3, LeastWorkLeftPolicy(), seed=4, heartbeat_interval=10.0,
                give_up_after=2,
                faults=FaultModel(mtbf=60.0, mttr=10.0, seed=1, semantics=semantics),
            )
            for t, s in jobs:
                server.submit(s, t)
            server.drain()
            return server

        full = run()
        monkeypatch.setattr(server_module, "RETAINED_JOBS", 64)
        folded = run()
        counters = folded.counters()
        assert counters == full.counters()
        assert counters["lost"] > 0 and counters["in_flight"] == 0
        assert folded.status()["jain_slowdown"] == full.status()["jain_slowdown"]
        table, whole = folded.job_table(), full.job_table()
        assert folded._inner.folded.at == len(jobs) - 64
        kept = whole["index"] >= len(jobs) - 64
        for column in JOB_COLUMNS:
            assert np.array_equal(table[column], whole[column][kept]), column

    def test_fold_stops_at_the_first_job_in_flight(self, window):
        # One huge job holds the fold point however far the stream runs.
        server = DispatchServer(
            2, LeastWorkLeftPolicy(), seed=4, heartbeat_interval=10.0
        )
        server.submit(1e6, 0.0)
        jobs = stream(5000, 12, size_scale=0.2)
        server.submit_batch([t + 1.0 for t, _ in jobs], [s for _, s in jobs])
        table = server.job_table()
        assert server._fastpath.folded.at == 0
        assert table["index"].size == server.n_completed > 4900
        assert table["index"][0] == 1
        server.drain()
        assert server.job_table()["index"].size == 64

    def test_seq_sum_is_left_to_right_wherever_split(self):
        from repro.sim.server import seq_sum

        values = np.random.default_rng(0).lognormal(0.0, 3.0, 10_000)
        expected = 0.0
        for v in values.tolist():
            expected += v
        rng = np.random.default_rng(1)
        for _ in range(5):
            cuts = np.sort(rng.integers(0, values.size, 20))
            total = 0.0
            for part in np.split(values, cuts):
                total = seq_sum(total, part)
            assert total == expected

    def test_running_jain_matches_the_reference_at_one_million(self):
        # Every completed slowdown, rebuilt independently: SITA's host
        # choice and each host's FCFS recursion over the whole stream.
        from repro.sim.fast import fcfs_starts

        n = 1_000_000
        rng = np.random.default_rng(19)
        arrivals = np.cumsum(rng.exponential(1.0, n))
        sizes = rng.lognormal(0.0, 1.5, n) * 0.3
        server = DispatchServer(2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0)
        for i in range(0, n, 4096):
            server.submit_batch(arrivals[i : i + 4096], sizes[i : i + 4096])
        server.drain()
        jain = server.status()["jain_slowdown"]
        hosts = np.searchsorted([1.0], sizes, side="left")
        completion = np.empty(n)
        for h in (0, 1):
            mine = hosts == h
            starts, _ = fcfs_starts(arrivals[mine], sizes[mine], 0.0)
            completion[mine] = starts + sizes[mine]
        reference = jain_fairness_index((completion - arrivals) / sizes)
        assert math.isclose(jain, reference, rel_tol=1e-9), (jain, reference)


class TestSigkillBatched:
    """The CI soak drill through the batched fast path: a fault-free
    batched run killed mid-stream by the snapshot hook, then resumed.
    SITA and Round-Robin settle their timing columns at each snapshot
    and at drain, so the resumed Jain index checks those too."""

    ARGS = [
        "serve", "c90", "--hosts", "2", "--jobs", "800",
        "--load", "0.7", "--seed", "5", "--snapshot-every", "200",
        "--batch-size", "64",
    ]

    def run_cli(self, snapshot, policy, extra=(), env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_SERVE_KILL_AFTER", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.ARGS,
             "--policy", policy, "--snapshot", str(snapshot), *extra],
            capture_output=True, text=True, env=env,
            cwd=Path(__file__).resolve().parents[2],
        )

    def check_sigkill_then_resume(self, tmp_path, policy):
        ref = self.run_cli(tmp_path / "ref.json", policy)
        assert ref.returncode == 0, ref.stderr
        reference = json.loads(ref.stdout)
        assert reference["fast_path"]["engaged"]

        killed = self.run_cli(
            tmp_path / "state.json", policy,
            env_extra={"REPRO_SERVE_KILL_AFTER": "2"},
        )
        assert killed.returncode in (-signal.SIGKILL, 137)

        resumed = self.run_cli(tmp_path / "state.json", policy, extra=["--resume"])
        assert resumed.returncode == 0, resumed.stderr
        status = json.loads(resumed.stdout)
        assert status["counters"] == reference["counters"]
        assert status["clock"] == reference["clock"]
        assert status["jain_slowdown"] == reference["jain_slowdown"]
        assert all(status["invariant"].values())

    def test_sigkill_then_resume_matches_reference(self, tmp_path):
        self.check_sigkill_then_resume(tmp_path, "lwl")

    @pytest.mark.parametrize("policy", DEFERRING)
    def test_sigkill_then_resume_matches_reference_deferred(self, tmp_path, policy):
        self.check_sigkill_then_resume(tmp_path, policy)


class TestLatencySplit:
    def test_decision_latency_excludes_intake(self):
        server = DispatchServer(
            2, LeastWorkLeftPolicy(), seed=4, strict=True,
            heartbeat_interval=10.0,
        )
        for t, s in stream(100, 1):
            server.submit(s, t)
        lat = server.latency_summary()
        assert lat["decisions"] == 100
        assert lat["intake"]["total_ms"] > 0
        stages = lat["stages"]
        assert stages["intake_ms"] > 0
        assert stages["route_ms"] > 0
        assert lat["p50_us"] <= lat["p95_us"] <= lat["p99_us"]
        # throughput stays full-cost: both stages in the denominator
        total_s = (lat["intake"]["total_ms"] + stages["route_ms"]) / 1e3
        assert lat["decisions_per_s"] <= 100 / total_s * 1.001

    @pytest.mark.parametrize(
        "where,intake",
        [
            ("window", "batch"),  # inside route_batch
            ("window", "scalar"),  # inside route_one
            ("drain", "batch"),
            ("status", "batch"),
            ("snapshot", "batch"),  # inside submit_batch's timed window
            ("snapshot", "scalar"),  # after submit's timed window
        ],
    )
    def test_settle_time_is_routing_time(self, where, intake, tmp_path, monkeypatch):
        # Patch the settle kernel to sleep a known time: wherever the
        # settle runs, that time must land in route_ms and lower
        # decisions_per_s, and the stages must still add up.
        nap = 0.02
        calls = []
        real = fastpath.fcfs_starts

        def sleepy(t, d, v0):
            calls.append(t.shape[0])
            time.sleep(nap)
            return real(t, d, v0)

        monkeypatch.setattr(fastpath, "fcfs_starts", sleepy)
        store = None
        if where == "snapshot":
            store = SnapshotStore(tmp_path / "s.json", serve_signature("cfg"))
        server = DispatchServer(
            2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0,
            snapshot_store=store, snapshot_every=500,
        )
        jobs = stream(SETTLE_EVERY if where == "window" else 500, 3)
        if intake == "batch":
            server.submit_batch(*columns(jobs))
        else:
            for t, s in jobs:
                server.submit(s, t)
        if where == "drain":
            server.drain()
        elif where == "status":
            server.status()
        assert calls, "no settle ran"
        assert server._fastpath.unsettled == 0
        lat = server.latency_summary()
        stages = lat["stages"]
        slept_ms = len(calls) * nap * 1e3
        assert stages["route_ms"] >= slept_ms
        total_ms = stages["intake_ms"] + stages["route_ms"] + stages["commit_ms"]
        assert lat["decisions_per_s"] == pytest.approx(
            lat["decisions"] / (total_ms / 1e3), rel=1e-9
        )
        assert lat["decisions_per_s"] <= lat["decisions"] / (slept_ms / 1e3)

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_stream_intake_counts_in_the_intake_stage(self, batch_size, monkeypatch):
        # run_stream's one-off column build belongs to the call's intake:
        # a build patched to sleep a known time must show in intake_ms
        # and lower decisions_per_s.
        nap = 0.05
        real = server_module._stream_columns

        def sleepy(jobs):
            time.sleep(nap)
            return real(jobs)

        monkeypatch.setattr(server_module, "_stream_columns", sleepy)
        server = DispatchServer(
            2, SITAPolicy([1.0]), seed=4, heartbeat_interval=10.0
        )
        server.run_stream(stream(500, 3), batch_size=batch_size)
        lat = server.latency_summary()
        assert lat["decisions"] == 500
        assert lat["stages"]["intake_ms"] >= nap * 1e3
        assert lat["decisions_per_s"] <= lat["decisions"] / nap

    def test_empty_summary(self):
        server = DispatchServer(2, LeastWorkLeftPolicy(), seed=4)
        assert server.latency_summary() == {"decisions": 0}
