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
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    LeastWorkLeftPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    ShortestQueuePolicy,
    SITAPolicy,
)
from repro.serve import DispatchServer, HealthMonitor, SnapshotStore, serve_signature

POLICIES = {
    "lwl": lambda n_hosts: LeastWorkLeftPolicy(),
    "sq": lambda n_hosts: ShortestQueuePolicy(),
    "random": lambda n_hosts: RandomPolicy(),
    "rr": lambda n_hosts: RoundRobinPolicy(),
    "sita": lambda n_hosts: SITAPolicy(
        [float(2**k) for k in range(n_hosts - 1)]
    ),
}


def stream(n, seed):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0, n))
    sizes = rng.lognormal(0.0, 1.5, n)
    return list(zip(arrivals.tolist(), sizes.tolist()))


def make_pair(policy_name, n_hosts, **kwargs):
    """A fast-path server and an engine-path server, same config."""
    servers = []
    for fast_path in (True, False):
        servers.append(
            DispatchServer(
                n_hosts,
                POLICIES[policy_name](n_hosts),
                seed=4,
                strict=True,
                heartbeat_interval=10.0,
                fast_path=fast_path,
                **{k: v() if callable(v) else v for k, v in kwargs.items()},
            )
        )
    return servers


JOB_COLUMNS = (
    "index", "arrival", "size", "host", "host_seq", "start", "completion"
)


def assert_same_jobs(a, b):
    ta, tb = a.job_table(), b.job_table()
    assert ta.keys() == tb.keys() == set(JOB_COLUMNS)
    for column in JOB_COLUMNS:
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

    @pytest.mark.parametrize("policy", ["lwl", "sita"])
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

    def test_mid_stream_status_matches_engine(self):
        jobs = stream(200, 21)
        fast, engine = make_pair("lwl", 2)
        for t, s in jobs:
            fast.submit(s, t)
            engine.submit(s, t)
        sf, se = fast.status(), engine.status()
        assert sf["counters"] == se["counters"]
        assert sf["clock"] == se["clock"]
        assert sf["jain_slowdown"] == se["jain_slowdown"]
        assert sf["fast_path"]["engaged"]
        assert not se["fast_path"]["engaged"]


class TestBatchInvariance:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_counters_identical_across_batch_sizes(self, policy):
        jobs = stream(1000, 11)
        results = []
        for batch_size in (1, 7, 256, 4096):
            server = DispatchServer(
                2, POLICIES[policy](2), seed=4, strict=True,
                heartbeat_interval=10.0,
            )
            status = server.run_stream(jobs, batch_size=batch_size)
            results.append(
                (status["counters"], status["clock"], status["jain_slowdown"])
            )
        assert all(r == results[0] for r in results[1:])

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


class TestHandover:
    def breaker_pair(self, policy_name, batch=False):
        return make_pair(
            policy_name, 2,
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

    def test_failure_between_batches_hands_over(self):
        jobs = stream(600, 8)
        fast, engine = self.breaker_pair("lwl")
        arr = [t for t, _ in jobs]
        siz = [s for _, s in jobs]
        fast.submit_batch(arr[:300], siz[:300])
        for t, s in jobs[:300]:
            engine.submit(s, t)
        fast.health.probe(0, False, fast.now)
        engine.health.probe(0, False, engine.now)
        records = fast.submit_batch(arr[300:], siz[300:], collect=True)
        hosts_engine = [engine.submit(s, t)["host"] for t, s in jobs[300:]]
        assert [r["host"] for r in records] == hosts_engine
        assert not fast.status()["fast_path"]["engaged"]
        fast.drain()
        engine.drain()
        assert fast.counters() == engine.counters()
        assert_same_jobs(fast, engine)

    def test_drain_after_failure_hands_over(self):
        jobs = stream(100, 2)
        fast, engine = self.breaker_pair("lwl")
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

    def test_handover_after_drain(self):
        # A drained fast path holds every record as columns only; the
        # handover must materialise all of them, each exactly once.
        first, more = stream(300, 9), stream(200, 10)
        fast, engine = self.breaker_pair("lwl")
        for server in (fast, engine):
            server.submit_batch([t for t, _ in first], [s for _, s in first])
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
        assert np.array_equal(table["index"], np.arange(fast.n_accepted))
        for column in JOB_COLUMNS:
            assert np.array_equal(
                table[column][: len(first)], reference[column]
            ), column

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
    def test_drain_builds_no_jobs(self):
        jobs = stream(50_000, 6)
        server = DispatchServer(
            2, LeastWorkLeftPolicy(), seed=4, heartbeat_interval=10.0
        )
        arrivals = [t for t, _ in jobs]
        sizes = [s for _, s in jobs]
        for i in range(0, len(jobs), 1024):
            server.submit_batch(arrivals[i : i + 1024], sizes[i : i + 1024])
        tracemalloc.start()
        try:
            server.drain()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert server.counters()["completed"] == len(jobs)
        assert server.counters()["in_flight"] == 0
        assert not server._inner._completed
        assert peak < 64 * 1024, peak


class TestSigkillBatched:
    """The CI soak drill through the batched fast path: a fault-free
    batched run killed mid-stream by the snapshot hook, then resumed."""

    ARGS = [
        "serve", "c90", "--policy", "lwl", "--hosts", "2", "--jobs", "800",
        "--load", "0.7", "--seed", "5", "--snapshot-every", "200",
        "--batch-size", "64",
    ]

    def run_cli(self, snapshot, extra=(), env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_SERVE_KILL_AFTER", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.ARGS,
             "--snapshot", str(snapshot), *extra],
            capture_output=True, text=True, env=env,
            cwd=Path(__file__).resolve().parents[2],
        )

    def test_sigkill_then_resume_matches_reference(self, tmp_path):
        ref = self.run_cli(tmp_path / "ref.json")
        assert ref.returncode == 0, ref.stderr
        reference = json.loads(ref.stdout)
        assert reference["fast_path"]["engaged"]

        killed = self.run_cli(
            tmp_path / "state.json", env_extra={"REPRO_SERVE_KILL_AFTER": "2"}
        )
        assert killed.returncode in (-signal.SIGKILL, 137)

        resumed = self.run_cli(tmp_path / "state.json", extra=["--resume"])
        assert resumed.returncode == 0, resumed.stderr
        status = json.loads(resumed.stdout)
        assert status["counters"] == reference["counters"]
        assert status["clock"] == reference["clock"]
        assert all(status["invariant"].values())


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

    def test_empty_summary(self):
        server = DispatchServer(2, LeastWorkLeftPolicy(), seed=4)
        assert server.latency_summary() == {"decisions": 0}
