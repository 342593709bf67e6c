"""Tests of the replay-divergence auditor (``repro audit``).

The acceptance contract: a clean experiment audits deterministic (exit
0), and an experiment with injected nondeterminism — here a toy policy
drawing from a fresh OS-entropy Generator per run — is caught, with the
first divergent event located and described.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.devtools.audit import (
    AuditError,
    ReplayRecord,
    audit_experiment,
    cross_check_backends,
    find_first_divergence,
    record_replay,
    resolve_experiment_ids,
)
from repro.experiments import ExperimentResult
from repro.experiments.base import _REGISTRY, experiment
from repro.sim import DistributedServer, Simulator, array_digest, simulate_fast
from repro.sim.engine import set_event_hook
from repro.sim.metrics import set_result_observer
from repro.workloads import Trace


# ---------------------------------------------------------------------------
# toy experiments: one deterministic, one deliberately nondeterministic
# ---------------------------------------------------------------------------


class _ToyPolicy:
    """State policy whose host choice may use a deliberately fresh RNG."""

    kind = "state"
    name = "toy"

    def __init__(self, deterministic: bool) -> None:
        self.deterministic = deterministic

    def reset(self, n_hosts, rng):
        self.n_hosts = n_hosts
        self.rng = rng

    def choose_host(self, job, state):
        if self.deterministic:
            return job.index % self.n_hosts
        # the injected fault: OS entropy, different every replay
        fresh = np.random.default_rng()
        return int(fresh.integers(0, self.n_hosts))


def _toy_trace(n_jobs: int) -> Trace:
    arrivals = np.linspace(0.0, float(n_jobs), n_jobs, endpoint=False)
    sizes = np.full(n_jobs, 3.0)
    return Trace(arrival_times=arrivals, service_times=sizes)


def _toy_driver(deterministic: bool):
    def driver(config) -> ExperimentResult:
        trace = _toy_trace(50)
        server = DistributedServer(2, _ToyPolicy(deterministic), rng=config.seed)
        result = server.run_trace(trace)
        return ExperimentResult(
            experiment_id="toy",
            title="toy",
            columns=["mean_wait"],
            rows=[{"mean_wait": float(np.mean(result.wait_times))}],
        )

    return driver


@pytest.fixture
def toy_experiments():
    """Register toy drivers for the test, unregister afterwards."""
    experiment("toy_det", "deterministic toy")(_toy_driver(True))
    experiment("toy_nondet", "nondeterministic toy")(_toy_driver(False))
    yield
    _REGISTRY.pop("toy_det", None)
    _REGISTRY.pop("toy_nondet", None)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def test_array_digest_is_order_and_value_sensitive():
    a = np.array([1.0, 2.0, 3.0])
    assert array_digest(a) == array_digest(a.copy())
    assert array_digest(a) != array_digest(a[::-1])
    assert array_digest(a) != array_digest(a + 1e-15)


def test_array_digest_quantized_tolerates_noise_and_negative_zero():
    a = np.array([1.0, 0.0])
    b = np.array([1.0 + 1e-14, -0.0])
    assert array_digest(a) != array_digest(b)
    assert array_digest(a, precision=10) == array_digest(b, precision=10)


def test_array_digest_distinguishes_absent_from_empty():
    assert array_digest(None) != array_digest(np.empty(0))


def test_result_digest_bit_identical_across_replays():
    trace = _toy_trace(200)

    class _RR:
        kind = "static"
        name = "rr"

        def reset(self, n_hosts, rng):
            self.n_hosts = n_hosts

        def assign_batch(self, sizes, rng):
            return np.arange(sizes.size) % self.n_hosts

    a = simulate_fast(trace, _RR(), n_hosts=2, rng=1)
    b = simulate_fast(trace, _RR(), n_hosts=2, rng=1)
    assert a.digest() == b.digest()


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def test_record_replay_observes_engine_events_and_results():
    trace = _toy_trace(20)
    with record_replay() as rec:
        server = DistributedServer(2, _ToyPolicy(True), rng=0)
        server.run_trace(trace)
    # one arrival + one finish per job
    assert rec.n_events == 40
    assert rec.n_results == 1
    assert len(rec.event_digests) == len(rec.event_descriptions) == 40
    assert all(len(d) == 16 for d in rec.event_digests)
    assert "_handle_arrival" in rec.event_descriptions[0]
    assert "Job#0" in rec.event_descriptions[0]


def test_record_replay_restores_previous_hooks():
    sentinel_events = []
    sentinel_hook = sentinel_events.append
    previous = set_event_hook(sentinel_hook)
    try:
        with record_replay():
            pass
        from repro.sim import engine

        assert engine._EVENT_HOOK is sentinel_hook
    finally:
        set_event_hook(previous)
    set_result_observer(None)


def test_identical_replays_have_identical_records():
    def one_replay() -> ReplayRecord:
        with record_replay() as rec:
            server = DistributedServer(2, _ToyPolicy(True), rng=7)
            server.run_trace(_toy_trace(30))
        return rec

    a, b = one_replay(), one_replay()
    assert a.event_digests == b.event_digests
    assert a.result_digests == b.result_digests
    assert a.final_digest() == b.final_digest()
    assert find_first_divergence(a, b) is None


# ---------------------------------------------------------------------------
# divergence search
# ---------------------------------------------------------------------------


def _synthetic_record(tags: list[str]) -> ReplayRecord:
    rec = ReplayRecord()
    chain = b"\x00" * 16
    for tag in tags:
        chain = hashlib.blake2b(chain + tag.encode(), digest_size=16).digest()
        rec.event_digests.append(chain)
        rec.event_descriptions.append(tag)
    return rec


@pytest.mark.parametrize("split", [0, 1, 17, 98, 99])
def test_binary_search_finds_exact_first_divergence(split):
    base = [f"event-{i}" for i in range(100)]
    other = list(base)
    other[split] = "MUTANT"
    div = find_first_divergence(_synthetic_record(base), _synthetic_record(other))
    assert div is not None
    assert div.kind == "event"
    assert div.index == split
    assert div.detail_a == f"event-{split}"
    assert div.detail_b == "MUTANT"


def test_prefix_equal_streams_report_count_divergence():
    base = [f"event-{i}" for i in range(10)]
    div = find_first_divergence(
        _synthetic_record(base), _synthetic_record(base + ["extra"])
    )
    assert div is not None
    assert div.kind == "event-count"
    assert div.index == 10
    assert "extra" in div.detail_b


def test_result_digest_divergence_reported_when_streams_agree():
    a, b = ReplayRecord(), ReplayRecord()
    a.result_digests, a.result_names = ["d1", "d2"], ["run0", "run1"]
    b.result_digests, b.result_names = ["d1", "XX"], ["run0", "run1"]
    div = find_first_divergence(a, b)
    assert div is not None and div.kind == "result" and div.index == 1


# ---------------------------------------------------------------------------
# the audit end to end
# ---------------------------------------------------------------------------


def test_resolve_experiment_ids():
    assert resolve_experiment_ids("fig2") == ["fig2"]
    assert resolve_experiment_ids("fig2_3") == ["fig2", "fig3"]
    with pytest.raises(AuditError):
        resolve_experiment_ids("nope")


def test_audit_detects_injected_nondeterminism(toy_experiments):
    report = audit_experiment("toy_nondet", replays=2, cross_check=False)
    assert not report.ok
    assert report.divergence is not None
    assert report.divergence.kind == "event"
    # the first divergent event is identified and described from both sides
    assert report.divergence.detail_a != report.divergence.detail_b
    assert "t=" in report.divergence.detail_a
    rendered = report.render()
    assert "first divergent event" in rendered
    assert "audit FAILED" in rendered


def test_audit_passes_on_deterministic_experiment(toy_experiments):
    report = audit_experiment("toy_det", replays=3, cross_check=False)
    assert report.ok
    assert report.divergence is None
    assert report.n_events == 100  # 50 jobs × (arrival + finish)
    assert "audit PASSED" in report.render()


def test_audit_rejects_single_replay(toy_experiments):
    with pytest.raises(AuditError):
        audit_experiment("toy_det", replays=1, cross_check=False)


def test_cross_check_backends_agree_on_clean_tree():
    check = cross_check_backends(seed=123, n_jobs=500)
    assert check.ok
    assert check.max_abs_deviation < 1e-6


def test_audit_cli_exit_codes(toy_experiments, capsys):
    from repro.cli import main

    assert main(["audit", "--experiment", "toy_det", "--no-cross-check"]) == 0
    out = capsys.readouterr().out
    assert "audit PASSED" in out
    assert main(["audit", "--experiment", "toy_nondet", "--no-cross-check"]) == 1
    assert main(["audit", "--experiment", "missing_experiment"]) == 2


def test_event_hook_default_is_uninstalled():
    # module-level sanity: no test may leak an installed hook
    from repro.sim import engine

    assert engine._EVENT_HOOK is None


def test_simulator_unaffected_by_hook_contents():
    fired: list[float] = []
    with record_replay() as rec:
        sim = Simulator()
        sim.schedule(1.0, fired.append, 1.0)
        sim.schedule(1.0, fired.append, 2.0)
        handle = sim.schedule(0.5, fired.append, 99.0)
        handle.cancel()
        sim.run()
    assert fired == [1.0, 2.0]
    # cancelled events are never observed by the audit hook either
    assert rec.n_events == 2
    assert all("99.0" not in d for d in rec.event_descriptions)
