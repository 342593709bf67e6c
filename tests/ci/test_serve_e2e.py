"""End-to-end serve checks that CI runs as steps of their own.

Each drives the real CLI or the end-to-end benchmark in a child process
from this checkout.  Deselected by default (marker ``ci``); run them
with ``python -m pytest -m ci tests/ci``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.ci

ROOT = Path(__file__).resolve().parents[2]


def child(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` run from the checkout root, with its ``src``
    first on the import path and ``env`` added to the environment."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


def run(*args: str, **env: str) -> str:
    """Stdout of :func:`child`; fails the test on a non-zero exit."""
    proc = child(*args, **env)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


SOAK_ARGS = (
    "-m repro serve c90 --policy sita --hosts 2 --load 0.9 --jobs 50000 "
    "--seed 11 --snapshot-every 5000 --batch-size 512"
).split()


def sigkill_soak(tmp_path: Path, args: list[str]) -> tuple[dict, dict]:
    """``repro serve`` under the runtime sanitizer, three times: an
    uninterrupted reference run, the same stream killed abruptly after
    3 snapshot writes, and that run resumed to completion.  Returns the
    reference's and the resumed run's status documents."""
    strict = {"REPRO_SIM_STRICT": "1"}
    ref = run(*args, "--snapshot", str(tmp_path / "ref.json"), **strict)
    state = str(tmp_path / "state.json")
    killed = child(*args, "--snapshot", state, REPRO_SERVE_KILL_AFTER="3", **strict)
    # The exit status a shell reports for a death by signal N is 128 + N.
    rc = 128 - killed.returncode if killed.returncode < 0 else killed.returncode
    assert rc == 137, (rc, killed.stderr[-4000:])  # must die by SIGKILL, not finish
    res = run(*args, "--snapshot", state, "--resume", **strict)
    return json.loads(ref), json.loads(res)


def test_socket_front_end_end_to_end():
    """``repro serve --socket`` through the benchmark's serve-socket quick
    run: every reply is checked against an in-process
    ``submit_batch(collect=True)`` replay, and any wrong host, error
    reply or counter difference counts as a failed request."""
    out = run("-m", "benchmarks.e2e", "run", "--workload", "serve-socket", "--quick")
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0, out


def test_faulted_soak_resumes_after_sigkill(tmp_path):
    """50k jobs with seeded crashes on the event path: killed by SIGKILL
    mid-run and resumed, the run reproduces the reference counters and
    clock exactly, and every offered job is accounted for."""
    ref, res = sigkill_soak(tmp_path, SOAK_ARGS + (
        "--mtbf 20000 --mttr 2000 --fault-semantics redispatch --fault-seed 3"
    ).split())
    assert res['counters'] == ref['counters'], (res['counters'], ref['counters'])
    assert res['clock'] == ref['clock'], (res['clock'], ref['clock'])
    for doc in (ref, res):
        c = doc['counters']
        assert all(doc['invariant'].values()), doc['invariant']
        assert c['in_flight'] == 0, c
        assert c['accepted'] == c['completed'] + c['rejected'] + c['lost'], c
        assert c['crashes'] > 0, c


def test_fast_path_soak_resumes_after_sigkill(tmp_path):
    """Fault-free, so the fast path engages and stays engaged: SIGKILL
    during batched dispatch, and the resume replay through
    ``submit_batch`` itself, reproduce the reference exactly."""
    ref, res = sigkill_soak(tmp_path, SOAK_ARGS)
    assert ref['fast_path']['engaged'], ref['fast_path']
    assert res['fast_path']['engaged'], res['fast_path']
    assert res['counters'] == ref['counters'], (res['counters'], ref['counters'])
    assert res['clock'] == ref['clock'], (res['clock'], ref['clock'])
    # The Jain index reads every start and completion, so the
    # resumed replay's settled timing columns are checked too.
    assert res['jain_slowdown'] == ref['jain_slowdown'], (res['jain_slowdown'], ref['jain_slowdown'])
    for doc in (ref, res):
        assert all(doc['invariant'].values()), doc['invariant']
        assert doc['counters']['in_flight'] == 0, doc['counters']


def test_batch_invariance_through_the_cli_stream_columns():
    """``repro serve`` gives the same counters, clock and Jain index
    whether its stream goes in one job per call or 512."""
    args = ("-m", "repro", "serve", "c90", "--policy", "sita", "--hosts", "2",
            "--jobs", "50000", "--seed", "11")
    one = json.loads(run(*args, "--batch-size", "1"))
    many = json.loads(run(*args, "--batch-size", "512"))
    for key in ("counters", "clock", "jain_slowdown"):
        assert one[key] == many[key], (key, one[key], many[key])
    assert one["counters"]["in_flight"] == 0, one["counters"]


def test_fast_path_at_least_10x_the_faulted_engine(tmp_path):
    """The fault-free fast path stays at least 10x the faulted event
    path, in decisions over the wall time of ``run_stream`` (the e2e
    benchmark's quick runs of serve-stream and serve-faulted)."""
    rate = {}
    for workload in ("serve-stream", "serve-faulted"):
        out = tmp_path / f"{workload}.json"
        run("-m", "benchmarks.e2e", "run", "--workload", workload, "--quick",
            "--out", str(out))
        doc = json.loads(out.read_text())["runs"][0]
        assert doc["correct"] is True and doc["failed"] == 0, doc
        rate[workload] = doc["metrics"]["decisions_per_s"]["median"]
    assert rate["serve-stream"] >= 10 * rate["serve-faulted"], rate


def test_faulted_serve_on_the_event_engine():
    """serve-faulted at full size for 5 s: ``--quick`` has no reference
    outputs for it, so this run checks the event engine's counters and
    Jain index against the committed references for the default seed."""
    out = run("-m", "benchmarks.e2e", "run", "--workload", "serve-faulted",
              "--seconds", "5")
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0, doc


def test_degraded_refit_falls_back_on_a_contaminated_window():
    """``repro serve --refit`` under crashes refuses to re-fit on a
    fault-contaminated window: it keeps the last-known-good cutoff and
    reports the fallback."""
    doc = json.loads(run(*(
        "-m repro serve c90 --policy sita --hosts 2 --load 0.7 --jobs 8000 --seed 5 --mtbf 20000 "
        "--mttr 2000 --fault-semantics redispatch --refit --refit-window 2048 --refit-every 512"
    ).split()))
    cut = doc["cutoffs"]
    assert cut is not None, doc
    assert cut["mode"] == "fallback", cut
    assert cut["contaminated"], cut
    assert cut["fallbacks"] > 0, cut
