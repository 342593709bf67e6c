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


def run(*args: str) -> str:
    """Stdout of ``python *args`` run from the checkout root, with its
    ``src`` first on the import path; fails the test on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


def test_socket_front_end_end_to_end():
    """``repro serve --socket`` through the benchmark's serve-socket quick
    run: every reply is checked against an in-process
    ``submit_batch(collect=True)`` replay, and any wrong host, error
    reply or counter difference counts as a failed request."""
    out = run("-m", "benchmarks.e2e", "run", "--workload", "serve-socket", "--quick")
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0, out


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
