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
