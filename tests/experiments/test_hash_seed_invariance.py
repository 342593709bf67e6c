"""Result tables must not depend on Python's string-hash seed.

``str`` hashing is salted per process by ``PYTHONHASHSEED``, so the
iteration order of a ``set`` of policy names (or of any string-keyed
set) changes from one process to the next.  A sweep that lets that
order reach its rows or a float sum writes different bytes under
different seeds, while every in-process check (``repro audit``
replays, the row pins) runs under one seed and sees nothing.  This
test runs ``repro run`` for fig2, fig4 and ``failures`` in child
processes under two hash seeds and compares the CSV bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
HASH_SEEDS = ("0", "1")


def run_csv(experiment_id: str, hash_seed: str, out: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", experiment_id,
         "--scale", "0.05", "--csv", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("experiment_id", ["failures", "fig2", "fig4"])
def test_csv_bytes_equal_across_hash_seeds(experiment_id, tmp_path):
    first, second = (
        run_csv(experiment_id, seed, tmp_path / f"{experiment_id}.{seed}.csv")
        for seed in HASH_SEEDS
    )
    assert first == second
