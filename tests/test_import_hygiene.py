"""SciPy stays off the import path of the paper's runs.

``import repro`` used to load ``scipy.optimize`` and, through it,
``scipy.linalg`` and ``scipy.fft`` — most of the package's start-up
time.  The Brent solvers and the normal CDF and quantile behind the
lognormal workloads now live in :mod:`repro.solvers`, and every other
SciPy use is a function-local import.  Each check runs in a fresh
interpreter, since this test session itself has SciPy loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PRELUDE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_imports_load_no_scipy():
    out = run_fresh(
        """
import repro, repro.experiments, repro.serve.runner, repro.cli
print(json.dumps({"scipy": loaded()}))
"""
    )
    assert out["scipy"] == []


def test_imports_load_numpy_lazy_submodules():
    out = run_fresh(
        """
import repro
print(json.dumps({m: m in sys.modules for m in ("numpy.random", "numpy.ma")}))
"""
    )
    assert out == {"numpy.random": True, "numpy.ma": True}


def test_paper_sweeps_and_lwl_serve_load_no_scipy():
    out = run_fresh(
        """
import argparse
from repro.experiments import ExperimentConfig, run_experiment
from repro.serve.runner import add_serve_arguments, build_server
from repro.workloads import c90

for name in ("fig3", "fig4"):
    run_experiment(name, ExperimentConfig(scale=1, seed=11))
after_sweeps = loaded()

parser = argparse.ArgumentParser()
add_serve_arguments(parser)
server = build_server(parser.parse_args(["c90", "--policy", "lwl", "--hosts", "4"]))
trace = c90().make_trace(load=0.7, n_hosts=4, n_jobs=5_000, rng=11)
server.run_stream(
    zip(trace.arrival_times.tolist(), trace.service_times.tolist()), batch_size=256
)
print(json.dumps({"after_sweeps": after_sweeps, "after_serve": loaded()}))
"""
    )
    assert out == {"after_sweeps": [], "after_serve": []}


def test_sita_serve_and_lognormal_experiments_load_no_scipy():
    out = run_fresh(
        """
import argparse
from repro.experiments import ExperimentConfig, run_experiment
from repro.serve.runner import add_serve_arguments, build_server
from repro.workloads import c90, get_workload

parser = argparse.ArgumentParser()
add_serve_arguments(parser)
steps = {}
trace = c90().make_trace(load=0.7, n_hosts=4, n_jobs=5_000, rng=11)
for hosts in ("2", "4"):
    server = build_server(
        parser.parse_args(["c90", "--policy", "sita", "--hosts", hosts])
    )
    steps[f"build_server hosts={hosts}"] = loaded()
    server.run_stream(
        zip(trace.arrival_times.tolist(), trace.service_times.tolist()),
        batch_size=256,
    )
    steps[f"run_stream hosts={hosts}"] = loaded()
get_workload("ctc")
steps["get_workload ctc"] = loaded()
for name in ("fig9", "table1"):
    run_experiment(name, ExperimentConfig(scale=0.05, seed=11))
    steps[f"run_experiment {name}"] = loaded()
print(json.dumps(steps))
"""
    )
    assert out == {
        "build_server hosts=2": [],
        "run_stream hosts=2": [],
        "build_server hosts=4": [],
        "run_stream hosts=4": [],
        "get_workload ctc": [],
        "run_experiment fig9": [],
        "run_experiment table1": [],
    }
