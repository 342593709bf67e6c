"""What each entry point imports, and when.

SciPy stays off the import path of the paper's runs.  ``import repro``
used to load ``scipy.optimize`` and, through it, ``scipy.linalg`` and
``scipy.fft`` — most of the package's start-up time.  The Brent solvers
and the normal CDF and quantile behind the lognormal workloads now live
in :mod:`repro.solvers`, and every other SciPy use is a function-local
import.

Each entry point loads only the ``repro`` modules its call runs, and
loads all of them before the call starts: the package ``__init__``s
resolve their names lazily, :func:`~repro.experiments.get_experiment`
imports one driver module, and the CLI builds one subcommand.  The pins
below hold the module set of each entry point and check that the timed
calls (a sweep's ``run_experiment``, a server's ``build_server`` plus
``run_stream``) import nothing more than their own driver.

Each check runs in a fresh interpreter, since this test session itself
has SciPy and every ``repro`` module loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PRELUDE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def repro_modules():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
def first_imports(call):
    before = set(sys.modules)
    call()
    return sorted(set(sys.modules) - before)
"""

#: ``repro`` modules behind ``from repro.experiments import ...``: what
#: the drivers share, no driver, and neither the event engine nor the
#: fault model.
SWEEP_MODULES = [
    "repro",
    "repro._lazy",
    "repro.analysis",
    "repro.analysis.mg1",
    "repro.analysis.sita_analysis",
    "repro.core",
    "repro.core.cutoffs",
    "repro.core.policies",
    "repro.core.policies.base",
    "repro.core.policies.classic",
    "repro.core.policies.sita",
    "repro.core.search",
    "repro.experiments",
    "repro.experiments.base",
    "repro.experiments.common",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.events",
    "repro.sim.fast",
    "repro.sim.metrics",
    "repro.sim.runner",
    "repro.solvers",
    "repro.workloads",
    "repro.workloads.arrivals",
    "repro.workloads.catalog",
    "repro.workloads.distributions",
    "repro.workloads.synthetic",
    "repro.workloads.traces",
]

#: ``repro`` modules behind ``from repro.serve.runner import build_server``.
SERVE_MODULES = [
    "repro",
    "repro._lazy",
    "repro.analysis",
    "repro.analysis.mg1",
    "repro.analysis.sita_analysis",
    "repro.core",
    "repro.core.policies",
    "repro.core.policies.base",
    "repro.core.policies.classic",
    "repro.core.policies.sita",
    "repro.core.search",
    "repro.serve",
    "repro.serve.admission",
    "repro.serve.fastpath",
    "repro.serve.health",
    "repro.serve.refit",
    "repro.serve.runner",
    "repro.serve.server",
    "repro.serve.snapshot",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.events",
    "repro.sim.fast",
    "repro.sim.faults",
    "repro.sim.host",
    "repro.sim.jobs",
    "repro.sim.metrics",
    "repro.sim.server",
    "repro.solvers",
    "repro.workloads",
    "repro.workloads.arrivals",
    "repro.workloads.catalog",
    "repro.workloads.distributions",
    "repro.workloads.synthetic",
    "repro.workloads.traces",
]

#: the packages whose ``__init__`` resolves its names on first access.
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.core.policies",
    "repro.experiments",
    "repro.serve",
    "repro.sim",
    "repro.workloads",
]


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


def run_fresh(body: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        capture_output=True,
        text=True,
        env=fresh_env(),
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


def test_import_repro_loads_numpy_random_and_no_subpackage():
    # ``Summary`` takes percentiles with ``_sorted_percentile``, so no
    # workload reaches ``numpy.ma`` (``np.percentile`` did, through
    # ``np.unique``) and the package no longer loads it.
    out = run_fresh(
        """
import repro
print(json.dumps({
    "repro": repro_modules(),
    "numpy": {m: m in sys.modules for m in ("numpy.random", "numpy.ma")},
}))
"""
    )
    assert out == {
        "repro": ["repro", "repro._lazy"],
        "numpy": {"numpy.random": True, "numpy.ma": False},
    }


def test_sweep_entry_point_loads_all_but_its_driver_before_the_call():
    out = run_fresh(
        """
from repro.experiments import ExperimentConfig, run_experiment
steps = {"import": repro_modules()}
for name in ("fig3", "fig4"):
    config = ExperimentConfig(scale=1, seed=11)
    steps[name] = first_imports(lambda: run_experiment(name, config, workers=1))
steps["numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps(steps))
"""
    )
    assert out == {
        "import": SWEEP_MODULES,
        "fig3": ["repro.experiments.fig2_3"],
        "fig4": ["repro.experiments.fig4"],
        "numpy.ma": False,
    }


def test_pooled_sweep_adds_only_its_driver_and_the_stdlib_pool():
    # ``multiprocessing`` loads only when a sweep fans its cells out, and
    # the children's imports stay in the children.
    out = run_fresh(
        """
from repro.experiments import ExperimentConfig, run_experiment
steps = {"import": repro_modules()}
new = first_imports(lambda: run_experiment("fig3", ExperimentConfig(scale=0.05), workers=2))
steps["repro"] = [m for m in new if m.startswith("repro")]
steps["other"] = sorted(
    m for m in new
    if not m.startswith("repro")
    and m.partition(".")[0] not in sys.stdlib_module_names
)
steps["pool"] = "multiprocessing" in new and "concurrent.futures.process" in new
print(json.dumps(steps))
"""
    )
    assert out == {
        "import": SWEEP_MODULES,
        "repro": ["repro.experiments.fig2_3"],
        "other": ["__mp_main__"],
        "pool": True,
    }


def test_serve_entry_point_loads_everything_before_the_call():
    # The two in-process serve configurations of the benchmark: SITA on
    # the batched fast path, and LWL with crashes on the event engine.
    out = run_fresh(
        """
import argparse
import repro.workloads.catalog
from repro.serve.runner import add_serve_arguments, build_server
steps = {"import": repro_modules()}

from repro.workloads import c90

parser = argparse.ArgumentParser()
add_serve_arguments(parser)
trace = c90().make_trace(load=0.7, n_hosts=4, n_jobs=5_000, rng=11)
jobs = list(zip(trace.arrival_times.tolist(), trace.service_times.tolist()))
for argv, batch in (
    (["c90", "--policy", "sita", "--hosts", "2", "--seed", "1"], 256),
    (
        [
            "c90", "--policy", "lwl", "--hosts", "4", "--seed", "1",
            "--mtbf", "20000", "--mttr", "2000",
            "--fault-semantics", "resume", "--fault-seed", "3",
        ],
        1,
    ),
):
    args = parser.parse_args(argv)
    steps[args.policy] = first_imports(
        lambda: build_server(args).run_stream(jobs, batch_size=batch)
    )
steps["numpy.ma"] = "numpy.ma" in sys.modules
print(json.dumps(steps))
"""
    )
    assert out == {"import": SERVE_MODULES, "sita": [], "lwl": [], "numpy.ma": False}


def test_cli_run_and_serve_load_only_their_subcommand():
    # ``repro run`` never loads the devtools; ``repro serve`` loads
    # neither the devtools nor the experiment drivers.
    out = {}
    for argv in (
        ["run", "fig4", "--scale", "0.05"],
        ["serve", "c90", "--policy", "lwl", "--hosts", "4", "--jobs", "2000"],
    ):
        out[argv[0]] = run_fresh(
            f"""
from repro.cli import main
assert main({argv!r}) == 0
print(json.dumps({{"repro": repro_modules(), "numpy.ma": "numpy.ma" in sys.modules}}))
"""
        )
    assert out == {
        "run": {
            "repro": sorted([*SWEEP_MODULES, "repro.cli", "repro.experiments.fig4"]),
            "numpy.ma": False,
        },
        "serve": {"repro": sorted([*SERVE_MODULES, "repro.cli"]), "numpy.ma": False},
    }


def test_every_lazy_export_resolves():
    out = run_fresh(
        f"""
import importlib
missing = {{}}
for name in {LAZY_PACKAGES!r}:
    package = importlib.import_module(name)
    namespace = {{}}
    exec(f"from {{name}} import *", namespace)
    missing[name] = [
        n for n in package.__all__
        if n not in namespace or n not in dir(package)
    ]
print(json.dumps(missing))
"""
    )
    assert out == {name: [] for name in LAZY_PACKAGES}


def test_unknown_lazy_export_raises_attribute_error():
    import repro.sim

    assert not hasattr(repro.sim, "no_such_name")


def test_driver_table_matches_the_registry():
    out = run_fresh(
        """
from repro.experiments import base, list_experiments
list_experiments()
print(json.dumps({
    "table": base._DRIVERS,
    "registry": {
        eid: fn.__module__.rsplit(".", 1)[-1]
        for eid, (_, fn) in base._REGISTRY.items()
    },
}))
"""
    )
    assert len(out["table"]) == 27
    assert out["table"] == out["registry"]


def test_unknown_experiment_lists_every_id_without_loading_drivers():
    out = run_fresh(
        """
from repro.experiments import base, get_experiment
try:
    get_experiment("fig99")
except ValueError as exc:
    message = str(exc)
drivers = [
    m for m in repro_modules()
    if m.startswith("repro.experiments.") and m.rsplit(".", 1)[-1] in base._DRIVERS.values()
]
print(json.dumps({"message": message, "ids": sorted(base._DRIVERS), "drivers": drivers}))
"""
    )
    known = ", ".join(out["ids"])
    assert out["message"] == f"unknown experiment 'fig99'; known: {known}"
    assert len(out["ids"]) == 27
    assert out["drivers"] == []


def test_paper_sweeps_and_lwl_serve_load_no_scipy():
    out = run_fresh(
        """
import argparse
from repro.experiments import ExperimentConfig, run_experiment
from repro.serve.runner import add_serve_arguments, build_server
from repro.workloads import c90

for name in ("fig3", "fig4"):
    run_experiment(name, ExperimentConfig(scale=1, seed=11), workers=1)
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
    run_experiment(name, ExperimentConfig(scale=0.05, seed=11), workers=1)
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


@pytest.mark.parametrize(
    "argv",
    [
        "serve c90 --policy sita --hosts 2 --jobs 5000",
        "serve c90 --policy sita --hosts 4 --jobs 5000",
        "run table1 --scale 0.05",
    ],
)
def test_cli_runs_with_scipy_blocked(argv):
    # ``sys.modules["scipy"] = None`` makes any ``import scipy`` raise,
    # so a SciPy use on these paths fails the command.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.modules['scipy'] = None; "
            "from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv.split(),
        ],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
