"""Benchmark-trajectory harness: ``repro bench``.

Runs a fixed set of named benchmarks over the hot paths — the
vectorised/tight-loop simulation kernels, the event engine vs the fast
kernels, and a full experiment sweep serial vs parallel — and writes a
machine-readable ``BENCH_<date>.json`` baseline.  Each PR that touches a
hot path re-runs the harness and commits a fresh baseline, so the
repository carries its own performance trajectory and a regression shows
up as a diff, not a vibe.

The harness measures **wall-clock only**.  It deliberately does not
assert thresholds: absolute numbers are machine-dependent (CI runners
differ wildly), so the JSON records the environment alongside every
entry and comparisons are made between files from the same machine.

Schema (``schema_version`` 3)::

    {
      "schema_version": 3,
      "created": "YYYY-MM-DD",
      "quick": false,
      "environment": {"python": …, "numpy": …, "platform": …,
                       "cpu_count": …, "workers": …, "oversubscribed": …},
      "entries": [
        {"name": "kernel.lwl_waits", "wall_s": …, "n_jobs": …,
         "jobs_per_s": …},
        …,
        {"name": "search.sim_pair", "wall_s": …, "loop_wall_s": …,
         "speedup_vs_loop": …, "argmin_identical_to_loop": true},
        {"name": "search.analytic_sweep", "wall_s": …, "loads": […]},
        {"name": "experiment.fig2.parallel", "wall_s": …,
         "speedup_vs_serial": …},
        {"name": "serve.dispatch", "wall_s": …, "n_jobs": …,
         "batch_size": …, "fast_path_engaged": true,
         "decisions_per_s": …,
         "latency_p50_us": …, "latency_p95_us": …, "latency_p99_us": …,
         "intake_ms": …, "route_ms": …, "commit_ms": …},
        {"name": "serve.dispatch.batch", "batch_size": …, …},
        {"name": "serve.dispatch.faulted", "availability": …, …}
      ]
    }

The benchmarks are grouped into named **families** (``kernel``,
``backend``, ``search``, ``experiment.fig2``, ``serve.dispatch``);
``repro bench --only 'serve.*'`` runs just the families matching the
glob (``fnmatch``), so one family can be re-measured without paying for
the kernel sweeps.  A
filtered run records ``"only"`` in the document so a partial baseline
can never be mistaken for a full trajectory point; committed baselines
are always full runs.

There is one ``kernel.*`` row per kernel.  Schema 2 also carried a
per-row ``tier`` and an environment field for an optional compiled
kernel tier; schema 3 drops both along with that tier.

Sweep workers default to ``min(4, max(2, cpu_count))`` — floored at two
so the parallel row always exercises a real pool; whenever the resolved
size exceeds the visible cores (forced via ``--workers`` or the floor on
a 1-cpu box) the environment and the parallel entry both record
``oversubscribed: true`` so trajectory comparisons can discount the
point.

``repro bench --quick`` shrinks every size for a smoke-test pass (CI);
the committed baselines use the default sizes.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import fnmatch
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "BenchSelectionError",
    "FAMILY_NAMES",
    "add_bench_arguments",
    "default_output_path",
    "main",
    "resolve_workers",
    "run_benchmarks",
    "run_from_args",
]

SCHEMA_VERSION = 3

#: the named benchmark families ``--only`` globs against, in run order.
FAMILY_NAMES = (
    "kernel",
    "backend",
    "search",
    "experiment.fig2",
    "serve.dispatch",
)


class BenchSelectionError(ValueError):
    """``--only`` glob that matches no benchmark family."""


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_workload(n_jobs: int, seed: int = 20000731):
    """A heavy-tailed arrival/size pair shared by the kernel benches."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.exponential(1.0, n_jobs))
    s = rng.pareto(1.5, n_jobs) + 0.1
    return t, s


def _bench_kernels(n_jobs: int, repeats: int) -> list[dict]:
    """Per-kernel throughput on one shared workload."""
    from .sim.fast import fcfs_waits, lwl_waits, shortest_queue_waits, tags_waits

    t, s = _kernel_workload(n_jobs)
    cutoffs = [float(np.quantile(s, 0.5)), float(np.quantile(s, 0.9))]
    kernels: list[tuple[str, Callable[[], object]]] = [
        ("kernel.fcfs_waits", lambda: fcfs_waits(t, s)),
        ("kernel.lwl_waits", lambda: lwl_waits(t, s, 4)),
        ("kernel.shortest_queue_waits", lambda: shortest_queue_waits(t, s, 4)),
        ("kernel.tags_waits", lambda: tags_waits(t, s, cutoffs)),
    ]
    entries = []
    for name, fn in kernels:
        fn()  # warm
        wall = _time(fn, repeats)
        entries.append(
            {
                "name": name,
                "wall_s": wall,
                "n_jobs": n_jobs,
                "jobs_per_s": n_jobs / wall if wall > 0 else None,
            }
        )
    return entries


def _bench_engine_vs_fast(n_jobs: int, repeats: int) -> list[dict]:
    """The reference event engine against the fast kernels on one
    workload — the speedup that justifies the fast path's existence."""
    from .core.policies import LeastWorkLeftPolicy
    from .sim.runner import simulate
    from .workloads.catalog import get_workload

    trace = get_workload("c90").make_trace(load=0.7, n_hosts=4, n_jobs=n_jobs, rng=1)
    fast = _time(
        lambda: simulate(trace, LeastWorkLeftPolicy(), 4, rng=1, backend="fast"),
        repeats,
    )
    engine = _time(
        lambda: simulate(trace, LeastWorkLeftPolicy(), 4, rng=1, backend="event"),
        max(1, repeats - 1),
    )
    return [
        {"name": "backend.fast", "wall_s": fast, "n_jobs": n_jobs,
         "jobs_per_s": n_jobs / fast if fast > 0 else None},
        {"name": "backend.event", "wall_s": engine, "n_jobs": n_jobs,
         "jobs_per_s": n_jobs / engine if engine > 0 else None},
        {"name": "backend.speedup", "wall_s": engine,
         "speedup_vs_event": engine / fast if fast > 0 else None},
    ]


def _bench_search(quick: bool, repeats: int) -> list[dict]:
    """The shared-computation cutoff-search engine vs the pre-engine paths.

    ``search.sim_pair`` times one batched-scan opt+fair search
    (:func:`repro.core.search.sim_cutoff_pair`, ``refine=False`` so both
    sides do exactly the same grid work) against the historical
    per-candidate ``simulate_fast`` loop pair
    (:func:`repro.core.search.sim_pair_reference`) **in the same run**,
    and asserts the grid argmins are bit-identical.  The refined search
    is timed alongside for reference.

    ``search.analytic_sweep`` times a 3-load analytic opt+fair sweep on
    the training sample's ``Empirical`` — the search behind every
    SITA-U-opt/fair figure point, whose slice moments come from the
    sample's power-sum table.
    """
    from .core.search import (
        analytic_cutoff_pair,
        sim_cutoff_pair,
        sim_pair_reference,
    )
    from .workloads.catalog import get_workload
    from .workloads.distributions import Empirical

    n_jobs = 4_000 if quick else 30_000
    n_candidates = 40
    train = get_workload("c90").make_trace(
        load=0.7, n_hosts=2, n_jobs=n_jobs, rng=2024
    )

    pair = sim_cutoff_pair(train, n_candidates=n_candidates, refine=False)  # warm
    loop_opt, loop_fair = sim_pair_reference(train, n_candidates=n_candidates)
    if (pair.opt, pair.fair) != (loop_opt, loop_fair):
        raise AssertionError(
            "batched-scan grid argmins differ from the per-candidate loop "
            f"({pair.opt}, {pair.fair}) != ({loop_opt}, {loop_fair})"
        )
    # Best-of needs more repeats here than the kernel benches: the loop
    # side is long enough that scheduler noise otherwise dominates the
    # recorded ratio.
    sim_repeats = repeats if quick else max(repeats, 5)
    scan_s = _time(
        lambda: sim_cutoff_pair(train, n_candidates=n_candidates, refine=False),
        sim_repeats,
    )
    loop_s = _time(
        lambda: sim_pair_reference(train, n_candidates=n_candidates), sim_repeats
    )
    refined_s = _time(
        lambda: sim_cutoff_pair(train, n_candidates=n_candidates), sim_repeats
    )

    dist = Empirical(train.service_times)
    loads = (0.5, 0.7, 0.9)

    def analytic_sweep() -> None:
        for load in loads:
            analytic_cutoff_pair(load, dist)

    analytic_sweep()  # warm
    analytic_s = _time(analytic_sweep, repeats)
    return [
        {
            "name": "search.sim_pair",
            "wall_s": scan_s,
            "n_jobs": n_jobs,
            "n_candidates": n_candidates,
            "loop_wall_s": loop_s,
            "refined_wall_s": refined_s,
            "speedup_vs_loop": loop_s / scan_s if scan_s > 0 else None,
            "argmin_identical_to_loop": True,
        },
        {
            "name": "search.analytic_sweep",
            "wall_s": analytic_s,
            "n_jobs": n_jobs,
            "loads": list(loads),
        },
    ]


def _bench_sweep(scale: float, workers: int, oversubscribed: bool) -> list[dict]:
    """One full experiment sweep, serial then parallel.

    Uses ``fig2`` (the canonical balanced-policy sweep).  The serial and
    parallel runs produce identical rows by construction — the harness
    asserts that here too, so every committed baseline doubles as an
    equivalence check on the machine that produced it.  ``workers`` is
    the *resolved* pool size (always >= 2, see :func:`resolve_workers`)
    and is recorded on the parallel entry together with the
    oversubscription flag, so a starved-box baseline reads as "2 workers
    on 1 cpu, 0.9x" instead of a mystery slowdown.
    """
    from .experiments import ExperimentConfig, run_experiment
    from .experiments.common import clear_trace_cache

    config = ExperimentConfig(scale=scale)
    clear_trace_cache()
    t0 = time.perf_counter()
    serial = run_experiment("fig2", config)
    serial_s = time.perf_counter() - t0
    clear_trace_cache()  # parallel run pays its own trace generation
    t0 = time.perf_counter()
    parallel = run_experiment("fig2", config, workers=workers)
    parallel_s = time.perf_counter() - t0
    if serial.rows != parallel.rows:
        raise AssertionError(
            "parallel sweep rows differ from serial — determinism bug"
        )
    return [
        {"name": "experiment.fig2.serial", "wall_s": serial_s, "scale": scale},
        {
            "name": "experiment.fig2.parallel",
            "wall_s": parallel_s,
            "scale": scale,
            "workers": workers,
            "oversubscribed": oversubscribed,
            "speedup_vs_serial": serial_s / parallel_s if parallel_s > 0 else None,
            "rows_identical_to_serial": True,
        },
    ]


def _serve_stream(n_jobs: int) -> list[tuple[float, float]]:
    """The C90 stream every serve bench drives (PR 8's exact workload)."""
    from .workloads.catalog import get_workload

    trace = get_workload("c90").make_trace(load=0.7, n_hosts=4, n_jobs=n_jobs, rng=7)
    t0 = float(trace.arrival_times[0])
    return [
        (float(a) - t0, float(s))
        for a, s in zip(trace.arrival_times, trace.service_times)
    ]


def _bench_serve(quick: bool) -> list[dict]:
    """Online dispatcher decision throughput, fast path and engine path.

    Three entry families over the same seeded C90 stream PR 8 measured:

    * ``serve.dispatch`` — the fault-free batched fast path, with
      per-stage wall-clock (intake / route / commit);
    * ``serve.dispatch.batch`` — a batch-size sweep showing where the
      per-call overhead amortises;
    * ``serve.dispatch.faulted`` — PR 8's exact configuration (a
      ~91%-availability re-dispatch fault model, so the engine path with
      breakers tripping and retries backing off), keeping the original
      trajectory comparable.

    Decision latency percentiles exclude admission/intake wait — the two
    stages are recorded separately (see
    :meth:`repro.serve.DispatchServer.latency_summary`).  The accounting
    invariant is asserted on every run, so the baseline doubles as a
    soak in miniature.
    """
    from .core.policies import LeastWorkLeftPolicy
    from .serve import DispatchServer, HealthMonitor
    from .sim.faults import FaultModel

    n_jobs = 2_000 if quick else 20_000
    jobs = _serve_stream(n_jobs)

    def run(batch_size: int, faults: FaultModel | None) -> tuple[dict, float]:
        kwargs: dict = {}
        if faults is not None:
            kwargs = {
                "faults": faults,
                "heartbeat_interval": faults.mttr,
                "health": HealthMonitor(cooldown=faults.mttr / 2),
            }
        server = DispatchServer(4, LeastWorkLeftPolicy(), seed=1, **kwargs)
        start = time.perf_counter()
        status = server.run_stream(jobs, batch_size=batch_size)
        wall = time.perf_counter() - start
        if not all(status["invariant"].values()):
            raise AssertionError(
                f"serve bench broke the accounting invariant: "
                f"{status['counters']}"
            )
        return status, wall

    entries: list[dict] = []
    status, wall = run(batch_size=1024, faults=None)
    lat = status["latency"]
    entries.append(
        {
            "name": "serve.dispatch",
            "wall_s": wall,
            "n_jobs": n_jobs,
            "batch_size": 1024,
            "fast_path_engaged": status["fast_path"]["engaged"],
            "decisions_per_s": lat["decisions_per_s"],
            "latency_p50_us": lat["p50_us"],
            "latency_p95_us": lat["p95_us"],
            "latency_p99_us": lat["p99_us"],
            "intake_ms": lat["stages"]["intake_ms"],
            "route_ms": lat["stages"]["route_ms"],
            "commit_ms": lat["stages"]["commit_ms"],
            "invariant_holds": True,
        }
    )
    for batch_size in (1, 16, 256):
        status, wall = run(batch_size=batch_size, faults=None)
        lat = status["latency"]
        entries.append(
            {
                "name": "serve.dispatch.batch",
                "wall_s": wall,
                "n_jobs": n_jobs,
                "batch_size": batch_size,
                "fast_path_engaged": status["fast_path"]["engaged"],
                "decisions_per_s": lat["decisions_per_s"],
                "latency_p50_us": lat["p50_us"],
                "latency_p95_us": lat["p95_us"],
                "latency_p99_us": lat["p99_us"],
                "invariant_holds": True,
            }
        )
    faults = FaultModel(mtbf=20_000.0, mttr=2_000.0, semantics="redispatch", seed=3)
    status, wall = run(batch_size=1, faults=faults)
    lat = status["latency"]
    entries.append(
        {
            "name": "serve.dispatch.faulted",
            "wall_s": wall,
            "n_jobs": n_jobs,
            "batch_size": 1,
            "fast_path_engaged": status["fast_path"]["engaged"],
            "decisions_per_s": lat["decisions_per_s"],
            "latency_p50_us": lat["p50_us"],
            "latency_p95_us": lat["p95_us"],
            "latency_p99_us": lat["p99_us"],
            "availability": faults.availability,
            "crashes": status["counters"]["crashes"],
            "invariant_holds": True,
        }
    )
    return entries


def resolve_workers(requested: int | None) -> tuple[int, bool]:
    """Pool size for the sweep bench and whether it oversubscribes.

    Two honesty bugs have shipped in committed baselines: a forced
    2-worker pool on a 1-cpu box recorded a 0.38x "speedup", and the
    min(4, cpu_count) default later resolved to a **1-worker pool** on
    the same box — a parallel row that measured pool overhead, not
    parallelism, while still labelling itself a speedup.  The default
    therefore floors at 2 workers so the parallel row always exercises a
    real pool, and the second element reports whether the resolved size
    oversubscribes the visible cores — for the default and for an
    explicit ``--workers`` alike — so the baseline can record it and
    trajectory comparisons can discount the point.
    """
    cpus = os.cpu_count() or 1
    resolved = requested if requested is not None else min(4, max(2, cpus))
    return resolved, resolved > cpus


def run_benchmarks(
    quick: bool = False,
    workers: int | None = None,
    scale: float | None = None,
    only: str | None = None,
) -> dict:
    """Execute the selected benchmark families, return the document.

    ``only`` is an ``fnmatch`` glob over :data:`FAMILY_NAMES`; ``None``
    runs everything.  A glob matching nothing raises
    :class:`BenchSelectionError` listing the families.
    """
    workers, oversubscribed = resolve_workers(workers)
    n_kernel = 20_000 if quick else 200_000
    n_backend = 5_000 if quick else 20_000
    repeats = 1 if quick else 3
    # Full paper scale by default (scale 1.0 = the experiment sizes the
    # figures are reproduced at); --quick keeps the CI smoke tiny.
    sweep_scale = scale if scale is not None else (0.05 if quick else 1.0)
    families: list[tuple[str, Callable[[], list[dict]]]] = [
        ("kernel", lambda: _bench_kernels(n_kernel, repeats)),
        ("backend", lambda: _bench_engine_vs_fast(n_backend, repeats)),
        ("search", lambda: _bench_search(quick, repeats)),
        (
            "experiment.fig2",
            lambda: _bench_sweep(sweep_scale, workers, oversubscribed),
        ),
        ("serve.dispatch", lambda: _bench_serve(quick)),
    ]
    assert tuple(name for name, _ in families) == FAMILY_NAMES
    if only is not None:
        families = [
            (name, fn) for name, fn in families if fnmatch.fnmatch(name, only)
        ]
        if not families:
            raise BenchSelectionError(
                f"--only {only!r} matches no benchmark family "
                f"(families: {', '.join(FAMILY_NAMES)})"
            )
    entries: list[dict] = []
    for _name, fn in families:
        entries += fn()
    return {
        "schema_version": SCHEMA_VERSION,
        "created": _dt.date.today().isoformat(),
        "quick": quick,
        "only": only,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "oversubscribed": oversubscribed,
        },
        "entries": entries,
    }


def default_output_path(created: str, directory: str | Path = ".") -> Path:
    """``BENCH_<date>.json`` in ``directory`` (the repo root by convention)."""
    return Path(directory) / f"BENCH_{created}.json"


def render(doc: dict) -> str:
    """Human-readable table of a baseline document."""
    env = doc["environment"]
    lines = [
        f"bench {doc['created']} — python {env['python']}, numpy {env['numpy']}, "
        f"{env['cpu_count']} cpus, {env['workers']} workers"
        + (" (quick)" if doc.get("quick") else "")
    ]
    for e in doc["entries"]:
        extra = []
        if e.get("jobs_per_s"):
            extra.append(f"{e['jobs_per_s'] / 1e3:8.0f}k jobs/s")
        if e.get("decisions_per_s"):
            extra.append(
                f"{e['decisions_per_s']:6.0f} decisions/s  "
                f"p50 {e['latency_p50_us']:.0f}us  p99 {e['latency_p99_us']:.0f}us"
            )
        for key in ("speedup_vs_event", "speedup_vs_loop",
                    "speedup_vs_serial"):
            if e.get(key):
                extra.append(f"{e[key]:.2f}x {key.split('_vs_')[1]}")
        lines.append(
            f"  {e['name']:32s} {e['wall_s'] * 1e3:10.1f} ms  " + "  ".join(extra)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the bench options on ``parser`` (shared with ``repro bench``)."""
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, single repeat — the CI smoke configuration",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for the parallel sweep bench (default: min(4, cpus))",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="job-count multiplier for the sweep bench (default: 0.25, quick 0.05)",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="GLOB",
        help=(
            "run only the benchmark families matching this fnmatch glob "
            f"(e.g. 'serve.*'; families: {', '.join(FAMILY_NAMES)})"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output JSON path (default: ./BENCH_<date>.json)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed bench invocation; returns the process exit code."""
    try:
        doc = run_benchmarks(
            quick=args.quick,
            workers=args.workers,
            scale=args.scale,
            only=getattr(args, "only", None),
        )
    except BenchSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else default_output_path(doc["created"])
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(render(doc))
    print(f"\nwrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="performance baseline harness (writes BENCH_<date>.json)",
    )
    add_bench_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
