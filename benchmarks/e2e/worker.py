"""One repeat of one workload, run in a fresh process.

Run as a script next to the program under test::

    python benchmarks/e2e/worker.py sweep-unbalanced --seed 20000731
    python benchmarks/e2e/worker.py serve-stream --seed 11 --check --trace out/spans.json
    python benchmarks/e2e/worker.py socket-server --seed 11 --socket P --trace F \
        -- c90 --policy sita

Every repeat starts a new interpreter, so it pays for importing the
package and starts with cold caches (the cutoff-search moment memo, the
trace LRU), as a user's ``repro run`` or ``repro serve`` does.  The
in-process workloads print one JSON line on stdout; the harness
(``harness.py``) reads it.  ``socket-server`` is the traced twin of
``repro serve --socket``: the same ``build_server`` and ``ServeFrontend``,
with the tracer's wrappers installed first.

This file imports only the standard library and ``repro``, plus the
tracer beside it, so nothing the benchmark needs inflates import time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

#: sweep workloads: experiment id, full scale, quick scale.
SWEEPS = {
    "sweep-unbalanced": ("fig4", 8.0, 1.0),
    "sweep-balanced": ("fig3", 10.0, 1.0),
}

#: serve workloads: ``repro serve`` arguments, stream length (full,
#: quick) and batch size.  ``--seed`` is the server's own RNG root; the
#: benchmark seed drives the job stream.
SERVES = {
    "serve-stream": (
        ["c90", "--policy", "sita", "--hosts", "2", "--seed", "1"],
        (1_000_000, 100_000),
        256,
    ),
    "serve-faulted": (
        [
            "c90", "--policy", "lwl", "--hosts", "4", "--seed", "1",
            "--mtbf", "20000", "--mttr", "2000",
            "--fault-semantics", "resume", "--fault-seed", "3",
        ],
        (20_000, 2_000),
        1,
    ),
}

#: jobs in the fast-vs-event prefix check.
CHECK_PREFIX = 20_000


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def serve_args(argv: list[str]) -> argparse.Namespace:
    from repro.serve.runner import add_serve_arguments

    parser = argparse.ArgumentParser(prog="repro serve")
    add_serve_arguments(parser)
    return parser.parse_args(argv)


def make_stream(workload: str, load: float, n_hosts: int, n_jobs: int, seed: int):
    """The seeded ``(arrival, size)`` stream, arrivals rebased to 0."""
    from repro.workloads.catalog import get_workload

    trace = get_workload(workload).make_trace(
        load=load, n_hosts=n_hosts, n_jobs=n_jobs, rng=seed
    )
    t0 = float(trace.arrival_times[0])
    return [
        (float(t) - t0, float(s))
        for t, s in zip(trace.arrival_times.tolist(), trace.service_times.tolist())
    ]


# ----------------------------------------------------------------------
# tracing: which public attributes each workload's layers live behind
# ----------------------------------------------------------------------


def _n_rows(args) -> float:
    return float(len(args[0]))


def _n_batch(args) -> float:
    return float(len(args[1]))


def install_sweep_wrappers(tracer) -> None:
    import repro.experiments.common as common
    import repro.experiments.fig2_3 as fig2_3
    import repro.experiments.fig4 as fig4
    import repro.sim.fast as fast
    from repro.sim.metrics import SimulationResult

    tracer.patch(fig4, "make_split_trace", "workloads.make_split_trace")
    tracer.patch(fig2_3, "make_split_trace", "workloads.make_split_trace")
    tracer.patch(fig4, "fit_sita_cutoffs", "core.search.fit_sita_cutoffs")
    tracer.patch(fig2_3, "equal_load_cutoffs", "core.cutoffs.equal_load_cutoffs")
    tracer.patch(common, "equal_load_cutoffs", "core.cutoffs.equal_load_cutoffs")
    tracer.patch(common, "simulate", "sim.runner.simulate")
    tracer.patch(fast, "lwl_waits", "sim.fast.lwl_waits", units=_n_rows)
    tracer.patch(fast, "fcfs_waits", "sim.fast.fcfs_waits", units=_n_rows)
    tracer.patch(SimulationResult, "summary", "sim.metrics.summary")


def install_serve_wrappers(tracer) -> None:
    import repro.serve.frontend as frontend
    from repro.serve.fastpath import FastPathState
    from repro.serve.health import HealthMonitor
    from repro.serve.server import DispatchServer
    from repro.sim.engine import Simulator

    tracer.patch(DispatchServer, "submit_batch", "serve.server.submit_batch")
    tracer.patch(DispatchServer, "submit", "serve.server.submit")
    tracer.patch(DispatchServer, "drain", "serve.server.drain")
    tracer.patch(DispatchServer, "status", "serve.server.status")
    tracer.patch(FastPathState, "route_batch", "serve.fastpath.route_batch", units=_n_batch)
    tracer.patch(FastPathState, "route_one", "serve.fastpath.route_one")
    tracer.patch(
        FastPathState, "materialize_completed", "serve.fastpath.materialize_completed"
    )
    tracer.patch(Simulator, "run", "sim.engine.run")
    tracer.patch(HealthMonitor, "up_mask", "serve.health.up_mask")
    tracer.patch(HealthMonitor, "probe", "serve.health.probe")
    tracer.patch(frontend, "decode_line", "serve.protocol.decode_line")
    tracer.patch(frontend, "encode", "serve.protocol.encode")


def _new_tracer(workload: str, seed: int):
    from tracer import Tracer

    return Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def run_sweep(workload: str, seed: int, quick: bool, trace: str | None, check: bool) -> dict:
    from repro.experiments import ExperimentConfig, run_experiment

    t_imported = time.monotonic()
    exp_id, scale, quick_scale = SWEEPS[workload]
    config = ExperimentConfig(scale=quick_scale if quick else scale, seed=seed)
    tracer = None
    if trace:
        tracer = _new_tracer(workload, seed)
        install_sweep_wrappers(tracer)
    rss_before = _rss_mb()
    t0 = time.perf_counter()
    if tracer is not None:
        run_experiment = tracer.wrap("experiments.run_experiment", run_experiment)
    result = run_experiment(exp_id, config)
    work_s = time.perf_counter() - t0
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()
        tracer.write(trace, workload)
    outputs = {
        "columns": list(result.columns),
        "rows": [[row.get(c) for c in result.columns] for row in result.rows],
    }
    c0 = time.perf_counter()
    oracle = sweep_oracle_check(exp_id, config) if check else None
    check_s = time.perf_counter() - c0
    return {
        "t_imported": t_imported,
        "construct_s": 0.0,
        "work_s": work_s,
        "ops": len(result.rows),
        "peak_rss_mb": peak,
        "mem_growth_mb": peak - rss_before,
        "outputs": outputs,
        "check": oracle,
        "check_s": check_s,
        "root": "experiments.run_experiment",
        "layers": tracer.summary() if tracer is not None else None,
    }


def sweep_oracle_check(exp_id: str, config) -> dict:
    """Fast kernels against the event engine on one sweep point's prefix.

    The point is the sweep's highest load, where queues are longest.
    fig4 is checked with SITA-U-opt (the per-host Lindley kernel), fig3
    with Least-Work-Left on 4 hosts (the heap kernel).  The fast Lindley
    kernel sums in another order than the engine, so waits must agree
    to 1e-12 of the prefix's time span rather than bit for bit.
    """
    import numpy as np

    from repro.core.policies import LeastWorkLeftPolicy
    from repro.experiments.common import (
        fit_sita_cutoffs,
        make_split_trace,
        point_seed,
        sita_family,
    )
    from repro.sim.runner import simulate
    from repro.workloads.catalog import get_workload

    workload = get_workload("c90")
    load = config.sweep_loads()[-1]
    base_jobs = config.jobs(max(workload.n_jobs, 30_000))
    if exp_id == "fig4":
        n_hosts = 2
        seed = point_seed(config, "fig4", "c90", load, 0)
        train, test = make_split_trace(workload, load, n_hosts, base_jobs, seed)
        policy = sita_family(fit_sita_cutoffs(train, load))[1]
        name = "sita-u-opt"
    else:
        n_hosts = 4
        seed = point_seed(config, "fig3", "c90", n_hosts, load, 0)
        _train, test = make_split_trace(workload, load, n_hosts, base_jobs, seed)
        policy = LeastWorkLeftPolicy()
        name = "lwl"
    prefix = test.head(min(CHECK_PREFIX, test.n_jobs))
    fast = simulate(prefix, policy, n_hosts, rng=seed, backend="fast").wait_times
    event = simulate(prefix, policy, n_hosts, rng=seed, backend="event").wait_times
    span = float(prefix.arrival_times[-1] - prefix.arrival_times[0])
    ok = bool(
        fast.shape == event.shape and np.allclose(fast, event, rtol=0.0, atol=1e-12 * span)
    )
    worst = float(np.max(np.abs(fast - event))) if fast.shape == event.shape else float("inf")
    detail = f"{name} h={n_hosts} load={load} jobs={prefix.n_jobs} max|dw|={worst:.3g}"
    return {"ok": ok, "detail": detail}


# ----------------------------------------------------------------------
# in-process serve
# ----------------------------------------------------------------------


def run_serve(workload: str, seed: int, quick: bool, trace: str | None, check: bool) -> dict:
    import repro.workloads.catalog  # noqa: F401  (the CLI imports it too)
    from repro.serve.runner import build_server

    t_imported = time.monotonic()
    serve_argv, sizes, batch = SERVES[workload]
    args = serve_args(serve_argv)
    n_jobs = sizes[1] if quick else sizes[0]
    jobs = make_stream(args.workload, args.load, args.hosts, n_jobs, seed)
    c0 = time.perf_counter()
    server = build_server(args)
    construct_s = time.perf_counter() - c0
    tracer = None
    if trace:
        tracer = _new_tracer(workload, seed)
        install_serve_wrappers(tracer)
    rss_before = _rss_mb()
    t0 = time.perf_counter()
    run_stream = server.run_stream
    if tracer is not None:
        run_stream = tracer.wrap("serve.server.run_stream", run_stream)
    status = run_stream(jobs, batch_size=batch)
    work_s = time.perf_counter() - t0
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()
        tracer.write(trace, workload)
    counters = status["counters"]
    outputs = {
        "counters": counters,
        "jain_slowdown": status["jain_slowdown"],
        "invariant": all(status["invariant"].values()),
    }
    oracle = None
    c0 = time.perf_counter()
    if check and workload == "serve-stream":
        del server, status
        oracle = serve_oracle_check(args, jobs[:CHECK_PREFIX])
    check_s = time.perf_counter() - c0
    return {
        "t_imported": t_imported,
        "construct_s": construct_s,
        "work_s": work_s,
        "ops": counters["accepted"],
        "peak_rss_mb": peak,
        "mem_growth_mb": peak - rss_before,
        "outputs": outputs,
        "check": oracle,
        "check_s": check_s,
        "root": "serve.server.run_stream",
        "layers": tracer.summary() if tracer is not None else None,
    }


def serve_oracle_check(args, jobs) -> dict:
    """The fast path against the event path on a stream prefix.

    Both servers are built the same way and differ only in
    ``fast_path``; the per-job table and the counters must be equal.
    The heartbeat and breaker cooldown are ``build_server``'s fault-free
    defaults (ten mean service times), which keep the event path's
    heartbeat chain to a few events per job.
    """
    import numpy as np

    from repro.core.policies import SITAPolicy
    from repro.core.search import analytic_cutoff_pair
    from repro.serve.health import HealthMonitor
    from repro.serve.server import DispatchServer
    from repro.workloads.catalog import get_workload

    dist = get_workload(args.workload).service_dist
    cutoff = analytic_cutoff_pair(args.load, dist, want=("opt",))["opt"]
    heartbeat = 10.0 * dist.mean
    tables = []
    counters = []
    for fast_path in (True, False):
        server = DispatchServer(
            args.hosts, SITAPolicy([cutoff], name="sita-u-opt"), seed=args.seed,
            health=HealthMonitor(cooldown=heartbeat), heartbeat_interval=heartbeat,
            fast_path=fast_path,
        )
        counters.append(server.run_stream(jobs, batch_size=256)["counters"])
        tables.append(server.job_table())
    fast, event = tables
    same = counters[0] == counters[1] and all(
        np.array_equal(fast[k], event[k]) for k in fast
    )
    return {"ok": bool(same), "detail": f"fast path vs event path, {len(jobs)} jobs"}


# ----------------------------------------------------------------------
# traced socket server
# ----------------------------------------------------------------------


def run_socket_server(seed: int, socket_path: str, trace: str, serve_argv: list[str]) -> int:
    import asyncio
    import signal

    from repro.serve.frontend import ServeFrontend
    from repro.serve.runner import build_server

    tracer = _new_tracer("serve-socket", seed)
    install_serve_wrappers(tracer)
    core = build_server(serve_args(serve_argv))

    async def serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        frontend = ServeFrontend(core)
        await frontend.start_unix(socket_path)
        try:
            await stop.wait()
        finally:
            await frontend.close()

    asyncio.run(serve())
    tracer.restore()
    tracer.write(trace, "serve-socket")
    print(json.dumps({"layers": tracer.summary(), "counters": core.counters()}))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    serve_argv: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, serve_argv = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[*SWEEPS, *SERVES, "socket-server"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--check", action="store_true", help="run the oracle check too")
    parser.add_argument("--trace", default=None, metavar="SPANS_JSON")
    parser.add_argument("--socket", default=None, metavar="PATH")
    ns = parser.parse_args(argv)
    if ns.workload == "socket-server":
        if not (ns.socket and ns.trace and serve_argv):
            parser.error("socket-server needs --socket, --trace and '-- <serve args>'")
        return run_socket_server(ns.seed, ns.socket, ns.trace, serve_argv)
    runner = run_sweep if ns.workload in SWEEPS else run_serve
    doc = runner(ns.workload, ns.seed, ns.quick, ns.trace, ns.check)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
