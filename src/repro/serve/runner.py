"""``repro serve`` — build and drive the online dispatcher from the CLI.

Two front ends over the same deterministic core:

* **driver mode** (default): generate a seeded job stream from a catalog
  workload and feed it through :meth:`DispatchServer.run_stream`,
  printing the final status document as JSON.  This is the reproducible
  configuration — it supports ``--snapshot``/``--resume`` and is what
  the CI soak job kills and resumes.
* **socket mode** (``--socket PATH`` or ``--tcp HOST:PORT``): expose the
  newline-JSON protocol and serve until interrupted.  Socket streams are
  not replayable (the snapshot audit needs the exact prefix back), so
  ``--resume`` is rejected there.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .admission import AdmissionController
from .health import HealthMonitor
from .refit import CutoffManager
from .server import DispatchServer, OnlineDispatchError
from .snapshot import SnapshotStore, serve_signature

__all__ = ["add_serve_arguments", "build_server", "run_from_args"]

POLICIES = ("lwl", "sq", "random", "rr", "sita")


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    from ..workloads.catalog import WORKLOAD_NAMES

    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--policy", choices=POLICIES, default="sita")
    parser.add_argument("--load", type=float, default=0.7, help="system load")
    parser.add_argument("--hosts", type=int, default=2, help="number of hosts")
    parser.add_argument("--jobs", type=int, default=10_000, help="stream length")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--batch-size", type=int, default=256, metavar="N",
        help=(
            "feed the driver stream through submit_batch in chunks of N "
            "(1 = scalar submits; decisions are identical either way)"
        ),
    )

    fault = parser.add_argument_group("fault model")
    fault.add_argument(
        "--mtbf", type=float, default=math.inf,
        help="mean time between failures (inf = no faults)",
    )
    fault.add_argument("--mttr", type=float, default=100.0, help="mean repair time")
    fault.add_argument(
        "--fault-semantics", choices=("lost", "redispatch", "resume"),
        default="redispatch",
    )
    fault.add_argument("--fault-seed", type=int, default=1)

    robust = parser.add_argument_group("robustness")
    robust.add_argument(
        "--rate", type=float, default=math.inf,
        help="admission token rate per simulated second (inf = unlimited)",
    )
    robust.add_argument("--burst", type=float, default=32.0, help="token burst")
    robust.add_argument(
        "--max-deferred", type=int, default=1024,
        help="deferred-queue hard cap (overflow sheds)",
    )
    robust.add_argument(
        "--refit", action="store_true",
        help="re-fit the SITA cutoff online from a sliding window",
    )
    robust.add_argument("--refit-window", type=int, default=2048)
    robust.add_argument("--refit-every", type=int, default=512)
    robust.add_argument(
        "--heartbeat", type=float, default=None,
        help=(
            "breaker probe interval, simulated seconds (default: mttr "
            "with faults enabled, 10x the mean service time otherwise)"
        ),
    )

    snap = parser.add_argument_group("snapshots")
    snap.add_argument("--snapshot", default=None, metavar="PATH")
    snap.add_argument("--snapshot-every", type=int, default=1000, metavar="N")
    snap.add_argument(
        "--resume", action="store_true",
        help="replay the snapshotted prefix and continue (driver mode only)",
    )

    net = parser.add_argument_group("socket front end")
    net.add_argument("--socket", default=None, metavar="PATH", help="Unix socket")
    net.add_argument("--tcp", default=None, metavar="HOST:PORT")


def _build_policy(name: str, workload, load: float, n_hosts: int):
    from ..core.policies import (
        LeastWorkLeftPolicy,
        RandomPolicy,
        RoundRobinPolicy,
        ShortestQueuePolicy,
        SITAPolicy,
    )

    if name == "lwl":
        return LeastWorkLeftPolicy()
    if name == "sq":
        return ShortestQueuePolicy()
    if name == "random":
        return RandomPolicy()
    if name == "rr":
        return RoundRobinPolicy()
    dist = workload.service_dist
    if n_hosts == 2:
        from ..core.search import analytic_cutoff_pair

        cutoff = analytic_cutoff_pair(load, dist, want=("opt",))["opt"]
        return SITAPolicy([cutoff], name="sita-u-opt")
    from ..core.cutoffs import equal_load_cutoffs

    return SITAPolicy(equal_load_cutoffs(dist, n_hosts), name="sita-e")


def build_server(args: argparse.Namespace) -> DispatchServer:
    """Assemble a :class:`DispatchServer` from parsed CLI arguments."""
    from ..sim.faults import FaultModel
    from ..workloads.catalog import get_workload

    workload = get_workload(args.workload)
    policy = _build_policy(args.policy, workload, args.load, args.hosts)
    faults = None
    if math.isfinite(args.mtbf):
        faults = FaultModel(
            mtbf=args.mtbf,
            mttr=args.mttr,
            semantics=args.fault_semantics,
            seed=args.fault_seed,
        )
    manager = None
    if args.refit:
        cutoff = getattr(policy, "cutoffs", None)
        if cutoff is None or cutoff.size != 1:
            raise SystemExit(
                "error: --refit needs a single-cutoff SITA policy "
                "(--policy sita with --hosts 2)"
            )
        manager = CutoffManager(
            float(cutoff[0]),
            n_hosts=args.hosts,
            window=args.refit_window,
            refit_every=args.refit_every,
        )
    store = None
    if args.snapshot:
        description = (
            f"serve:{args.workload}:{args.policy}:load={args.load!r}:"
            f"h={args.hosts}:jobs={args.jobs}:seed={args.seed}:"
            f"faults={faults.describe() if faults else 'none'}:"
            f"rate={args.rate!r}:burst={args.burst!r}:"
            f"cap={args.max_deferred}:refit={bool(manager)}"
        )
        store = SnapshotStore(args.snapshot, serve_signature(description))
    # Probe cadence and breaker cooldown must live on the workload's
    # time scale (C90 jobs run for thousands of simulated seconds): probe
    # about once per repair period so crashes of idle hosts are noticed
    # within one outage, and hold a tripped breaker open for half of one.
    if args.heartbeat is not None:
        heartbeat = args.heartbeat
    elif faults is not None:
        heartbeat = faults.mttr
    else:
        heartbeat = 10.0 * workload.service_dist.mean
    cooldown = faults.mttr / 2.0 if faults is not None else heartbeat
    return DispatchServer(
        args.hosts,
        policy,
        seed=args.seed,
        faults=faults,
        admission=AdmissionController(
            rate=args.rate, burst=args.burst, max_deferred=args.max_deferred
        ),
        health=HealthMonitor(cooldown=cooldown),
        cutoff_manager=manager,
        heartbeat_interval=heartbeat,
        snapshot_store=store,
        snapshot_every=args.snapshot_every,
    )


def _make_stream(args: argparse.Namespace) -> list[tuple[float, float]]:
    """The seeded ``(arrival, size)`` stream — a deterministic function of
    the config, which is what makes ``--resume``'s replay audit possible."""
    from ..workloads.catalog import get_workload

    trace = get_workload(args.workload).make_trace(
        load=args.load, n_hosts=args.hosts, n_jobs=args.jobs, rng=args.seed
    )
    t0 = float(trace.arrival_times[0])
    return [
        (float(t) - t0, float(s))
        for t, s in zip(trace.arrival_times, trace.service_times)
    ]


def _run_socket(core: DispatchServer, args: argparse.Namespace) -> int:
    import asyncio

    from .frontend import ServeFrontend

    async def _main() -> None:
        frontend = ServeFrontend(core)
        if args.socket:
            await frontend.start_unix(args.socket)
            where = args.socket
        else:
            host, _, port = args.tcp.rpartition(":")
            await frontend.start_tcp(host or "127.0.0.1", int(port))
            where = args.tcp
        print(f"serving {args.policy} on {where} (ctrl-C to stop)", file=sys.stderr)
        try:
            await frontend.serve_forever()
        finally:
            await frontend.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print(json.dumps(core.status(), indent=2, sort_keys=True))
    return 0


def run_from_args(args: argparse.Namespace) -> int:
    if args.socket and args.tcp:
        print("error: --socket and --tcp are mutually exclusive", file=sys.stderr)
        return 2
    if args.resume and not args.snapshot:
        print("error: --resume requires --snapshot PATH", file=sys.stderr)
        return 2
    if args.resume and (args.socket or args.tcp):
        print(
            "error: --resume works in driver mode only (a socket stream "
            "cannot be replayed for the snapshot audit)",
            file=sys.stderr,
        )
        return 2
    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    core = build_server(args)
    if args.socket or args.tcp:
        return _run_socket(core, args)
    try:
        status = core.run_stream(
            _make_stream(args), resume=args.resume, batch_size=args.batch_size
        )
    except OnlineDispatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(status, indent=2, sort_keys=True))
    holds = all(status["invariant"].values())
    return 0 if holds else 1
