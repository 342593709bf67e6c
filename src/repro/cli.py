"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------

``repro list``
    Show every registered experiment (paper tables/figures + ablations).
``repro run fig4 [--scale 0.2] [--csv out.csv]``
    Run one experiment and print its rows (optionally also write CSV).
    ``--checkpoint DIR`` makes the sweep crash-safe (atomic per-point
    writes) and ``--resume`` picks an interrupted sweep back up;
    ``--timeout``/``--retries`` bound the wall-clock cost of a single
    point (see ``docs/ROBUSTNESS.md``); the sweep's cells run on every
    usable CPU, and ``--workers N`` caps the processes (1 runs in this
    process) with the same rows (see ``docs/PERFORMANCE.md``).
``repro all [--out results] [--workers N]``
    Run every experiment and write ``<id>.txt``/``<id>.csv`` files.
``repro workloads``
    Print the calibrated workload catalog (Table-1 style).
``repro synth c90 out.swf --load 0.7 --hosts 2 --jobs 50000``
    Materialise a synthetic trace as a Standard Workload Format file.
``repro lint [paths] [--select/--ignore RULES] [--format text|json|github]``
    Run the simulation-correctness linter (per-file rules SIM004 and
    SIM006 plus the concurrency rules SIM208, SIM209 and SIM211, see
    ``docs/DEVTOOLS.md``); exits 0 clean, 1 with findings, 2 on usage
    errors.
``repro audit --experiment fig2_3 [--replays 2] [--scale 0.1]``
    Replay-divergence determinism audit: run an experiment twice with
    identical seeds, digest the event stream and every simulation
    result, report the first divergent event on mismatch, and
    cross-check the event engine against the fast kernels; exits 0
    deterministic, 1 divergence, 2 usage error.  ``--workers N`` also
    checks that an N-process sweep reproduces the one-process rows.
``repro serve c90 --policy sita --mtbf 2000 --snapshot state.json``
    Fault-tolerant online dispatcher: admission-controlled intake,
    per-host circuit breakers, jittered-backoff retries, crash-safe
    snapshots with deterministic ``--resume``, and (``--refit``)
    degraded-mode SITA cutoff re-fitting; drives a seeded stream by
    default (batched through the fault-free fast path, ``--batch-size``,
    see ``docs/PERFORMANCE.md``), or serves newline-JSON over
    ``--socket``/``--tcp`` (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

__all__ = ["main", "build_parser"]


def _add_run_arguments(run_p: argparse.ArgumentParser) -> None:
    run_p.add_argument("experiment", help="experiment id, e.g. fig4")
    run_p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="job-count multiplier (1.0 = paper scale; 0.1 for a quick look)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    run_p.add_argument("--csv", default=None, help="also write the rows as CSV")
    run_p.add_argument(
        "--plot",
        action="store_true",
        help="also render the result as an ASCII chart (where it has one)",
    )
    run_p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "persist every completed point under DIR/<experiment>/ with "
            "atomic writes, so an interrupted sweep can be resumed"
        ),
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse points already checkpointed under --checkpoint "
            "(same experiment and config) instead of recomputing them"
        ),
    )
    run_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per simulated point (default: unlimited)",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries for a timed-out point before giving up (default: 1)",
    )
    _add_workers_argument(run_p)


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run the sweep's cells on at most N processes; 1 runs them in "
            "this process, and the rows are the same for any N "
            "(default: every usable CPU)"
        ),
    )


def _add_all_arguments(all_p: argparse.ArgumentParser) -> None:
    all_p.add_argument("--scale", type=float, default=1.0, help="job-count multiplier")
    all_p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    all_p.add_argument(
        "--out", default="results", help="output directory for <id>.txt/<id>.csv"
    )
    _add_workers_argument(all_p)


def _add_lint_arguments(lint_p: argparse.ArgumentParser) -> None:
    from .devtools.lint import add_lint_arguments

    add_lint_arguments(lint_p)


def _add_audit_arguments(audit_p: argparse.ArgumentParser) -> None:
    from .devtools.audit import add_audit_arguments

    add_audit_arguments(audit_p)


def _add_serve_arguments(serve_p: argparse.ArgumentParser) -> None:
    from .serve.runner import add_serve_arguments

    add_serve_arguments(serve_p)


def _add_synth_arguments(synth_p: argparse.ArgumentParser) -> None:
    from .workloads.catalog import WORKLOAD_NAMES

    synth_p.add_argument("workload", choices=WORKLOAD_NAMES)
    synth_p.add_argument("output", help="path of the SWF file to write")
    synth_p.add_argument("--load", type=float, default=0.7, help="system load")
    synth_p.add_argument("--hosts", type=int, default=2, help="number of hosts")
    synth_p.add_argument("--jobs", type=int, default=None, help="number of jobs")
    synth_p.add_argument("--seed", type=int, default=0, help="RNG seed")


#: every subcommand: its help line and the function adding its arguments.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None] | None]] = {
    "list": ("list the registered experiments", None),
    "run": ("run one experiment and print its rows", _add_run_arguments),
    "all": (
        "run every registered experiment and write results to a directory",
        _add_all_arguments,
    ),
    "workloads": ("print the calibrated workload catalog", None),
    "lint": (
        "run the simulation-correctness linter (SIM004, SIM006, SIM208, SIM209, SIM211)",
        _add_lint_arguments,
    ),
    "audit": ("replay-divergence determinism audit of an experiment", _add_audit_arguments),
    "serve": (
        "fault-tolerant online dispatcher (driver or newline-JSON socket)",
        _add_serve_arguments,
    ),
    "synth": ("write a synthetic trace as SWF", _add_synth_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    Every subcommand is listed, but only ``command``'s arguments are
    added (all of them when ``command`` is None), so a call imports
    only what its own subcommand needs.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Task assignment policies for supercomputing servers "
            "(Schroeder & Harchol-Balter, HPDC 2000) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        sub_p = sub.add_parser(name, help=help_text)
        if add_arguments is not None and command in (None, name):
            add_arguments(sub_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser takes no option besides -h, so the first
    # bare word names the subcommand.
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)

    if args.command == "list":
        from .experiments import list_experiments

        for eid, title in list_experiments():
            print(f"{eid:22s} {title}")
        return 0

    if args.command == "run":
        from .experiments import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            scale=args.scale,
            point_timeout=args.timeout,
            point_retries=args.retries,
        )
        if args.seed is not None:
            config = config.with_(seed=args.seed)
        if args.resume and not args.checkpoint:
            print("error: --resume requires --checkpoint DIR", file=sys.stderr)
            return 2
        result = run_experiment(
            args.experiment,
            config,
            checkpoint_dir=args.checkpoint,
            resume=args.resume,
            workers=args.workers,
        )
        print(result.to_text())
        if args.plot:
            from .experiments.plotting import result_chart

            print()
            try:
                print(result_chart(result))
            except ValueError as exc:
                print(f"(no chart: {exc})")
        if args.csv:
            result.to_csv(args.csv)
            print(f"\nwrote {args.csv}")
        return 0

    if args.command == "all":
        import time
        from pathlib import Path

        from .experiments import ExperimentConfig, list_experiments, run_experiment

        config = ExperimentConfig(scale=args.scale)
        if args.seed is not None:
            config = config.with_(seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        failures = 0
        for eid, title in list_experiments():
            t0 = time.perf_counter()
            try:
                result = run_experiment(eid, config, workers=args.workers)
            except Exception as exc:  # pragma: no cover - surfaced to the user
                print(f"{eid:22s} FAILED: {exc}")
                failures += 1
                continue
            result.to_csv(out_dir / f"{eid}.csv")
            (out_dir / f"{eid}.txt").write_text(result.to_text() + "\n")
            print(f"{eid:22s} ok in {time.perf_counter() - t0:6.1f}s  ({title})")
        print(f"\nresults in {out_dir}/")
        return 1 if failures else 0

    if args.command == "workloads":
        from .workloads.catalog import WORKLOAD_NAMES, get_workload

        for name in WORKLOAD_NAMES:
            w = get_workload(name)
            row = w.table1_row()
            print(f"{name}: {w.description}")
            for k, v in row.items():
                print(f"    {k:24s} {v:.6g}")
        return 0

    if args.command == "lint":
        from .devtools.lint import run_from_args

        return run_from_args(args)

    if args.command == "audit":
        from .devtools.audit import run_from_args as run_audit

        return run_audit(args)

    if args.command == "serve":
        from .serve.runner import run_from_args as run_serve

        return run_serve(args)

    if args.command == "synth":
        from .workloads.catalog import get_workload

        w = get_workload(args.workload)
        trace = w.make_trace(
            load=args.load,
            n_hosts=args.hosts,
            n_jobs=args.jobs,
            rng=args.seed,
        )
        trace.to_swf(args.output)
        stats = trace.stats()
        print(
            f"wrote {args.output}: {stats.n_jobs} jobs, mean service "
            f"{stats.mean_service:.1f}s, SCV {stats.scv:.1f}"
        )
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
