"""``python -m benchmarks.e2e`` — run, compare and pair the benchmark.

::

    python -m benchmarks.e2e run [--workload W] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--quick] [--out F]
    python -m benchmarks.e2e compare BASE.json CHANGE.json
    python -m benchmarks.e2e pairs BASE_DIR CHANGE_DIR [--workload W]
                                 [--pairs 10] [--out-base A] [--out-change B]
    python -m benchmarks.e2e reference [--workload W] [--seed N ...]

``run`` prints a report per workload and, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  ``--out``
writes every metric's median, quartiles and samples.  Exit status is 0
with a result, 1 when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, loadgen
from .compare import compare_docs, format_rows, run_pairs

def _write(path: str, doc: dict) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1))


def cmd_run(ns: argparse.Namespace) -> int:
    workloads = ns.workload or list(harness.WORKLOADS)
    runs = []
    for workload in workloads:
        result = harness.run_workload(
            workload, seed=ns.seed, seconds=ns.seconds, trace=bool(ns.trace), quick=ns.quick
        )
        runs.append(result)
        print(harness.report(result), flush=True)
        if ns.out:
            _write(ns.out, {"machine": harness.machine(), "runs": runs})
        print(json.dumps(harness.final_line(result)), flush=True)
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    base = json.loads(Path(ns.base).read_text())
    change = json.loads(Path(ns.change).read_text())
    rows = compare_docs(base, change)
    print(format_rows(rows))
    bad = any(r["verdict"] in ("worse", "unresolved") for r in rows.values())
    return 1 if bad else 0


def cmd_pairs(ns: argparse.Namespace) -> int:
    workloads = ns.workload or list(harness.WORKLOADS)
    base, change = run_pairs(
        Path(ns.base_dir), Path(ns.change_dir), workloads, ns.seed, ns.seconds, ns.pairs
    )
    _write(ns.out_base, base)
    _write(ns.out_change, change)
    rows = compare_docs(base, change)
    print(format_rows(rows))
    return 1 if any(r["verdict"] in ("worse", "unresolved") for r in rows.values()) else 0


def cmd_reference(ns: argparse.Namespace) -> int:
    """Record full-size outputs for the reference seeds.

    Re-run only when a change is meant to alter the program's outputs,
    and review the diff of ``reference/`` like code.
    """
    workloads = ns.workload or list(harness.WORKLOADS)
    seeds = ns.seed or list(harness.REFERENCE_SEEDS)
    for workload in workloads:
        doc = {}
        for seed in seeds:
            doc[str(seed)] = harness.record_outputs(workload, seed)
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
        _write(str(harness.REFERENCE_DIR / f"{workload}.json"), doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the repro package.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    names = list(harness.WORKLOADS)

    run = sub.add_parser("run", help="run workloads and print metrics (README.md: why each)")
    run.add_argument("--workload", action="append", choices=names,
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=25.0,
                     help="time budget for one workload's repeats")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="add a traced repeat and report per-layer metrics")
    run.add_argument("--quick", action="store_true",
                     help="small sizes, one repeat each (self-tests)")
    run.add_argument("--out", default=None, help="write full results as JSON")
    run.set_defaults(fn=cmd_run)

    cmp = sub.add_parser("compare", help="compare two --out files")
    cmp.add_argument("base")
    cmp.add_argument("change")
    cmp.set_defaults(fn=cmd_compare)

    pairs = sub.add_parser("pairs", help="run interleaved base/change pairs, then compare")
    pairs.add_argument("base_dir")
    pairs.add_argument("change_dir")
    pairs.add_argument("--workload", action="append", choices=names)
    pairs.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    pairs.add_argument("--seconds", type=int, default=25)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--out-base", default="benchmarks/e2e/out/base.json")
    pairs.add_argument("--out-change", default="benchmarks/e2e/out/change.json")
    pairs.set_defaults(fn=cmd_pairs)

    ref = sub.add_parser("reference", help="record reference outputs")
    ref.add_argument("--workload", action="append", choices=names)
    ref.add_argument("--seed", type=int, action="append")
    ref.set_defaults(fn=cmd_reference)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except (harness.BenchmarkError, loadgen.ServerGone) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
