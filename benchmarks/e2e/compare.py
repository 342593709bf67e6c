"""Compare two result files metric by metric, and run interleaved pairs.

Results pair by ``(workload, metric)``, never by position.  A side's
samples for one pair are the per-run medians when the file holds several
runs of that workload (as :func:`run_pairs` writes), and otherwise the
repeats of its single run.

Verdicts, against the metric's bound from the catalog:

``worse``       the change's median is worse than the base's by more
                than the bound (for a bound of 0, by anything at all);
``unresolved``  either side's spread (quartile distance over median) is
                wider than the bound, unless every change sample beats
                every base sample;
``better``      the change wins at least 9 in 10 pairs and the medians
                differ by more than the base's own spread;
``same``        none of those;
``info``        the metric has no bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from .metrics import BY_NAME, summarize

__all__ = ["compare_docs", "format_rows", "load_samples", "run_pairs"]


def load_samples(doc: dict) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> samples`` from one result document."""
    by_workload: dict[str, list[dict]] = {}
    for run in doc["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    out: dict[tuple[str, str], list[float]] = {}
    for workload, runs in by_workload.items():
        for run in runs:
            for name, m in run["metrics"].items():
                key = (workload, name)
                if len(runs) > 1:
                    out.setdefault(key, []).append(m["median"])
                else:
                    out[key] = list(m["samples"])
    return out


def _beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def _spread(s: dict) -> float:
    if s["median"] == 0:
        return 0.0 if s["q3"] == s["q1"] else float("inf")
    return abs(s["q3"] - s["q1"]) / abs(s["median"])


def verdict(name: str, base: list[float], change: list[float]) -> dict:
    metric = BY_NAME.get(name)
    better = metric.better if metric is not None else "lower"
    bound = metric.bound if metric is not None else None
    a, b = summarize(base), summarize(change)
    pairs = list(zip(base, change))
    wins = sum(_beats(y, x, better) for x, y in pairs)
    if a["median"] != 0:
        delta = (b["median"] - a["median"]) / abs(a["median"])
    else:
        delta = 0.0 if b["median"] == 0 else float("inf") * (1 if b["median"] > 0 else -1)
    worse_by = delta if better == "lower" else -delta
    every_better = all(_beats(y, x, better) for x in base for y in change)
    spread = max(_spread(a), _spread(b))
    if bound is None:
        label = "info"
    elif worse_by > bound:
        label = "worse"
    elif bound > 0 and spread > bound and not every_better:
        label = "unresolved"
    elif pairs and wins / len(pairs) >= 0.9 and -worse_by > _spread(a):
        label = "better"
    else:
        label = "same"
    return {
        "base": a,
        "change": b,
        "delta": delta,
        "won": wins / len(pairs) if pairs else 0.0,
        "spread": spread,
        "bound": bound,
        "verdict": label,
    }


def compare_docs(base_doc: dict, change_doc: dict) -> dict[tuple[str, str], dict]:
    base, change = load_samples(base_doc), load_samples(change_doc)
    keys = sorted(base.keys() & change.keys())
    return {key: verdict(key[1], base[key], change[key]) for key in keys}


def _cell(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def format_rows(rows: dict[tuple[str, str], dict]) -> str:
    lines = [
        f"{'workload':<17} {'metric':<44} {'base median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>5} {'bound':>6}  verdict"
    ]
    for (workload, name), r in rows.items():
        bound = "-" if r["bound"] is None else f"{r['bound']:.0%}"
        lines.append(
            f"{workload:<17} {name:<44} {_cell(r['base']):>34} {_cell(r['change']):>34} "
            f"{r['delta']:>+8.1%} {r['won']:>5.0%} {bound:>6}  {r['verdict']}"
        )
    worse = sum(r["verdict"] == "worse" for r in rows.values())
    unresolved = sum(r["verdict"] == "unresolved" for r in rows.values())
    lines.append(f"regressions: {worse}  unresolved: {unresolved}  pairs: {len(rows)}")
    return "\n".join(lines)


def run_pairs(base_dir: Path, change_dir: Path, workloads: list[str], seed: int,
              seconds: int, pairs: int) -> tuple[dict, dict]:
    """Run each checkout's own benchmark ``pairs`` times per workload,
    alternating which side goes first; return both result documents."""
    docs: dict[str, dict] = {"base": {"runs": []}, "change": {"runs": []}}
    sides = {"base": Path(base_dir).resolve(), "change": Path(change_dir).resolve()}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for workload in workloads:
            for side in order:
                cmd = [
                    sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                    "--out", "benchmarks/e2e/out/pair.json",
                ]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True,
                                      check=False)
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"{side} run of {workload} failed:\n{proc.stderr[-2000:]}"
                    )
                doc = json.loads((sides[side] / "benchmarks/e2e/out/pair.json").read_text())
                docs[side]["runs"].extend(doc["runs"])
                docs[side].setdefault("machine", doc.get("machine"))
                print(f"pair {i + 1}/{pairs} {workload} {side}: done", file=sys.stderr)
    return docs["base"], docs["change"]
