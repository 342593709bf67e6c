"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Every
workload runs once at ``--quick`` size with a traced repeat, which takes
well under a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import math

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.compare import compare_docs
from benchmarks.e2e.metrics import by_role, summarize

SEED = 11
WORKLOADS = list(harness.WORKLOADS)
IN_PROCESS = [w for w, (kind, _) in harness.WORKLOADS.items() if kind != "socket"]


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: harness.run_workload(w, seed=SEED, trace=True, quick=True) for w in WORKLOADS}


def test_benchmark_json_matches_the_catalog():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in doc["workloads"]] == WORKLOADS
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in by_role("e2e")
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in by_role("layer")
    ]
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert doc["command"][1].startswith(doc["paths"][0] + "/")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_result_line_schema(traced, workload, trace):
    result = traced[workload]
    line = harness.final_line({**result, "trace": trace})
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    role = "layer" if trace else "e2e"
    assert list(line["metrics"]) == [m.name for m in by_role(role)]
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name
    json.dumps(line)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_span_self_times_add_up_to_the_root(traced, workload):
    result = traced[workload]
    doc = json.loads((harness.ROOT / result["spans_file"]).read_text())
    agg = doc["aggregates"]
    roots = [s for s in doc["spans"] if s["parent"] is None]
    assert len(roots) == 1
    root = agg[roots[0]["name"]]
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(root["s"], rel=0.01)
    layers = result["metrics"]
    assert layers["root.unattributed_s"]["median"] == pytest.approx(root["self_s"])
    assert layers["root.wall_s"]["median"] == pytest.approx(root["s"])
    ids = {s["id"] for s in doc["spans"]}
    for span in doc["spans"]:
        assert set(span) == {"id", "name", "start", "end", "parent", "run"}
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids


def _perturb(workload: str, outputs: dict) -> dict:
    out = json.loads(json.dumps(outputs))
    if harness.WORKLOADS[workload][0] == "sweep":
        row = out["rows"][0]
        k = next(i for i, v in enumerate(row) if isinstance(v, float))
        row[k] *= 1 + 1e-6
    else:
        out["counters"]["completed"] += 1
    return out


@pytest.mark.parametrize("workload", ["sweep-balanced", "serve-faulted"])
def test_a_perturbed_reference_raises_error_rate(tmp_path, workload):
    outputs = harness.record_outputs(workload, SEED, quick=True)
    ref = tmp_path / f"{workload}.json"

    ref.write_text(json.dumps({str(SEED): outputs}))
    clean = harness.run_workload(workload, seed=SEED, quick=True, reference_dir=tmp_path)
    assert clean["failed"] == 0
    assert clean["metrics"]["error_rate"]["median"] == 0

    ref.write_text(json.dumps({str(SEED): _perturb(workload, outputs)}))
    bad = harness.run_workload(workload, seed=SEED, quick=True, reference_dir=tmp_path)
    assert bad["failed"] > 0 and not bad["correct"]
    assert bad["metrics"]["error_rate"]["median"] > 0
    assert harness.final_line(bad)["failed"] == bad["failed"]


def _doc(workload: str, metrics: dict[str, list[float]]) -> dict:
    return {"runs": [{
        "workload": workload,
        "metrics": {k: summarize(v) for k, v in metrics.items()},
    }]}


def test_compare_pairs_by_name_and_applies_bounds():
    base = _doc("w", {
        "work_s": [1.0, 1.01, 0.99, 1.0, 1.0],
        "setup_s": [1.0, 1.0, 1.0, 1.0, 1.0],
        "peak_rss_mb": [100.0, 100.0, 100.0, 100.0, 100.0],
        "error_rate": [0.0],
    })
    # Same metrics in another order: pairing must go by name.
    change = _doc("w", {
        "error_rate": [0.001],
        "peak_rss_mb": [101.0, 101.0, 101.0, 101.0, 101.0],
        "setup_s": [0.5, 1.6, 0.7, 1.4, 1.0],
        "work_s": [1.3, 1.31, 1.29, 1.3, 1.3],
    })
    rows = compare_docs(base, change)
    assert rows[("w", "work_s")]["verdict"] == "worse"
    assert rows[("w", "setup_s")]["verdict"] == "unresolved"
    assert rows[("w", "peak_rss_mb")]["verdict"] == "same"
    assert rows[("w", "error_rate")]["verdict"] == "worse"
    faster = _doc("w", {"work_s": [0.9, 0.91, 0.89, 0.9, 0.9]})
    row = compare_docs(base, faster)[("w", "work_s")]
    assert row["verdict"] == "better" and row["won"] == 1.0
