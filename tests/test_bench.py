"""Tests for the ``repro bench`` baseline harness."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import (
    FAMILY_NAMES,
    SCHEMA_VERSION,
    BenchSelectionError,
    default_output_path,
    main,
    render,
    resolve_workers,
    run_benchmarks,
)


@pytest.fixture(scope="module")
def quick_doc():
    # One real quick pass shared by every assertion below (the sweep
    # bench inside also asserts serial/parallel row identity itself).
    return run_benchmarks(quick=True, workers=2, scale=0.02)


class TestRunBenchmarks:
    def test_document_schema(self, quick_doc):
        assert quick_doc["schema_version"] == SCHEMA_VERSION
        assert quick_doc["quick"] is True
        env = quick_doc["environment"]
        assert env["workers"] == 2
        for field in ("python", "numpy", "platform", "cpu_count"):
            assert field in env

    def test_expected_entries_present(self, quick_doc):
        names = {e["name"] for e in quick_doc["entries"]}
        assert {
            "kernel.fcfs_waits",
            "kernel.lwl_waits",
            "kernel.shortest_queue_waits",
            "kernel.tags_waits",
            "backend.fast",
            "backend.event",
            "backend.speedup",
            "search.sim_pair",
            "search.analytic_sweep",
            "experiment.fig2.serial",
            "experiment.fig2.parallel",
            "serve.dispatch",
            "serve.dispatch.faulted",
        } <= names

    def test_search_entries_record_equivalence_and_speedups(self, quick_doc):
        sim = next(
            e for e in quick_doc["entries"] if e["name"] == "search.sim_pair"
        )
        assert sim["argmin_identical_to_loop"] is True
        assert sim["speedup_vs_loop"] > 0
        assert sim["loop_wall_s"] > 0 and sim["refined_wall_s"] > 0
        ana = next(
            e
            for e in quick_doc["entries"]
            if e["name"] == "search.analytic_sweep"
        )
        assert ana["wall_s"] > 0
        assert ana["loads"] == [0.5, 0.7, 0.9]
        assert "speedup_vs_unshared" not in ana

    def test_oversubscription_recorded(self, quick_doc):
        # workers=2 was forced; whether that oversubscribes depends on
        # the host's core count — the env field must agree either way.
        cpus = os.cpu_count() or 1
        assert quick_doc["environment"]["oversubscribed"] is (2 > cpus)

    def test_timings_are_positive(self, quick_doc):
        for entry in quick_doc["entries"]:
            assert entry["wall_s"] > 0, entry["name"]

    def test_parallel_entry_records_equivalence(self, quick_doc):
        par = next(
            e
            for e in quick_doc["entries"]
            if e["name"] == "experiment.fig2.parallel"
        )
        assert par["rows_identical_to_serial"] is True
        assert par["workers"] == 2
        assert par["speedup_vs_serial"] > 0
        # the parallel row carries its own honesty flag, mirroring the
        # environment's, so a starved-box point is discountable per entry
        cpus = os.cpu_count() or 1
        assert par["oversubscribed"] is (2 > cpus)

    def test_document_is_json_serializable(self, quick_doc):
        assert json.loads(json.dumps(quick_doc)) == quick_doc


class TestOnlySelection:
    def test_only_runs_the_matching_families(self):
        doc = run_benchmarks(quick=True, workers=2, scale=0.02,
                             only="experiment.fig2")
        names = {e["name"] for e in doc["entries"]}
        assert names == {"experiment.fig2.serial", "experiment.fig2.parallel"}
        assert doc["only"] == "experiment.fig2"

    def test_unmatched_glob_raises_listing_families(self):
        with pytest.raises(BenchSelectionError) as err:
            run_benchmarks(quick=True, only="nope.*")
        for family in FAMILY_NAMES:
            assert family in str(err.value)

    def test_cli_unmatched_glob_exits_2(self, tmp_path, capsys):
        rc = main(["--quick", "--only", "nope.*", "--out",
                   str(tmp_path / "x.json")])
        assert rc == 2
        assert "matches no benchmark family" in capsys.readouterr().err

    def test_full_run_records_no_filter(self, quick_doc):
        assert quick_doc["only"] is None


class TestResolveWorkers:
    def test_default_floors_at_two_and_caps_at_four(self):
        cpus = os.cpu_count() or 1
        workers, oversubscribed = resolve_workers(None)
        assert workers == min(4, max(2, cpus))
        # on a box with >= 2 cores the default never oversubscribes; on
        # a 1-core box the 2-worker floor does, and must say so
        assert oversubscribed is (workers > cpus)

    def test_forced_workers_honoured_and_flagged(self):
        cpus = os.cpu_count() or 1
        workers, oversubscribed = resolve_workers(cpus + 1)
        assert workers == cpus + 1
        assert oversubscribed is True

    def test_within_budget_not_flagged(self):
        workers, oversubscribed = resolve_workers(1)
        assert workers == 1
        assert oversubscribed is False


class TestCli:
    def test_default_output_path(self):
        assert default_output_path("2026-08-06").name == "BENCH_2026-08-06.json"

    def test_render_mentions_every_entry(self, quick_doc):
        text = render(quick_doc)
        for entry in quick_doc["entries"]:
            assert entry["name"] in text

    def test_main_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(
            ["--quick", "--workers", "2", "--scale", "0.02", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["entries"]
        assert str(out) in capsys.readouterr().out


def test_kernel_entries_cover_every_kernel(quick_doc):
    kernel_entries = [
        e for e in quick_doc["entries"] if e["name"].startswith("kernel.")
    ]
    assert sorted(e["name"] for e in kernel_entries) == [
        "kernel.fcfs_waits",
        "kernel.lwl_waits",
        "kernel.shortest_queue_waits",
        "kernel.tags_waits",
    ]
    for e in kernel_entries:
        assert e["jobs_per_s"] > 0
        assert "tier" not in e
