"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.workloads.traces import read_swf


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "fig4", "--scale", "0.2"])
        assert args.experiment == "fig4"
        assert args.scale == 0.2

    @pytest.mark.parametrize("command", [["run", "fig4"], ["all"]])
    def test_workers_defaults_to_every_cpu(self, command):
        parser = build_parser()
        assert parser.parse_args(command).workers is None
        assert parser.parse_args([*command, "--workers", "1"]).workers == 1

    def test_run_csv_is_the_same_for_any_workers(self, tmp_path, capsys):
        for workers in ("1", "2"):
            argv = ["run", "fig2", "--scale", "0.02", "--seed", "3"]
            csv = tmp_path / f"w{workers}.csv"
            assert main([*argv, "--workers", workers, "--csv", str(csv)]) == 0
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "table1" in out and "ablate_tags" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "c90" in out and "scv" in out

    def test_run_prints_table(self, capsys):
        assert main(["run", "fig8", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "mean_slowdown" in out
        assert "sita-e" in out

    def test_run_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["run", "fig8", "--scale", "0.05", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "policy" in csv_path.read_text().splitlines()[0]

    def test_run_seed_flag(self, capsys):
        assert main(["run", "fig8", "--scale", "0.05", "--seed", "7"]) == 0

    def test_synth_writes_swf(self, tmp_path, capsys):
        out = tmp_path / "c90.swf"
        code = main(
            ["synth", "c90", str(out), "--load", "0.5", "--jobs", "500", "--seed", "3"]
        )
        assert code == 0
        trace = read_swf(out)
        assert trace.n_jobs == 500

    def test_unknown_workload_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["synth", "paragon", "x.swf"])


class TestAllCommand:
    def test_all_writes_everything(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments import list_experiments

        out = tmp_path / "res"
        assert main(["all", "--scale", "0.04", "--out", str(out)]) == 0
        ids = [eid for eid, _ in list_experiments()]
        for eid in ids:
            assert (out / f"{eid}.csv").exists(), eid
            assert (out / f"{eid}.txt").exists(), eid
        stdout = capsys.readouterr().out
        assert "results in" in stdout


class TestPlotEdgeCases:
    def test_plot_without_convention_is_graceful(self, capsys):
        from repro.cli import main

        assert main(["run", "table1", "--scale", "0.04", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "(no chart:" in out
