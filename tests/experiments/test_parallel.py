"""Tests for the deterministic parallel sweep executor.

The load-bearing property is bit-identity: ``run_experiment(...,
workers=N)`` must produce exactly the rows of a serial run — same
values, same order, same CSV bytes — for any N, with or without fault
injection, and across a crash/resume cycle.  Everything else
(shared-memory transport, checkpoint write-through, the workers=1
serial path) supports that guarantee.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.common as common
import repro.experiments.parallel as parallel
from repro.core.policies import LeastWorkLeftPolicy, RandomPolicy
from repro.experiments.base import (
    Checkpoint,
    ExperimentConfig,
    config_signature,
    run_experiment,
)
from repro.experiments.common import evaluate_policy
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    TraceArena,
    TraceRef,
    _attach_trace,
    run_parallel_experiment,
)
from repro.sim.faults import FaultModel
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.traces import Trace


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(scale=0.02, loads=(0.5, 0.7), seed=77)


def make_trace(n: int = 400, seed: int = 0) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(
        np.cumsum(rng.exponential(1.0, n)),
        rng.pareto(1.5, n) + 0.5,
        name=f"test-{n}",
    )


class TestSerialParallelEquivalence:
    """workers=N is invisible in the output, byte for byte."""

    def test_fig2_rows_identical(self):
        config = tiny_config()
        serial = run_experiment("fig2", config)
        par = run_experiment("fig2", config, workers=4)
        assert par.rows == serial.rows
        assert par.columns == serial.columns

    def test_fig2_csv_byte_identical(self, tmp_path):
        config = tiny_config()
        serial = run_experiment("fig2", config)
        par = run_experiment("fig2", config, workers=3)
        serial.to_csv(tmp_path / "serial.csv")
        par.to_csv(tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (
            tmp_path / "parallel.csv"
        ).read_bytes()

    def test_fault_injection_rows_identical(self):
        # The failures driver sweeps FaultModels through evaluate_policy
        # (workers replay the fault process from its seed) and
        # post-processes rows against a failure-free baseline.
        config = ExperimentConfig(scale=0.01, loads=(0.7,), seed=5)
        serial = run_experiment("failures", config)
        par = run_experiment("failures", config, workers=2)
        assert _rows_equal(serial.rows, par.rows)

    def test_analytic_driver_completes_in_collect_pass(self):
        # fig8 never simulates a point: the collect pass already returns
        # real rows and no pool is ever constructed.
        config = tiny_config()
        serial = run_experiment("fig8", config)
        par = run_experiment("fig8", config, workers=2)
        assert _rows_equal(serial.rows, par.rows)

    def test_workers_one_is_the_serial_path(self, monkeypatch):
        # workers=1 must not touch the parallel machinery at all.
        monkeypatch.setattr(
            parallel,
            "run_parallel_experiment",
            lambda *a, **k: pytest.fail("workers=1 routed to the pool"),
        )
        config = tiny_config()
        serial = run_experiment("fig2", config)
        one = run_experiment("fig2", config, workers=1)
        assert one.rows == serial.rows

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            run_experiment("fig2", tiny_config(), workers=bad)


def _rows_equal(a: list[dict], b: list[dict]) -> bool:
    """Row equality where NaN == NaN (ablation rows carry NaN fields)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.keys() != rb.keys():
            return False
        for k in ra:
            va, vb = ra[k], rb[k]
            if isinstance(va, float) and isinstance(vb, float):
                if va != vb and not (math.isnan(va) and math.isnan(vb)):
                    return False
            elif va != vb:
                return False
    return True


class TestTraceArena:
    def test_small_trace_is_inline(self):
        arena = TraceArena()
        trace = make_trace(100)
        ref = arena.share(trace)
        assert ref.shm_name is None and ref.inline is not None
        assert arena.n_shared == 0
        back = _attach_trace(ref)
        np.testing.assert_array_equal(back.arrival_times, trace.arrival_times)
        np.testing.assert_array_equal(back.service_times, trace.service_times)
        arena.close()

    def test_large_trace_round_trips_through_shared_memory(self):
        arena = TraceArena(share_threshold=10)
        trace = make_trace(500, seed=3)
        ref = arena.share(trace)
        try:
            assert ref.shm_name is not None and ref.inline is None
            assert arena.n_shared == 1
            parallel._WORKER_TRACES.pop(ref.shm_name, None)
            back = _attach_trace(ref)
            np.testing.assert_array_equal(back.arrival_times, trace.arrival_times)
            np.testing.assert_array_equal(back.service_times, trace.service_times)
            np.testing.assert_array_equal(back.processors, trace.processors)
            assert back.name == trace.name
        finally:
            parallel._WORKER_TRACES.pop(ref.shm_name, None)
            arena.close()

    def test_same_trace_shares_one_segment(self):
        arena = TraceArena(share_threshold=10)
        trace = make_trace(500)
        try:
            assert arena.share(trace) is arena.share(trace)
            assert arena.n_shared == 1
        finally:
            arena.close()

    def test_close_unlinks_segments(self):
        arena = TraceArena(share_threshold=10)
        ref = arena.share(make_trace(500))
        arena.close()
        with pytest.raises(FileNotFoundError):
            parallel._attach_untracked(ref.shm_name)

    def test_trace_ref_pickles_small(self):
        arena = TraceArena(share_threshold=10)
        try:
            ref = arena.share(make_trace(50_000))
            assert isinstance(pickle.loads(pickle.dumps(ref)), TraceRef)
            # The whole point: the per-task payload is a name, not 3 arrays.
            assert len(pickle.dumps(ref)) < 1000
        finally:
            arena.close()


class TestExecutor:
    def test_rejects_single_worker(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelSweepExecutor(workers=1)

    def test_replay_miss_falls_back_to_serial(self):
        # A driver whose control flow depends on point values asks the
        # replay pass for a key the collect pass never recorded; the
        # executor computes it serially rather than returning garbage.
        executor = ParallelSweepExecutor(workers=2)
        executor.phase = "replay"
        trace = make_trace(300)
        config = ExperimentConfig(scale=0.02)
        with executor.installed():
            point = evaluate_policy(trace, RandomPolicy(), 0.5, 2, config, seed=1)
        assert executor.n_serial_fallback == 1
        assert math.isfinite(point.summary.mean_slowdown)

    def test_policies_and_faults_are_picklable(self):
        # Every object in a _Task crosses the process boundary.
        for obj in (
            RandomPolicy(),
            LeastWorkLeftPolicy(),
            FaultModel(mtbf=80.0, mttr=15.0, semantics="resume", seed=2),
            tiny_config(),
        ):
            assert pickle.loads(pickle.dumps(obj)) is not None


class TestCheckpointKeys:
    def test_keys_filters_by_signature(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp", signature="sig-a")
        cp.put("k1", {"v": 1})
        cp.put("k2", {"v": 2})
        Checkpoint(tmp_path / "cp", signature="sig-b").put("k3", {"v": 3})
        assert Checkpoint(tmp_path / "cp", signature="sig-a").keys() == ["k1", "k2"]

    def test_keys_skips_corrupt_files(self, tmp_path):
        cp = Checkpoint(tmp_path / "cp", signature="s")
        cp.put("good", {"v": 1})
        (tmp_path / "cp" / "zz-corrupt.json").write_text("{nope")
        assert cp.keys() == ["good"]

    def test_keys_empty_dir(self, tmp_path):
        assert Checkpoint(tmp_path / "missing").keys() == []


class TestParallelCheckpointing:
    EXPERIMENT = "fig2"

    def test_workers_write_through_checkpoint(self, tmp_path):
        config = tiny_config()
        cp_dir = tmp_path / "ck"
        result = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, workers=2
        )
        cp = Checkpoint(
            cp_dir / self.EXPERIMENT,
            signature=config_signature(self.EXPERIMENT, config),
        )
        assert len(cp) > 0
        assert len(cp.keys()) == len(cp)
        serial = run_experiment(self.EXPERIMENT, config)
        assert result.rows == serial.rows

    def test_fully_checkpointed_resume_skips_the_pool(self, tmp_path, monkeypatch):
        config = tiny_config()
        cp_dir = tmp_path / "ck"
        first = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, workers=2
        )
        # Resuming a complete run must answer every point from the
        # checkpoint in the collect pass: constructing a pool would be
        # a bug (and a waste), so make it one.
        monkeypatch.setattr(
            parallel,
            "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("resume of a complete run built a pool"),
        )
        resumed = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, resume=True, workers=2
        )
        assert resumed.rows == first.rows

    def test_serial_checkpoint_resumes_under_parallel(self, tmp_path):
        # A checkpoint written serially is valid for a parallel resume
        # (same keys, same signature) and vice versa.
        config = tiny_config()
        cp_dir = tmp_path / "ck"
        serial = run_experiment(self.EXPERIMENT, config, checkpoint_dir=cp_dir)
        resumed = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, resume=True, workers=2
        )
        assert resumed.rows == serial.rows

    def test_resume_after_worker_sigkill_matches_uninterrupted(self, tmp_path):
        """A worker SIGKILLed mid-dispatch leaves a valid partial
        checkpoint; a parallel resume completes to the serial rows."""
        config = tiny_config()
        direct = run_experiment(self.EXPERIMENT, config)
        cp_dir = tmp_path / "ck"
        repo_root = Path(__file__).resolve().parents[2]
        script = (
            "from repro.experiments.base import run_experiment\n"
            "from tests.experiments.test_parallel import tiny_config\n"
            "run_experiment({eid!r}, tiny_config(), checkpoint_dir={cp!r},"
            " workers=2)\n"
        ).format(eid=self.EXPERIMENT, cp=str(cp_dir))
        env = dict(os.environ)
        # The kill lands inside a pool worker (workers own the
        # write-through checkpoint), so the parent dies on
        # BrokenProcessPool rather than the kill signal itself.
        env["REPRO_CHECKPOINT_KILL_AFTER"] = "2"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), str(repo_root)]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode not in (0, -signal.SIGKILL), proc.stderr
        assert "BrokenProcessPool" in proc.stderr
        partial = Checkpoint(
            cp_dir / self.EXPERIMENT,
            signature=config_signature(self.EXPERIMENT, config),
        )
        assert len(partial) >= 2  # the killed worker persisted its points
        resumed = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, resume=True, workers=2
        )
        assert resumed.rows == direct.rows


class TestRunParallelExperiment:
    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_parallel_experiment("not-an-experiment", workers=2)

    def test_interceptor_uninstalled_after_run(self):
        from repro.experiments.common import set_point_interceptor

        run_parallel_experiment("fig2", tiny_config(), workers=2)
        # A leaked interceptor would hijack every later serial run.
        assert set_point_interceptor(None) is None

    def test_replay_regenerates_no_trace(self, monkeypatch):
        # The collect and replay walks share one trace memo: each
        # (load, seed) coordinate is generated once per run.
        calls: list[tuple] = []
        original = SyntheticWorkload.make_trace

        def counting(self, load, n_hosts, n_jobs=None, rng=None, **kwargs):
            calls.append((self.name, load, n_hosts, n_jobs, rng))
            return original(self, load, n_hosts, n_jobs=n_jobs, rng=rng, **kwargs)

        monkeypatch.setattr(SyntheticWorkload, "make_trace", counting)
        config = tiny_config()
        run_parallel_experiment("fig2", config, workers=2)
        assert len(calls) == len(config.sweep_loads()) * config.replications
        assert len(set(calls)) == len(calls)

    def test_trace_memo_dropped_after_run(self):
        run_parallel_experiment("fig2", tiny_config(), workers=2)
        assert common._SPLIT_MEMO is None
