"""Tests for the cell map: a sweep's cells over a fork-started process pool.

The load-bearing property is identity: ``run_experiment(...,
workers=N)`` must produce exactly the rows of ``workers=1`` — same
values, same order, same CSV bytes — for any N, with or without fault
injection, and across a crash/resume cycle.  The rest is process
hygiene: a failing cell or a dying worker fails the run at once, and no
child outlives it.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import pytest

from repro.core.policies import LeastWorkLeftPolicy, RandomPolicy
from repro.devtools.audit import audit_experiment
from repro.experiments.base import (
    _REGISTRY,
    Checkpoint,
    ExperimentConfig,
    ExperimentResult,
    PointTimeout,
    config_signature,
    experiment,
    map_cells,
    run_experiment,
)
from repro.experiments.common import SweepPoint, evaluate_policy
from repro.sim.faults import FaultModel
from repro.workloads.catalog import c90


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(scale=0.02, loads=(0.5, 0.7), seed=77)


#: the drivers of every module that fans cells out through ``map_cells``
#: (fig10 runs fig2's and fig4's sweeps on another workload;
#: ablate_estimates simulates in process beside two cell drivers).
CELL_DRIVERS = [
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig10",
    "failures",
    "ablate_rr_sq",
    "ablate_variability",
    "ablate_estimates",
]


class TestSerialParallelEquivalence:
    """workers=N is invisible in the output, byte for byte."""

    @pytest.mark.parametrize("experiment_id", CELL_DRIVERS)
    def test_driver_rows_equal_across_workers(self, experiment_id):
        config = tiny_config()
        one = run_experiment(experiment_id, config, workers=1)
        two = run_experiment(experiment_id, config, workers=2)
        assert two.rows == one.rows
        assert two.columns == one.columns

    @pytest.mark.parametrize("experiment_id", ["fig3", "fig4"])
    def test_strict_mode_csv_byte_identical(self, experiment_id, tmp_path, monkeypatch):
        # fig3's LWL rows take the heap kernel, fig4's SITA rows the
        # static per-host Lindley path; the sanitizer checks both, in
        # the children too (they inherit the environment).
        monkeypatch.setenv("REPRO_SIM_STRICT", "1")
        config = ExperimentConfig(scale=0.05, seed=7)
        run_experiment(experiment_id, config, workers=1).to_csv(tmp_path / "one.csv")
        run_experiment(experiment_id, config, workers=2).to_csv(tmp_path / "two.csv")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_fig2_rows_identical(self):
        config = tiny_config()
        serial = run_experiment("fig2", config, workers=1)
        par = run_experiment("fig2", config, workers=4)
        assert par.rows == serial.rows
        assert par.columns == serial.columns

    def test_fig2_csv_byte_identical(self, tmp_path):
        config = tiny_config()
        serial = run_experiment("fig2", config, workers=1)
        par = run_experiment("fig2", config, workers=3)
        serial.to_csv(tmp_path / "serial.csv")
        par.to_csv(tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (
            tmp_path / "parallel.csv"
        ).read_bytes()

    def test_fault_injection_rows_identical(self):
        # The failures driver sweeps FaultModels through evaluate_policy
        # (each cell replays the fault process from its seed) and
        # post-processes rows against a failure-free baseline.
        config = ExperimentConfig(scale=0.01, loads=(0.7,), seed=5)
        serial = run_experiment("failures", config, workers=1)
        par = run_experiment("failures", config, workers=2)
        assert par.rows == serial.rows

    def test_analytic_driver_builds_no_pool(self, monkeypatch):
        # fig8 never simulates a point, so it has no cells to fan out.
        config = tiny_config()
        serial = run_experiment("fig8", config, workers=1)
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("an analytic driver built a pool"),
        )
        par = run_experiment("fig8", config, workers=2)
        assert par.rows == serial.rows

    def test_workers_one_is_the_serial_path(self, monkeypatch):
        # workers=1 must not touch the pool machinery at all.
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("workers=1 built a pool"),
        )
        config = tiny_config()
        serial = run_experiment("fig2", config, workers=1)
        again = run_experiment("fig2", config, workers=1)
        assert again.rows == serial.rows

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            run_experiment("fig2", tiny_config(), workers=bad)


def test_parallel_equivalence_audit_passes():
    # ``repro audit --workers 2``: the replays observe every engine
    # event in this process, and the 2-process rows equal the 1-process
    # ones.
    report = audit_experiment("failures", replays=2, scale=0.05, workers=2)
    assert report.ok, report.render()
    assert report.n_events == 99_757
    assert report.parallel_check is not None and report.parallel_check.n_rows == 40


# ----------------------------------------------------------------------
# the map itself, on toy experiments
# ----------------------------------------------------------------------


@pytest.fixture
def toy():
    """Register a toy experiment whose driver maps the given cells."""
    registered: list[str] = []

    def register(cells) -> str:
        eid = f"toy_cells_{len(registered)}"

        def driver(config) -> ExperimentResult:
            values = map_cells(cells)
            return ExperimentResult(eid, eid, ["value"], [{"value": v} for v in values])

        experiment(eid, eid)(driver)
        registered.append(eid)
        return eid

    yield register
    for eid in registered:
        _REGISTRY.pop(eid, None)


def _pid_and_index(index: int) -> tuple[int, int]:
    return os.getpid(), index


def _nested() -> tuple[int, list[int]]:
    return os.getpid(), map_cells([os.getpid, os.getpid, os.getpid])


def _sleep() -> None:
    time.sleep(60)


def _fail() -> None:
    time.sleep(0.2)
    raise ValueError("cell failed")


def _die(parent: int) -> None:
    time.sleep(0.2)
    if os.getpid() != parent:  # never take the test process down
        os.kill(os.getpid(), signal.SIGKILL)


def _values(result: ExperimentResult) -> list:
    return [row["value"] for row in result.rows]


def _report_cells(eid: str, conn) -> None:
    conn.send((os.getpid(), _values(run_experiment(eid, workers=2))))
    conn.close()


def _cells_in_a_user_process(eid: str, daemon: bool) -> tuple[int, list]:
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    process = context.Process(target=_report_cells, args=(eid, send), daemon=daemon)
    process.start()
    try:
        assert receive.poll(60), "the user process sent no result"
        pid, cells = receive.recv()
    finally:
        process.join(timeout=60)
    assert process.exitcode == 0
    assert pid == process.pid
    return pid, cells


class TestMapCells:
    def test_cells_run_in_children_in_order(self, toy):
        eid = toy([partial(_pid_and_index, i) for i in range(6)])
        pooled = _values(run_experiment(eid, workers=2))
        assert [index for _, index in pooled] == list(range(6))
        assert os.getpid() not in {pid for pid, _ in pooled}
        assert _values(run_experiment(eid, workers=1)) == [
            (os.getpid(), i) for i in range(6)
        ]

    def test_default_is_every_usable_cpu(self, toy, monkeypatch):
        monkeypatch.setattr("repro.experiments.base.usable_cpus", lambda: 2)
        eid = toy([partial(_pid_and_index, i) for i in range(4)])
        assert os.getpid() not in {pid for pid, _ in _values(run_experiment(eid))}
        monkeypatch.setattr("repro.experiments.base.usable_cpus", lambda: 1)
        assert {pid for pid, _ in _values(run_experiment(eid))} == {os.getpid()}

    def test_one_cell_runs_in_process(self, toy):
        eid = toy([os.getpid])
        assert _values(run_experiment(eid, workers=2)) == [os.getpid()]

    def test_outside_run_experiment_runs_in_process(self):
        assert map_cells([os.getpid, os.getpid]) == [os.getpid()] * 2

    def test_a_running_thread_keeps_the_cells_in_process(self, toy):
        # fork is unsafe while another thread may hold a lock.
        eid = toy([os.getpid, os.getpid])
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert _values(run_experiment(eid, workers=2)) == [os.getpid()] * 2
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_a_pool_never_nests(self, toy):
        eid = toy([_nested, _nested])
        for pid, inner in _values(run_experiment(eid, workers=2)):
            assert pid != os.getpid()
            assert inner == [pid] * 3

    def test_a_user_process_still_gets_a_pool(self, toy):
        # Only the map's own workers are kept from nesting a pool.
        pid, cells = _cells_in_a_user_process(toy([os.getpid, os.getpid]), False)
        assert pid not in cells

    def test_a_daemonic_process_runs_the_cells_in_process(self, toy):
        # A daemonic process may start no children at all.
        pid, cells = _cells_in_a_user_process(toy([os.getpid, os.getpid]), True)
        assert cells == [pid, pid]

    @pytest.mark.skipif(sys.version_info >= (3, 14), reason="public terminate_workers")
    def test_a_pool_without_its_worker_map_fails_loudly(self, toy, monkeypatch):
        # Stopping the workers at once relies on the executor's private
        # map of them; if it ever goes, every pooled run must say so.
        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                del self._processes

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        with pytest.raises(RuntimeError, match="_processes"):
            run_experiment(toy([os.getpid, os.getpid]), workers=2)
        assert multiprocessing.active_children() == []

    def test_failures_maps_one_replication_at_a_time(self, monkeypatch):
        # Each replication's cells share its test trace and are mapped
        # before the next replication's trace is built.
        from repro.experiments import failures

        traces = []

        def spy(cells):
            traces.append({id(cell.args[0]) for cell in cells})
            return map_cells(cells)

        monkeypatch.setattr(failures, "map_cells", spy)
        config = ExperimentConfig(scale=0.01, loads=(0.7,), seed=5, replications=2)
        run_experiment("failures", config, workers=1)
        assert [len(ids) for ids in traces] == [1, 1]

    def test_cell_exception_reraises_promptly(self, toy):
        eid = toy([_sleep, _fail, _sleep])
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="cell failed"):
            run_experiment(eid, workers=2)
        assert time.monotonic() - t0 < 20
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_run_promptly(self, toy):
        eid = toy([_sleep, partial(_die, os.getpid()), _sleep])
        t0 = time.monotonic()
        with pytest.raises(BrokenProcessPool):
            run_experiment(eid, workers=2)
        assert time.monotonic() - t0 < 20
        assert multiprocessing.active_children() == []

    def test_no_child_outlives_a_returning_run(self):
        run_experiment("fig2", tiny_config(), workers=2)
        assert multiprocessing.active_children() == []


class TestExecutor:
    def test_policies_and_faults_are_picklable(self):
        # What a cell returns crosses the process boundary; so does a
        # point's timeout.
        trace = c90().make_trace(load=0.5, n_hosts=2, n_jobs=2000, rng=1)
        point = evaluate_policy(trace, RandomPolicy(), 0.5, 2, tiny_config(), seed=1)
        back = pickle.loads(pickle.dumps(point))
        assert isinstance(back, SweepPoint) and back.as_row() == point.as_row()
        assert isinstance(pickle.loads(pickle.dumps(PointTimeout("x"))), PointTimeout)
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

    def checkpoint(self, cp_dir: Path, config: ExperimentConfig) -> Checkpoint:
        return Checkpoint(
            cp_dir / self.EXPERIMENT,
            signature=config_signature(self.EXPERIMENT, config),
        )

    def test_workers_write_through_checkpoint(self, tmp_path):
        config = tiny_config()
        cp_dir = tmp_path / "ck"
        result = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, workers=2
        )
        cp = self.checkpoint(cp_dir, config)
        assert len(cp) > 0
        assert len(cp.keys()) == len(cp)
        serial = run_experiment(self.EXPERIMENT, config, workers=1)
        assert result.rows == serial.rows

    def test_full_resume_recomputes_nothing(self, tmp_path):
        config = tiny_config()
        cp_dir = tmp_path / "ck"
        first = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, workers=2
        )
        # A recomputed point is rewritten by tmp + rename, which gives
        # its file a new inode.
        files = sorted((cp_dir / self.EXPERIMENT).glob("*.json"))
        inodes = [path.stat().st_ino for path in files]
        resumed = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, resume=True, workers=2
        )
        assert resumed.rows == first.rows
        assert sorted((cp_dir / self.EXPERIMENT).glob("*.json")) == files
        assert [path.stat().st_ino for path in files] == inodes

    def test_serial_checkpoint_resumes_under_parallel(self, tmp_path):
        # A checkpoint written in one process is valid for a pooled
        # resume (same keys, same signature) and vice versa.
        config = tiny_config()
        cp_dir = tmp_path / "ck"
        serial = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, workers=1
        )
        resumed = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, resume=True, workers=2
        )
        assert resumed.rows == serial.rows

    def test_resume_after_worker_sigkill_matches_uninterrupted(self, tmp_path):
        """A worker SIGKILLed mid-sweep fails the run promptly and leaves
        a valid partial checkpoint; a pooled resume completes to the
        one-process rows."""
        config = tiny_config()
        direct = run_experiment(self.EXPERIMENT, config, workers=1)
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
            timeout=60,
        )
        assert proc.returncode not in (0, -signal.SIGKILL), proc.stderr
        assert "BrokenProcessPool" in proc.stderr
        partial_points = len(self.checkpoint(cp_dir, config))
        assert partial_points >= 2  # the killed worker persisted its points
        resumed = run_experiment(
            self.EXPERIMENT, config, checkpoint_dir=cp_dir, resume=True, workers=2
        )
        assert resumed.rows == direct.rows


class TestRunParallelExperiment:
    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("not-an-experiment", workers=2)

