"""Experiment infrastructure: configs, structured results, registry.

Every paper table/figure has a driver function registered under its id
(``table1``, ``fig2`` … ``fig13``, plus ablations).  A driver takes an
:class:`ExperimentConfig` and returns an :class:`ExperimentResult` — a
list of rows (dicts) with a fixed column order, renderable as an aligned
text table (what the benchmark harness prints) or CSV.

Long sweeps additionally get crash safety (see docs/ROBUSTNESS.md):

* :class:`Checkpoint` — an atomic per-point result store.  Every
  completed (policy, load, replication) point is written to its own JSON
  file via write-to-temp + fsync + rename, so a checkpoint directory is
  always a set of complete points no matter when the process dies.
* :func:`run_experiment` accepts ``checkpoint_dir``/``resume``: with
  ``resume=True`` a re-run skips every point already on disk and
  recomputes only the missing ones, producing the same result the
  uninterrupted run would have.
* :func:`run_point` — bounded timeout/retry for a single simulated
  point, so one pathological point cannot hang an entire sweep.

Sweeps also use every CPU: a driver hands its independent (load,
replication) cells to :func:`map_cells`, which runs them on a fork-started
process pool and returns their results in cell order, so the rows are
the ones a one-process run gives.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import os
import signal
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar

__all__ = [
    "Checkpoint",
    "ExperimentConfig",
    "ExperimentResult",
    "PointTimeout",
    "active_checkpoint",
    "checkpointed",
    "config_signature",
    "experiment",
    "get_experiment",
    "list_experiments",
    "map_cells",
    "run_experiment",
    "run_point",
]

T = TypeVar("T")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    ``scale`` multiplies the number of simulated jobs: 1.0 reproduces the
    paper-scale runs (tens of thousands of jobs per point); benchmarks and
    tests use smaller scales for speed.  Loads above ``max_load`` are
    dropped from sweeps (high loads need long runs to converge).
    """

    #: job-count multiplier (1.0 = paper scale).
    scale: float = 1.0
    #: base RNG seed; every simulated point derives a distinct stream.
    seed: int = 20000731  # HPDC 2000 vintage
    #: fraction of jobs dropped as warmup before computing statistics.
    warmup_fraction: float = 0.05
    #: system loads for the standard sweeps.
    loads: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    #: drop sweep points above this load.
    max_load: float = 0.95
    #: number of independent replications averaged per simulated point.
    replications: int = 1
    #: wall-clock budget per simulated point in seconds (None = unlimited).
    point_timeout: float | None = None
    #: how many times a timed-out point is retried (with linear backoff)
    #: before the timeout propagates.
    point_retries: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.scale, (int, float)) and 0 < self.scale
                and math.isfinite(self.scale)):
            raise ValueError(
                f"scale must be a positive finite number, got {self.scale!r}; "
                "use e.g. scale=0.1 for a quick run, 1.0 for paper scale"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction!r}; "
                "it is the fraction of jobs dropped before computing statistics"
            )
        if not self.loads:
            raise ValueError("loads must name at least one system load")
        for load in self.loads:
            if not (0.0 < load < 1.0):
                raise ValueError(
                    f"every load must be in (0, 1) — the system is unstable at "
                    f"load >= 1 — got {load!r} in loads={self.loads!r}"
                )
        if not (0.0 < self.max_load < 1.0):
            raise ValueError(
                f"max_load must be in (0, 1), got {self.max_load!r}"
            )
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ValueError(
                f"replications must be a positive integer, got "
                f"{self.replications!r}"
            )
        if self.point_timeout is not None and not self.point_timeout > 0:
            raise ValueError(
                f"point_timeout must be positive seconds or None, got "
                f"{self.point_timeout!r}"
            )
        if not isinstance(self.point_retries, int) or self.point_retries < 0:
            raise ValueError(
                f"point_retries must be a non-negative integer, got "
                f"{self.point_retries!r}"
            )

    def jobs(self, base: int) -> int:
        """Scale a driver's base job count (floor of 2000 jobs)."""
        return max(2000, int(base * self.scale))

    def sweep_loads(self) -> tuple[float, ...]:
        return tuple(l for l in self.loads if l <= self.max_load)

    def with_(self, **kwargs) -> "ExperimentConfig":
        """Functional update."""
        return replace(self, **kwargs)


#: configuration used by the pytest benchmarks (fast but meaningful).
QUICK = ExperimentConfig(scale=0.2, loads=(0.3, 0.5, 0.7, 0.8))


@dataclass
class ExperimentResult:
    """Structured output of one experiment driver."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict]
    notes: str = ""

    def column(self, name: str, where: Callable[[dict], bool] | None = None) -> list:
        """Extract one column, optionally filtered by a row predicate."""
        return [r[name] for r in self.rows if where is None or where(r)]

    def to_text(self, float_fmt: str = "{:.4g}") -> str:
        """Render as an aligned text table (the paper's rows/series)."""
        def fmt(v) -> str:
            if isinstance(v, float):
                return float_fmt.format(v)
            return str(v)

        header = [self.columns]
        body = [[fmt(row.get(c, "")) for c in self.columns] for row in self.rows]
        widths = [
            max(len(line[i]) for line in header + body)
            for i in range(len(self.columns))
        ]
        lines = [f"# {self.experiment_id}: {self.title}"]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for line in body:
            lines.append("  ".join(v.rjust(w) for v, w in zip(line, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """Write the rows as CSV (atomically: tmp + fsync + replace).

        Same discipline as :class:`Checkpoint`: a reader — or a resumed
        run scanning output directories — never sees a torn file, even
        if the writer is killed mid-row.
        """
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with tmp.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.columns, extrasaction="ignore")
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)


_REGISTRY: dict[str, tuple[str, Callable[[ExperimentConfig], ExperimentResult]]] = {}

#: the driver module (in this package) that registers each experiment id;
#: a new driver's ids go here too, or :func:`get_experiment` cannot
#: find them before :func:`list_experiments` has run.
_DRIVERS: dict[str, str] = {
    "table1": "table1",
    "fig2": "fig2_3",
    "fig3": "fig2_3",
    "fig4": "fig4",
    "fig5": "fig5",
    "fig6": "fig6",
    "fig7": "fig7",
    "fig8": "fig8_9",
    "fig9": "fig8_9",
    "fig10": "appendix",
    "fig11": "appendix",
    "fig12": "appendix",
    "fig13": "appendix",
    "ablate_rr_sq": "ablations",
    "ablate_tags": "ablations",
    "ablate_estimates": "ablations",
    "ablate_variability": "ablations",
    "ablate_fast_vs_event": "ablations",
    "ablate_sjf": "ablations2",
    "ablate_sessions": "ablations2",
    "ablate_predictor": "ablations2",
    "ablate_multicutoff": "ablations3",
    "ablate_tails": "ablations4",
    "ablate_hetero": "ablations5",
    "ablate_objective": "ablations6",
    "ablate_calibration": "ablations7",
    "failures": "failures",
}


def experiment(experiment_id: str, title: str):
    """Decorator registering an experiment driver under ``experiment_id``."""

    def deco(fn: Callable[[ExperimentConfig], ExperimentResult]):
        # An id the driver table gives to another module is taken even
        # before that module is imported.
        driver = _DRIVERS.get(experiment_id)
        if experiment_id in _REGISTRY or (
            driver is not None and fn.__module__ != f"{__package__}.{driver}"
        ):
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = (title, fn)
        fn.experiment_id = experiment_id
        fn.title = title
        return fn

    return deco


def get_experiment(experiment_id: str) -> Callable[[ExperimentConfig], ExperimentResult]:
    """Look up a driver by id, importing only the module that defines it."""
    if experiment_id not in _REGISTRY and experiment_id in _DRIVERS:
        importlib.import_module(f".{_DRIVERS[experiment_id]}", __package__)
    try:
        return _REGISTRY[experiment_id][1]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY.keys() | _DRIVERS.keys()))
        raise ValueError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def list_experiments() -> list[tuple[str, str]]:
    """All registered ``(id, title)`` pairs, sorted by id.

    Imports every driver module first, so the list is complete.
    """
    for module in dict.fromkeys(_DRIVERS.values()):
        importlib.import_module(f".{module}", __package__)
    return sorted((eid, title) for eid, (title, _) in _REGISTRY.items())


# ----------------------------------------------------------------------
# crash-safe checkpointing
# ----------------------------------------------------------------------


def config_signature(experiment_id: str, config: ExperimentConfig) -> str:
    """Stable fingerprint of (experiment, config) for checkpoint keys.

    Two runs may share checkpointed points only if every knob that can
    change a simulated result agrees; folding the signature into each
    stored entry makes stale checkpoints from a different configuration
    invisible rather than silently wrong.
    """
    parts = [experiment_id]
    for f in fields(config):
        parts.append(f"{f.name}={getattr(config, f.name)!r}")
    return ";".join(parts)


class Checkpoint:
    """Atomic per-point result store backing ``--resume``.

    One JSON file per completed point, named by a hash of the point key.
    Writes go to a temporary file in the same directory, are fsynced and
    then atomically renamed into place, so a reader (including a resumed
    run after SIGKILL) only ever sees complete entries.  Floats survive
    the JSON round trip bit-exactly (``repr``-based serialisation), which
    is what makes a resumed sweep identical to an uninterrupted one.
    """

    def __init__(self, directory: str | Path, signature: str = "") -> None:
        self.directory = Path(directory)
        self.signature = signature
        self.directory.mkdir(parents=True, exist_ok=True)
        self._puts = 0

    def _path(self, key: str) -> Path:
        digest = hashlib.blake2s(
            f"{self.signature}::{key}".encode(), digest_size=12
        ).hexdigest()
        return self.directory / f"{digest}.json"

    def get(self, key: str) -> Any | None:
        """Stored value for ``key``, or None if absent/corrupt/stale."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if payload.get("key") != key or payload.get("signature") != self.signature:
            return None
        return payload["value"]

    def put(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` (must be JSON-serialisable)."""
        payload = {"signature": self.signature, "key": key, "value": value}
        data = json.dumps(payload, sort_keys=True)
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with tmp.open("w") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._puts += 1
        kill_after = os.environ.get("REPRO_CHECKPOINT_KILL_AFTER")
        if kill_after and self._puts >= int(kill_after):
            # Test hook: die abruptly after N completed points, so the
            # resume path can be exercised deterministically (CI does).
            os.kill(os.getpid(), signal.SIGKILL)

    def __len__(self) -> int:
        """Number of stored entries.

        Deliberately **not cached**: pool workers write entries into the
        same directory from other processes, so any in-process count
        would go stale immediately.  Each call is an O(n) directory scan
        (no file reads).
        """
        return sum(1 for _ in self.directory.glob("*.json"))

    def keys(self) -> list[str]:
        """Keys of every complete, signature-matching stored point.

        One O(n) pass reading each entry (corrupt or stale-signature
        files are skipped, matching :meth:`get`), sorted for a
        deterministic listing.
        """
        out = []
        for path in self.directory.glob("*.json"):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            key = payload.get("key")
            if isinstance(key, str) and payload.get("signature") == self.signature:
                out.append(key)
        return sorted(out)

    def clear(self) -> None:
        """Drop every stored point (a fresh, non-resumed run starts here)."""
        for path in self.directory.glob("*.json"):
            path.unlink(missing_ok=True)


#: checkpoint consulted by :func:`checkpointed` (None = checkpointing off).
_ACTIVE_CHECKPOINT: Checkpoint | None = None


@contextmanager
def active_checkpoint(checkpoint: Checkpoint | None) -> Iterator[Checkpoint | None]:
    """Install ``checkpoint`` for the duration of an experiment run."""
    global _ACTIVE_CHECKPOINT
    previous = _ACTIVE_CHECKPOINT
    _ACTIVE_CHECKPOINT = checkpoint
    try:
        yield checkpoint
    finally:
        _ACTIVE_CHECKPOINT = previous


def checkpointed(key: str, compute: Callable[[], Any]) -> Any:
    """Return the checkpointed value for ``key``, computing and storing
    it on a miss.  With no active checkpoint this is just ``compute()``.

    The value must be JSON-serialisable; callers own the (de)serialised
    shape.  This is the single hook experiment drivers need: wrap each
    per-(policy, load, replication) point and crash-safe resume follows.
    """
    if _ACTIVE_CHECKPOINT is None:
        return compute()
    cached = _ACTIVE_CHECKPOINT.get(key)
    if cached is not None:
        return cached
    value = compute()
    _ACTIVE_CHECKPOINT.put(key, value)
    return value


# ----------------------------------------------------------------------
# per-point timeout with bounded retry
# ----------------------------------------------------------------------


class PointTimeout(RuntimeError):
    """A single simulated point exceeded its wall-clock budget."""


@contextmanager
def _alarm(seconds: float) -> Iterator[None]:
    def _on_alarm(signum, frame):
        raise PointTimeout(f"point exceeded {seconds:g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_point(
    compute: Callable[[], Any],
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    label: str = "point",
) -> Any:
    """Run one simulated point under a wall-clock budget.

    A point that overruns ``timeout`` seconds is aborted via ``SIGALRM``
    and retried up to ``retries`` times with linear backoff (timeouts on
    a loaded machine are usually transient); the final attempt's
    :class:`PointTimeout` propagates.  With ``timeout=None``, off the
    main thread, or on platforms without ``SIGALRM``, the budget is not
    enforceable and ``compute`` runs unbounded.
    """
    can_alarm = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return compute()
    attempt = 0
    while True:
        try:
            with _alarm(timeout):
                return compute()
        except PointTimeout:
            attempt += 1
            if attempt > retries:
                raise
            warnings.warn(
                f"{label}: timed out after {timeout:g}s "
                f"(attempt {attempt}/{retries + 1}); retrying",
                RuntimeWarning,
                stacklevel=2,
            )
            time.sleep(backoff * attempt)


# ----------------------------------------------------------------------
# the cell map: a sweep's independent cells over every CPU
# ----------------------------------------------------------------------


#: processes :func:`map_cells` may use; :func:`run_experiment` sets it
#: for the duration of a run (1 = everything in this process).
_CELL_WORKERS = 1
#: the cells of the map in flight; pool workers inherit them by fork.
_CELLS: Sequence[Callable[[], Any]] = ()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _run_cell(index: int) -> Any:
    return _CELLS[index]()


def _init_worker() -> None:
    # A pool worker inherits the parent's cap by fork; a cell that maps
    # cells of its own runs them here instead of nesting a second pool.
    global _CELL_WORKERS
    _CELL_WORKERS = 1


def map_cells(cells: Sequence[Callable[[], T]]) -> list[T]:
    """Run a sweep's independent cells; results come back in cell order.

    A cell is a zero-argument callable, typically one (load,
    replication) coordinate: it generates its own seeded trace, fits
    its cutoffs and runs its policies, so no cell depends on another.
    Inside :func:`run_experiment` the cells run on a ``fork``-started
    process pool of up to ``workers`` processes.  The children inherit
    the cells and whatever the driver built before the call (nothing is
    pickled but each cell's index and its result), and the results are
    read in submission order, so they equal the in-process ones.

    The cells run in this process instead with one worker or one cell,
    where ``fork`` does not exist or is unsafe (another thread is
    running: a forked child would inherit its locks in whatever state
    they were in), in a daemonic process (which may start no children)
    and inside one of this map's own workers: a map never nests a pool.

    A cell that raises re-raises here, and a worker that dies fails the
    map with ``BrokenProcessPool``; either way the other workers are
    stopped at once, and no child outlives the call.  The per-point
    checkpoint, its ``--resume`` and the SIGALRM budget work unchanged
    in the children: each has the active checkpoint and runs its cells
    on its own main thread.
    """
    global _CELLS
    workers = min(_CELL_WORKERS, len(cells))
    if workers > 1:
        import multiprocessing

        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1
            or multiprocessing.current_process().daemon
        ):
            workers = 1
    if workers <= 1:
        return [cell() for cell in cells]
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
    )
    if sys.version_info < (3, 14) and not hasattr(pool, "_processes"):
        # No public call stops the workers before 3.14: without the
        # pool's map of them a failed cell would wait for every other.
        pool.shutdown()
        raise RuntimeError("ProcessPoolExecutor keeps no _processes map")
    previous, _CELLS = _CELLS, cells
    try:
        futures = [pool.submit(_run_cell, i) for i in range(len(cells))]
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future.done() and future.exception() is not None:
                future.result()  # the first failed cell re-raises here
        return [future.result() for future in futures]
    except BaseException:
        # Fail now rather than after the cells still running: stop them.
        if sys.version_info >= (3, 14):
            pool.terminate_workers()
        else:
            for process in list((pool._processes or {}).values()):
                process.terminate()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _CELLS = previous


@contextmanager
def _cell_workers(workers: int) -> Iterator[None]:
    global _CELL_WORKERS
    previous, _CELL_WORKERS = _CELL_WORKERS, workers
    try:
        yield
    finally:
        _CELL_WORKERS = previous


def run_experiment(
    experiment_id: str,
    config: ExperimentConfig | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    workers: int | None = None,
) -> ExperimentResult:
    """Run one registered experiment (default full-scale config).

    With ``checkpoint_dir`` every completed point is persisted atomically
    under ``<checkpoint_dir>/<experiment_id>/``; ``resume=True`` reuses
    the points already there (same experiment *and* same config — stale
    entries are ignored via :func:`config_signature`), so a run killed
    mid-sweep picks up where it left off and produces the same rows an
    uninterrupted run would.  Without ``resume`` an existing checkpoint
    directory is cleared first: a fresh run never silently reuses old
    points.

    ``workers`` caps the processes the driver's :func:`map_cells` may
    use: ``None`` means every usable CPU (:func:`usable_cpus`), and 1
    runs everything in this process.  The rows are the same either way.
    """
    if workers is None:
        workers = usable_cpus()
    elif not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(
            f"workers must be a positive integer or None, got {workers!r}"
        )
    fn = get_experiment(experiment_id)
    config = config if config is not None else ExperimentConfig()
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = Checkpoint(
            Path(checkpoint_dir) / experiment_id,
            signature=config_signature(experiment_id, config),
        )
        if not resume:
            checkpoint.clear()
    with active_checkpoint(checkpoint), _cell_workers(workers):
        return fn(config)
