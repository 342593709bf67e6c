"""Deterministic process-pool sweep executor.

Every figure in the paper is a sweep: policies × loads × replications of
*independent* simulated points.  This module fans those points out over a
pool of worker processes while keeping the one property the whole
determinism stack (``repro audit``, SIM101–SIM106) is built on: **the
rows are bit-identical to a serial run**.

How a parallel run works (``run_experiment(..., workers=N)``):

1. **Collect pass** — the experiment driver runs once with a point
   interceptor installed (:func:`repro.experiments.common.set_point_interceptor`).
   Each :func:`~repro.experiments.common.evaluate_policy` call either
   hits the checkpoint (``--resume``; completed keys are pre-filtered in
   one :meth:`~repro.experiments.base.Checkpoint.keys` scan) or records a
   :class:`PointSpec` and returns a NaN placeholder, so the driver
   completes structurally and its rows are discarded.
2. **Dispatch** — the recorded points are submitted to a
   ``ProcessPoolExecutor`` in collection order and the futures are
   consumed **in submission order** (satisfying the repo's own SIM106
   ordered-consumption rule; completion order never leaks into results).
   Each unique evaluation trace crosses the process boundary **once**,
   zero-copy, through a :class:`TraceArena` of
   ``multiprocessing.shared_memory`` segments rather than being pickled
   per point.  Workers run the exact serial code path
   (:func:`~repro.experiments.common.compute_point` — including the
   per-point SIGALRM budget, enforceable because each worker computes on
   its own main thread) and write through the same atomic
   :class:`~repro.experiments.base.Checkpoint` store, so a run killed
   mid-dispatch resumes exactly like a serial one.
3. **Replay pass** — the driver runs a second time; every intercepted
   point now returns its pool-computed value, so rows are assembled in
   the driver's own deterministic order.  Both walks run inside
   :func:`~repro.experiments.common.memoised_splits`, a trace memo that
   lives only as long as the run: the replay regenerates no trace, so it
   costs bookkeeping, not simulation.  The memo holds what the recorded
   points already hold (each :class:`PointSpec` keeps its evaluation
   trace, a view of the generated arrays, until dispatch), plus, under
   ``--resume``, the traces of coordinates answered from the checkpoint;
   it is dropped when the run returns.

A point the replay pass asks for that the collect pass never recorded
(possible only if a driver's control flow depends on point *values*) is
computed serially on the spot — correctness never depends on the driver
being two-pass friendly, only the speedup does.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from ..workloads.traces import Trace
from .base import (
    Checkpoint,
    ExperimentConfig,
    ExperimentResult,
    active_checkpoint,
    config_signature,
    get_experiment,
)
from .common import (
    SweepPoint,
    compute_point,
    memoised_splits,
    placeholder_point,
    point_key,
    set_point_interceptor,
)

__all__ = [
    "ParallelSweepExecutor",
    "PointSpec",
    "TraceArena",
    "TraceRef",
    "run_parallel_experiment",
]

#: traces below this many jobs are pickled inline with the task — the
#: fixed cost of a shared-memory segment isn't worth it for tiny arrays.
SHARE_THRESHOLD_JOBS = 4096


# ---------------------------------------------------------------------------
# zero-copy trace transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRef:
    """Pickle-cheap handle to an evaluation trace.

    Either a shared-memory reference (``shm_name`` set; the segment
    holds three contiguous ``n_jobs``-long arrays: arrivals ``f8``,
    services ``f8``, processors ``i8``) or an inline payload for traces
    too small to be worth a segment.
    """

    n_jobs: int
    name: str
    shm_name: str | None = None
    inline: tuple | None = None  # (arrivals, services, processors)


class TraceArena:
    """Parent-side pool of shared-memory segments, one per unique trace.

    Many sweep points share one evaluation trace (every policy at a
    (load, seed) coordinate); the arena dedupes by object identity so
    each trace is copied into shared memory exactly once per run, and
    the per-task pickle is just a :class:`TraceRef`.  ``close`` unlinks
    every segment; the parent owns their lifetime.
    """

    def __init__(self, share_threshold: int = SHARE_THRESHOLD_JOBS) -> None:
        self._refs: dict[int, TraceRef] = {}
        self._segments: list[shared_memory.SharedMemory] = []
        self._keepalive: list[Trace] = []  # pin id()s for the run's duration
        self.share_threshold = share_threshold

    def share(self, trace: Trace) -> TraceRef:
        """Return a :class:`TraceRef` for ``trace``, creating it on first use."""
        ref = self._refs.get(id(trace))
        if ref is not None:
            return ref
        n = trace.n_jobs
        if n < self.share_threshold:
            ref = TraceRef(
                n_jobs=n,
                name=trace.name,
                inline=(
                    np.ascontiguousarray(trace.arrival_times),
                    np.ascontiguousarray(trace.service_times),
                    np.ascontiguousarray(trace.processors, dtype=np.int64),
                ),
            )
        else:
            try:
                shm = shared_memory.SharedMemory(create=True, size=3 * 8 * n)
            except OSError:  # no usable /dev/shm: fall back to pickling
                ref = TraceRef(
                    n_jobs=n,
                    name=trace.name,
                    inline=(
                        np.ascontiguousarray(trace.arrival_times),
                        np.ascontiguousarray(trace.service_times),
                        np.ascontiguousarray(trace.processors, dtype=np.int64),
                    ),
                )
            else:
                self._segments.append(shm)
                arrivals = np.ndarray(n, dtype=np.float64, buffer=shm.buf)
                services = np.ndarray(n, dtype=np.float64, buffer=shm.buf, offset=8 * n)
                procs = np.ndarray(n, dtype=np.int64, buffer=shm.buf, offset=16 * n)
                arrivals[:] = trace.arrival_times
                services[:] = trace.service_times
                procs[:] = trace.processors
                ref = TraceRef(n_jobs=n, name=trace.name, shm_name=shm.name)
        self._refs[id(trace)] = ref
        self._keepalive.append(trace)
        return ref

    @property
    def n_shared(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        """Unlink every segment (workers must be joined first)."""
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._refs.clear()
        self._keepalive.clear()


#: worker-side cache of materialised traces, keyed by segment name (shared
#: traces) — attach + validate once per worker, reuse for every point.
_WORKER_TRACES: dict[str, Trace] = {}
#: worker-side write-through checkpoint (None when checkpointing is off).
_WORKER_CHECKPOINT: Checkpoint | None = None


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker bookkeeping.

    The parent owns every segment's lifetime.  Before 3.13 (``track=``
    keyword), attaching registers the segment with the resource tracker
    unconditionally (bpo-39959), which either double-unlinks at worker
    exit (spawn: per-process trackers) or corrupts the shared tracker's
    cache (fork); suppressing registration for the attach is the
    standard workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # 3.13+
    except TypeError:  # pragma: no cover - version-dependent
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach_trace(ref: TraceRef) -> Trace:
    """Materialise a :class:`TraceRef` inside a worker process."""
    if ref.inline is not None:
        arrivals, services, procs = ref.inline
        return Trace(arrivals, services, procs, name=ref.name)
    assert ref.shm_name is not None
    cached = _WORKER_TRACES.get(ref.shm_name)
    if cached is not None:
        return cached
    shm = _attach_untracked(ref.shm_name)
    n = ref.n_jobs
    arrivals = np.ndarray(n, dtype=np.float64, buffer=shm.buf)
    services = np.ndarray(n, dtype=np.float64, buffer=shm.buf, offset=8 * n)
    procs = np.ndarray(n, dtype=np.int64, buffer=shm.buf, offset=16 * n)
    trace = Trace(arrivals, services, procs, name=ref.name)
    trace._shm = shm  # keep the mapping alive as long as the trace
    _WORKER_TRACES[ref.shm_name] = trace
    return trace


# ---------------------------------------------------------------------------
# the work unit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointSpec:
    """One recorded simulated point, ready for dispatch."""

    key: str
    trace: Trace
    policy: Any
    load: float
    n_hosts: int
    config: ExperimentConfig
    seed: int
    faults: Any
    class_cutoff: float | None


@dataclass(frozen=True)
class _Task:
    """The pickled form of a :class:`PointSpec` (trace → TraceRef)."""

    key: str
    trace_ref: TraceRef
    policy: Any
    load: float
    n_hosts: int
    config: ExperimentConfig
    seed: int
    faults: Any
    class_cutoff: float | None


def _worker_init(checkpoint_dir: str | None, signature: str) -> None:
    """Pool initializer: open the write-through checkpoint store."""
    global _WORKER_CHECKPOINT
    if checkpoint_dir is not None:
        _WORKER_CHECKPOINT = Checkpoint(checkpoint_dir, signature=signature)


def _run_task(task: _Task) -> dict:
    """Execute one point in a pool worker; returns the point's JSON form.

    Exactly the serial code path (:func:`compute_point`), including the
    SIGALRM per-point budget — a worker process computes on its own main
    thread, so the timeout that was unenforceable from a thread pool is
    enforceable here.  Completed values are written through the atomic
    checkpoint store before being returned, so a parent killed
    mid-dispatch loses at most in-flight points.
    """
    trace = _attach_trace(task.trace_ref)
    value = compute_point(
        trace,
        task.policy,
        task.load,
        task.n_hosts,
        task.config,
        task.seed,
        task.faults,
        task.class_cutoff,
    )
    if _WORKER_CHECKPOINT is not None:
        _WORKER_CHECKPOINT.put(task.key, value)
    return value


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------


class ParallelSweepExecutor:
    """Collect → dispatch → replay coordinator for one experiment run.

    Install via :meth:`installed`; while active, every
    :func:`~repro.experiments.common.evaluate_policy` call routes
    through :meth:`_intercept`.
    """

    def __init__(
        self,
        workers: int,
        checkpoint: Checkpoint | None = None,
        mp_context: str | None = None,
    ) -> None:
        if workers < 2:
            raise ValueError(f"need at least 2 workers, got {workers}")
        self.workers = workers
        self.checkpoint = checkpoint
        self.phase = "collect"
        self.pending: list[PointSpec] = []
        self.results: dict[str, dict] = {}
        #: points answered from the checkpoint without dispatch (--resume).
        self.n_resumed = 0
        #: points actually executed in the pool.
        self.n_dispatched = 0
        #: replay-pass misses computed serially (driver value-dependent
        #: control flow; see module docstring).
        self.n_serial_fallback = 0
        self._completed_keys = (
            frozenset(checkpoint.keys()) if checkpoint is not None else frozenset()
        )
        if mp_context is None:
            mp_context = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._mp_context = mp_context

    # -- interception ----------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["ParallelSweepExecutor"]:
        previous = set_point_interceptor(self._intercept)
        try:
            yield self
        finally:
            set_point_interceptor(previous)

    def _intercept(
        self,
        test: Trace,
        policy,
        load: float,
        n_hosts: int,
        config: ExperimentConfig,
        seed: int,
        faults,
        class_cutoff: float | None,
    ) -> SweepPoint:
        key = point_key(policy, load, n_hosts, seed, faults, class_cutoff)
        value = self.results.get(key)
        if value is not None:
            return SweepPoint.from_json(value)
        if self.phase == "collect":
            if key in self._completed_keys:
                stored = self.checkpoint.get(key)
                if stored is not None:
                    self.results[key] = stored
                    self.n_resumed += 1
                    return SweepPoint.from_json(stored)
            self.pending.append(
                PointSpec(
                    key=key,
                    trace=test,
                    policy=policy,
                    load=load,
                    n_hosts=n_hosts,
                    config=config,
                    seed=seed,
                    faults=faults,
                    class_cutoff=class_cutoff,
                )
            )
            return placeholder_point(policy, load, n_hosts, class_cutoff)
        # Replay pass: a key the collect pass never saw means the
        # driver's control flow depends on point values — compute it
        # serially so the rows stay correct (and identical to serial).
        self.n_serial_fallback += 1
        value = compute_point(
            test, policy, load, n_hosts, config, seed, faults, class_cutoff
        )
        if self.checkpoint is not None:
            self.checkpoint.put(key, value)
        self.results[key] = value
        return SweepPoint.from_json(value)

    # -- dispatch --------------------------------------------------------

    def dispatch(self) -> None:
        """Run every pending point in the pool; results land in order.

        Futures are consumed strictly in submission order (the repo's
        SIM106 rule): worker completion order cannot influence anything
        downstream.  Deduplicates keys defensively (a driver asking for
        the same point twice gets one simulation, like the serial
        checkpoint path).
        """
        specs: list[PointSpec] = []
        seen: set[str] = set()
        for spec in self.pending:
            if spec.key not in seen:
                seen.add(spec.key)
                specs.append(spec)
        self.pending.clear()
        if not specs:
            return
        arena = TraceArena()
        ckpt_dir = (
            str(self.checkpoint.directory) if self.checkpoint is not None else None
        )
        signature = self.checkpoint.signature if self.checkpoint is not None else ""
        try:
            tasks = [
                _Task(
                    key=s.key,
                    trace_ref=arena.share(s.trace),
                    policy=s.policy,
                    load=s.load,
                    n_hosts=s.n_hosts,
                    config=s.config,
                    seed=s.seed,
                    faults=s.faults,
                    class_cutoff=s.class_cutoff,
                )
                for s in specs
            ]
            ctx = multiprocessing.get_context(self._mp_context)
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(tasks)),
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(ckpt_dir, signature),
            ) as pool:
                futures = [pool.submit(_run_task, task) for task in tasks]
                for spec, future in zip(specs, futures):
                    self.results[spec.key] = future.result()
                    self.n_dispatched += 1
        finally:
            arena.close()


def run_parallel_experiment(
    experiment_id: str,
    config: ExperimentConfig | None = None,
    workers: int = 2,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> ExperimentResult:
    """Run one experiment with its points fanned out over ``workers``.

    The parallel twin of :func:`repro.experiments.base.run_experiment`
    (which routes here for ``workers > 1``): same checkpoint semantics,
    same rows, byte-for-byte.  Drivers that never call
    :func:`~repro.experiments.common.evaluate_policy` (purely analytic
    tables) complete in the collect pass and are returned as-is.
    """
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
    executor = ParallelSweepExecutor(workers=workers, checkpoint=checkpoint)
    # The active checkpoint stays installed for any non-point
    # ``checkpointed()`` values a driver stores directly.
    with active_checkpoint(checkpoint), executor.installed(), memoised_splits():
        executor.phase = "collect"
        collected = fn(config)
        if not executor.pending:
            # Nothing to simulate (analytic driver, or a fully
            # checkpointed resume): the collect pass produced real rows.
            return collected
        executor.dispatch()
        executor.phase = "replay"
        return fn(config)
