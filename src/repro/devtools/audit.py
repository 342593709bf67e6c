"""Replay-divergence auditor: the runtime half of the determinism stack.

Tier-1's pins compare the code's output with recorded digests; this
module tests the *behaviour* in one process: run an experiment several
times with identical seeds and demand bit-identical results.
Divergence between two identically-seeded replays is proof of
nondeterminism — an unseeded RNG, an order-unstable iteration, anything
the pins missed.

Two observation channels, both installed process-wide for the duration
of a replay and removed afterwards:

* **event stream** — :func:`repro.sim.engine.set_event_hook` reports
  every executed engine event; each is folded into a *chained* digest
  (digest\\ :sub:`i` = H(digest\\ :sub:`i-1` ‖ event\\ :sub:`i`)) and the
  per-event running digests are kept.  Because a chained digest can
  never re-converge after a divergence, the first divergent event
  between two replays is found by **binary search over the stored
  prefix digests** — re-execution would be useless, since each run of a
  nondeterministic program is a fresh stream;
* **results** — :func:`repro.sim.metrics.set_result_observer` reports
  every finished :class:`~repro.sim.metrics.SimulationResult` from
  either backend, including the interior runs of cutoff searches that
  drivers never return; each folds to its
  :meth:`~repro.sim.metrics.SimulationResult.digest`.

A third check needs no replays at all: the same workload simulated on
the event engine and the fast kernels must produce the same waits
(host identities may legitimately differ on ties, so the comparison is
``allclose`` on wait arrays, not a bit-exact digest).

The replays run in this process (``workers=1``), since the observers
see only the process they are installed in.  A fourth, optional check
(``--workers N``) targets the cell map: the audited experiment is run
once with ``workers=1`` and once with its cells fanned out over an
``N``-process pool, and the resulting rows must be **identical** (NaN
fields compare equal to NaN — ablation drivers emit them legitimately).
This is the runtime enforcement of the guarantee documented in
:func:`repro.experiments.base.map_cells` and ``docs/PERFORMANCE.md``.

CLI::

    repro audit --experiment fig2_3 --replays 2 [--scale 0.1] [--seed N]
               [--workers 4]

Exit codes: **0** deterministic, **1** divergence found, **2** usage
error (unknown experiment).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..experiments import ExperimentConfig, get_experiment, list_experiments, run_experiment
from ..sim.engine import set_event_hook
from ..sim.events import Event
from ..sim.metrics import SimulationResult, set_result_observer

__all__ = [
    "AuditError",
    "AuditReport",
    "CrossCheck",
    "Divergence",
    "ParallelCheck",
    "ReplayRecord",
    "add_audit_arguments",
    "audit_experiment",
    "check_parallel_equivalence",
    "cross_check_backends",
    "find_first_divergence",
    "main",
    "record_replay",
    "resolve_experiment_ids",
    "run_from_args",
]


class AuditError(Exception):
    """A usage error (unknown experiment) — CLI exit code 2."""


# ---------------------------------------------------------------------------
# recording one replay
# ---------------------------------------------------------------------------


def _summarize_arg(arg: object) -> str:
    """Compact, stable description of an event-callback argument."""
    if isinstance(arg, (bool, int, float, str)):
        return repr(arg)
    index = getattr(arg, "index", None)
    if isinstance(index, int):
        return f"{type(arg).__name__}#{index}"
    return type(arg).__name__


def describe_event(event: Event) -> str:
    """One line identifying an executed event — what the audit reports."""
    callback = event.callback
    name = getattr(callback, "__qualname__", None) or getattr(
        callback, "__name__", repr(callback)
    )
    args = ", ".join(_summarize_arg(a) for a in event.args)
    return f"t={event.time!r} seq={event.seq} {name}({args})"


@dataclass
class ReplayRecord:
    """Everything observed during one replay of an experiment.

    ``event_digests[i]`` is the chained digest *after* event ``i`` — 16
    bytes per event, enough to binary-search the first divergence
    against another replay without ever re-executing.
    """

    event_digests: list[bytes] = field(default_factory=list)
    event_descriptions: list[str] = field(default_factory=list)
    result_digests: list[str] = field(default_factory=list)
    result_names: list[str] = field(default_factory=list)
    _chain: bytes = b"\x00" * 16

    @property
    def n_events(self) -> int:
        return len(self.event_digests)

    @property
    def n_results(self) -> int:
        return len(self.result_digests)

    def final_digest(self) -> str:
        """Single fingerprint of the whole replay (events + results)."""
        h = hashlib.blake2b(self._chain, digest_size=16)
        for digest in self.result_digests:
            h.update(digest.encode())
        return h.hexdigest()

    # -- observers -------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        desc = describe_event(event)
        h = hashlib.blake2b(self._chain, digest_size=16)
        h.update(struct.pack("<dq", event.time, event.seq))
        h.update(desc.encode())
        self._chain = h.digest()
        self.event_digests.append(self._chain)
        self.event_descriptions.append(desc)

    def _on_result(self, result: SimulationResult) -> None:
        self.result_digests.append(result.digest())
        self.result_names.append(f"{result.policy_name}[n={result.n_jobs}]")


@contextmanager
def record_replay() -> Iterator[ReplayRecord]:
    """Install the audit observers for the duration of the ``with`` body."""
    record = ReplayRecord()
    previous_hook = set_event_hook(record._on_event)
    previous_observer = set_result_observer(record._on_result)
    try:
        yield record
    finally:
        set_event_hook(previous_hook)
        set_result_observer(previous_observer)


# ---------------------------------------------------------------------------
# comparing replays
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """The first observed difference between two identically-seeded replays."""

    #: ``event`` (stream content), ``event-count`` (one stream is a prefix
    #: of the other), ``result`` (a simulation digest differs) or
    #: ``result-count`` (different number of simulations ran).
    kind: str
    replay_a: int
    replay_b: int
    index: int
    detail_a: str
    detail_b: str

    def render(self) -> str:
        what = {
            "event": "first divergent event",
            "event-count": "event streams are prefix-equal but differ in length",
            "result": "first divergent simulation result",
            "result-count": "different number of simulation runs observed",
        }[self.kind]
        return (
            f"replay {self.replay_a} vs replay {self.replay_b}: {what} "
            f"at index {self.index}\n"
            f"  replay {self.replay_a}: {self.detail_a}\n"
            f"  replay {self.replay_b}: {self.detail_b}"
        )


def _first_unequal(a: list[bytes], b: list[bytes]) -> int:
    """Index of the first differing prefix digest (binary search).

    Chained digests diverge permanently: equality at ``i`` implies
    equality everywhere before ``i``, so "digests differ at ``i``" is a
    monotone predicate and the first divergence is a textbook bisection
    over the *stored* arrays.  (Bisecting by re-execution would be
    meaningless — a nondeterministic program produces a fresh stream
    every run.)
    """
    lo, hi = 0, min(len(a), len(b)) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] == b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def find_first_divergence(
    a: ReplayRecord, b: ReplayRecord, index_a: int = 0, index_b: int = 1
) -> Divergence | None:
    """Compare two replays; ``None`` means bit-identical observations."""
    common = min(a.n_events, b.n_events)
    if common and a.event_digests[common - 1] != b.event_digests[common - 1]:
        i = _first_unequal(a.event_digests, b.event_digests)
        return Divergence(
            kind="event",
            replay_a=index_a,
            replay_b=index_b,
            index=i,
            detail_a=a.event_descriptions[i],
            detail_b=b.event_descriptions[i],
        )
    if a.n_events != b.n_events:
        longer = a if a.n_events > b.n_events else b
        return Divergence(
            kind="event-count",
            replay_a=index_a,
            replay_b=index_b,
            index=common,
            detail_a=f"{a.n_events} events",
            detail_b=f"{b.n_events} events"
            + f" (extra: {longer.event_descriptions[common]})",
        )
    for i, (da, db) in enumerate(zip(a.result_digests, b.result_digests)):
        if da != db:
            return Divergence(
                kind="result",
                replay_a=index_a,
                replay_b=index_b,
                index=i,
                detail_a=f"{a.result_names[i]} digest {da}",
                detail_b=f"{b.result_names[i]} digest {db}",
            )
    if a.n_results != b.n_results:
        return Divergence(
            kind="result-count",
            replay_a=index_a,
            replay_b=index_b,
            index=min(a.n_results, b.n_results),
            detail_a=f"{a.n_results} simulation runs",
            detail_b=f"{b.n_results} simulation runs",
        )
    return None


# ---------------------------------------------------------------------------
# engine vs fast-path cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossCheck:
    """Agreement of the event engine and the vectorised kernels."""

    policy_name: str
    n_jobs: int
    max_abs_deviation: float
    ok: bool

    def render(self) -> str:
        status = "agree" if self.ok else "DISAGREE"
        return (
            f"engine vs fast backends {status} on {self.policy_name} "
            f"({self.n_jobs} jobs, max wait deviation "
            f"{self.max_abs_deviation:.3e})"
        )


def cross_check_backends(
    seed: int, n_jobs: int = 2000, workload: str = "c90"
) -> CrossCheck:
    """Simulate one workload on both backends and compare the waits.

    Host *identities* may differ on exact ties (documented in
    :mod:`repro.sim.fast`), so the comparison is ``allclose`` on the
    per-job wait arrays rather than a bit-exact digest.
    """
    from ..core.policies import LeastWorkLeftPolicy
    from ..sim.runner import simulate
    from ..workloads.catalog import get_workload

    trace = get_workload(workload).make_trace(
        load=0.7, n_hosts=4, n_jobs=n_jobs, rng=seed
    )
    engine = simulate(
        trace, LeastWorkLeftPolicy(), n_hosts=4, rng=seed, backend="event"
    )
    fast = simulate(
        trace, LeastWorkLeftPolicy(), n_hosts=4, rng=seed, backend="fast"
    )
    deviation = float(np.max(np.abs(engine.wait_times - fast.wait_times)))
    ok = bool(
        np.allclose(engine.wait_times, fast.wait_times, rtol=1e-9, atol=1e-6)
    )
    return CrossCheck(
        policy_name=engine.policy_name,
        n_jobs=trace.n_jobs,
        max_abs_deviation=deviation,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# serial vs parallel sweep equivalence
# ---------------------------------------------------------------------------


def _row_values_equal(a: object, b: object) -> bool:
    """Equality where two NaNs compare equal (ablation rows carry NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _rows_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        _row_values_equal(a[k], b[k]) for k in a
    )


@dataclass(frozen=True)
class ParallelCheck:
    """Agreement of a serial sweep and an N-worker parallel sweep."""

    workers: int
    n_rows: int
    first_mismatch: str | None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None

    def render(self) -> str:
        if self.ok:
            return (
                f"serial and {self.workers}-worker parallel sweeps agree "
                f"on all {self.n_rows} rows"
            )
        return (
            f"serial vs {self.workers}-worker parallel sweep DISAGREE: "
            f"{self.first_mismatch}"
        )


def check_parallel_equivalence(
    ids: list[str], config: ExperimentConfig, workers: int
) -> ParallelCheck:
    """Run every experiment in ``ids`` in one process and with ``workers``
    processes; the rows must match exactly (NaN-tolerant, see
    :func:`_row_values_equal`)."""
    n_rows = 0
    for eid in ids:
        serial = run_experiment(eid, config, workers=1)
        parallel = run_experiment(eid, config, workers=workers)
        if len(serial.rows) != len(parallel.rows):
            return ParallelCheck(
                workers=workers,
                n_rows=n_rows,
                first_mismatch=(
                    f"{eid}: {len(serial.rows)} serial rows vs "
                    f"{len(parallel.rows)} parallel rows"
                ),
            )
        for i, (sr, pr) in enumerate(zip(serial.rows, parallel.rows)):
            if not _rows_equal(sr, pr):
                return ParallelCheck(
                    workers=workers,
                    n_rows=n_rows,
                    first_mismatch=f"{eid} row {i}: serial {sr!r} != parallel {pr!r}",
                )
        n_rows += len(serial.rows)
    return ParallelCheck(workers=workers, n_rows=n_rows, first_mismatch=None)


# ---------------------------------------------------------------------------
# the audit itself
# ---------------------------------------------------------------------------


def resolve_experiment_ids(name: str) -> list[str]:
    """Experiment ids behind ``name``: a registered id, or a driver module.

    ``fig2`` resolves to itself; ``fig2_3`` (a module that registers
    ``fig2`` and ``fig3``) resolves to every experiment its module
    defines, so audits can target the natural file-level unit.
    """
    registered = [eid for eid, _ in list_experiments()]
    if name in registered:
        return [name]
    by_module = [
        eid
        for eid in registered
        if get_experiment(eid).__module__.rsplit(".", 1)[-1] == name
    ]
    if by_module:
        return sorted(by_module)
    known = ", ".join(registered)
    raise AuditError(f"unknown experiment {name!r} (known ids: {known})")


@dataclass
class AuditReport:
    """Outcome of a full audit run."""

    experiment: str
    experiment_ids: list[str]
    replays: int
    scale: float
    n_events: int
    n_results: int
    divergence: Divergence | None
    cross_check: CrossCheck | None
    parallel_check: ParallelCheck | None = None

    @property
    def ok(self) -> bool:
        return (
            self.divergence is None
            and (self.cross_check is None or self.cross_check.ok)
            and (self.parallel_check is None or self.parallel_check.ok)
        )

    def render(self) -> str:
        ids = ", ".join(self.experiment_ids)
        lines = [
            f"audit {self.experiment} (ids: {ids}) — {self.replays} replays "
            f"at scale {self.scale:g}: {self.n_events} engine events, "
            f"{self.n_results} simulation runs observed per replay"
        ]
        if self.divergence is None:
            lines.append("replays are bit-identical")
        else:
            lines.append(self.divergence.render())
        if self.cross_check is not None:
            lines.append(self.cross_check.render())
        if self.parallel_check is not None:
            lines.append(self.parallel_check.render())
        lines.append("audit PASSED" if self.ok else "audit FAILED")
        return "\n".join(lines)


def audit_experiment(
    experiment: str,
    replays: int = 2,
    scale: float = 0.1,
    seed: int | None = None,
    cross_check: bool = True,
    workers: int | None = None,
) -> AuditReport:
    """Run ``experiment`` ``replays`` times with identical seeds; compare.

    Every replay uses the same :class:`ExperimentConfig`, so any
    difference in the observed event stream or result digests is
    nondeterminism by construction.  The first difference is located by
    binary search over stored per-event digests and reported with both
    sides' event descriptions.
    """
    if replays < 2:
        raise AuditError(f"need at least 2 replays to compare, got {replays}")
    if workers is not None and workers < 2:
        raise AuditError(f"--workers needs at least 2 processes, got {workers}")
    ids = resolve_experiment_ids(experiment)
    config = ExperimentConfig(scale=scale)
    if seed is not None:
        config = config.with_(seed=seed)
    records: list[ReplayRecord] = []
    for _ in range(replays):
        with record_replay() as record:
            for eid in ids:
                run_experiment(eid, config, workers=1)
        records.append(record)
    divergence = None
    for i in range(1, len(records)):
        divergence = find_first_divergence(records[0], records[i], 0, i)
        if divergence is not None:
            break
    check = cross_check_backends(seed=config.seed) if cross_check else None
    par_check = (
        check_parallel_equivalence(ids, config, workers)
        if workers is not None
        else None
    )
    return AuditReport(
        experiment=experiment,
        experiment_ids=ids,
        replays=replays,
        scale=scale,
        n_events=records[0].n_events,
        n_results=records[0].n_results,
        divergence=divergence,
        cross_check=check,
        parallel_check=par_check,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def add_audit_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the audit options on ``parser`` (shared with ``repro audit``)."""
    parser.add_argument(
        "--experiment",
        required=True,
        help="experiment id (fig2) or driver module (fig2_3) to audit",
    )
    parser.add_argument(
        "--replays",
        type=int,
        default=2,
        help="identically-seeded replays to compare (default: 2)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="job-count multiplier for the replays (default: 0.1)",
    )
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument(
        "--no-cross-check",
        action="store_true",
        help="skip the engine-vs-fast backend comparison",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "also run the audited experiments over an N-process pool and "
            "require the rows to match a --workers 1 run exactly"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="replay-divergence determinism audit for experiments",
    )
    add_audit_arguments(parser)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed audit invocation; returns the process exit code."""
    try:
        report = audit_experiment(
            args.experiment,
            replays=args.replays,
            scale=args.scale,
            seed=args.seed,
            cross_check=not args.no_cross_check,
            workers=args.workers,
        )
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
