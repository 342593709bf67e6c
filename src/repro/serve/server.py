"""The fault-tolerant online dispatcher.

This module turns the batch simulator into a long-lived *server*: jobs
are offered one at a time (by the in-process driver or the newline-JSON
front end), each one is admitted or shed, routed through the existing
policy objects, and accounted for — while hosts crash and repair
underneath, per the same :mod:`repro.sim.faults` semantics the batch
experiments use as their failure model.

Architecture
------------

``DispatchServer`` is the deterministic core.  It embeds the
event-driven :class:`~repro.sim.server.DistributedServer` (hosts, FCFS
queues, crash/repair semantics, strict-mode invariants) and layers the
robustness machinery on top:

* **admission** — token-bucket intake plus a deferred-queue hard cap;
  over-rate or over-backlog arrivals are shed with an explicit
  ``rejected`` outcome (:mod:`repro.serve.admission`);
* **health** — per-host circuit breakers driven by heartbeat probes and
  handoff outcomes; dispatch masks on the breaker *belief*, never the
  true host state (:mod:`repro.serve.health`);
* **retry** — a handoff to a host that turns out to be down is retried
  with jittered exponential backoff, the jitter drawn from a dedicated
  spawned :class:`~numpy.random.SeedSequence` child so fault-free runs
  never touch the stream;
* **degraded-mode cutoffs** — SITA cutoffs re-fit online from a sliding
  window, falling back to last-known-good on any validation failure
  (:mod:`repro.serve.refit`);
* **snapshots** — the accounting is periodically persisted with atomic
  writes, and ``resume_from`` replays the stream prefix to reconstruct
  state bit-identically after SIGKILL (:mod:`repro.serve.snapshot`).

Everything advances on the *virtual* clock of the embedded event engine
— arrival epochs are supplied by the caller — so a served stream is a
deterministic, replayable function of its seeds.  Wall-clock enters only
through the decision-latency totals and histogram, which are
observability, not state.

Memory does not grow with the stream.  Per-job rows are kept only for
the jobs not yet *folded*: every job still in flight plus the most
recent :data:`RETAINED_JOBS` ones.  The fold point is ``F = min(admitted
- RETAINED_JOBS, first job still in flight)``; the jobs below it form a
contiguous prefix of submission order and live on only as running
totals (completed count, sums of slowdowns and of their squares, and on
the fast path per-host counts and busy time), added strictly left to
right in submission order.  Both dispatch paths fold by this rule and
``job_table()`` folds to ``F`` first, so the paths show the same rows at
any read; a sequential sum does not depend on where the folds fell, so
the totals and Jain's index agree bit for bit too.  The embedded server drops each ``Job``
once its completion-log row is written, and the latency state is a
fixed set of integer totals and histogram buckets.

The accounting invariant, checked in :meth:`DispatchServer.status` and
asserted by the soak test::

    accepted == completed + rejected + lost + in_flight

with ``in_flight == 0`` after :meth:`~DispatchServer.drain`.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Sequence, Sized
from operator import countOf

import numpy as np

from ..core.policies import GroupedSITAPolicy, SITAPolicy
from ..core.policies.sita import validate_cutoffs
from ..sim.faults import FaultModel
from ..sim.jobs import Job
from ..sim.server import DistributedServer
from .admission import AdmissionController
from .fastpath import FastPathState, fast_path_mode
from .health import HealthMonitor
from .refit import CutoffManager
from .snapshot import SnapshotStore

__all__ = ["DispatchServer", "OnlineDispatchError", "RETAINED_JOBS"]

#: Completed jobs whose rows the server keeps beyond those still in
#: flight.  Older ones are folded into running totals; ``job_table()``
#: shows the retained ones.  Tables of up to this many jobs are
#: complete.
RETAINED_JOBS = 16384

#: Most records :meth:`DispatchServer._offer` routes between two
#: advances of the engine clock, so the fast path's eager folds see a
#: current clock however large the offered batch.
_ROUTE_CHUNK = 4096


#: ``job_table()``'s columns, in order.
_JOB_TABLE_FIELDS = ("index", "arrival", "size", "host", "host_seq", "start", "completion")


class OnlineDispatchError(RuntimeError):
    """The dispatcher cannot make progress or failed a resume audit."""


_NOT_PAIRS = "the job stream must hold (arrival, size) pairs"


def _pair(job) -> tuple:
    try:
        arrival, size = job
    except (TypeError, ValueError):
        raise ValueError(_NOT_PAIRS) from None
    return arrival, size


def _stream_columns(jobs: Iterable[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """An ``(arrival, size)`` stream as two contiguous float64 columns.

    Every element must be a pair (a tuple, list or anything else of
    length 2).  A sized stream is flattened with a fixed count, so its
    element lengths are checked first in one C-level pass: the count
    alone would read a 3-tuple next to a 1-tuple as two pairs.  An
    unsized stream is checked element by element as it is read.
    """
    if isinstance(jobs, Sized):
        n = len(jobs)
        try:
            pairs = countOf(map(len, jobs), 2)
        except TypeError:  # an element without a length
            pairs = -1
        if pairs != n:
            raise ValueError(_NOT_PAIRS)
        flat = np.fromiter(itertools.chain.from_iterable(jobs), np.float64, 2 * n)
    else:
        flat = np.fromiter(itertools.chain.from_iterable(map(_pair, jobs)), np.float64)
    return flat[0::2].copy(), flat[1::2].copy()


#: Histogram buckets: one per value below 32 ns, then 16 per octave up
#: to the int64 range.
_N_BUCKETS = 16 * 58 + 32


def _bucket(ns: int) -> int:
    """Histogram bucket of a non-negative nanosecond count."""
    if ns < 32:
        return ns
    shift = ns.bit_length() - 5
    return 16 * shift + (ns >> shift)


def _bucket_mid(b: np.ndarray) -> np.ndarray:
    """Midpoints of buckets ``b``: ``[m << k, (m + 1) << k)`` for the
    ``m``-th of 16 sub-buckets of the octave ``k``."""
    shift = np.maximum(b // 16 - 1, 0)
    lo = np.where(b < 32, b, (b % 16 + 16) << shift)
    return lo + np.where(b < 32, 1, 1 << shift) / 2.0


class _Latency:
    """Decision latency in fixed memory.

    Exact integer running totals (intake and decision nanoseconds, the
    decisions, the timed decision-stage calls) and a log-bucketed
    histogram of per-job decision nanoseconds.  Above 32 ns a bucket is
    at most 1/16 of its lower bound wide, so a percentile read off it as
    the bucket midpoint is within about 3% of the exact one.  A batch
    adds its count at its per-job mean.
    """

    __slots__ = ("intake_ns", "decision_ns", "job_ns", "decisions", "calls", "counts")

    def __init__(self) -> None:
        self.intake_ns = 0
        #: every decision-stage nanosecond, settles outside a submit too.
        self.decision_ns = 0
        #: decision nanoseconds of the calls that decided jobs.
        self.job_ns = 0
        self.decisions = 0
        self.calls = 0
        self.counts = [0] * _N_BUCKETS

    def record(self, ns: int, n: int) -> None:
        """One timed decision-stage call that decided ``n`` jobs."""
        self.calls += 1
        self.decision_ns += ns
        if n:
            self.job_ns += ns
            self.decisions += n
            # Bucket bounds are integers, so the floored mean lands in
            # the bucket of the exact one.
            self.counts[_bucket(ns // n)] += n

    def percentiles_us(self, qs: Sequence[int]) -> np.ndarray:
        """Nearest-rank percentiles ``qs`` of the per-job decision
        latency, in microseconds (needs at least one decision)."""
        n = self.decisions
        ranks = [max(1, -(-q * n // 100)) for q in qs]
        buckets = np.searchsorted(np.cumsum(self.counts), ranks)
        return _bucket_mid(buckets) / 1e3


def _first_faults(t: np.ndarray, s: np.ndarray, now: float) -> tuple[int, ...]:
    """Where a batch first breaks each intake rule: the indices of the first
    size that is not positive and finite, the first non-finite arrival and
    the first arrival below its predecessor (``now`` for job 0), or ``len(t)``."""
    down = np.empty(t.shape[0], dtype=bool)
    down[:1] = t[:1] < now
    np.less(t[1:], t[:-1], out=down[1:])
    masks = (~(np.isfinite(s) & (s > 0)), ~np.isfinite(t), down)
    return tuple(int(m.argmax()) if m.any() else t.shape[0] for m in masks)


class _OnlineServer(DistributedServer):
    """The embedded server with belief-masked dispatch and retry/backoff.

    The parent routes on the *true* up mask; this subclass routes on the
    health monitor's breaker belief, pays for stale beliefs with failed
    handoffs (observed by the breakers), parks failed jobs in backoff
    timers, and sheds on overflow — extending the parent's conservation
    accounting with the two new places a job can legally be.
    """

    def __init__(
        self,
        n_hosts: int,
        policy,
        *,
        rng,
        host_speeds,
        strict,
        faults,
        health: HealthMonitor,
        max_deferred: int,
        max_retries: int,
        give_up_after: int,
        backoff_base: float,
        backoff_mult: float,
        jitter_rng: np.random.Generator,
        on_crash,
        retain: int,
    ) -> None:
        super().__init__(
            n_hosts,
            policy,
            rng=rng,
            host_speeds=host_speeds,
            strict=strict,
            faults=faults,
        )
        self.retain = int(retain)
        self._health = health
        self.max_deferred = int(max_deferred)
        self.max_retries = int(max_retries)
        self.give_up_after = int(give_up_after)
        self.backoff_base = float(backoff_base)
        self.backoff_mult = float(backoff_mult)
        self._jitter_rng = jitter_rng
        self._on_crash = on_crash
        #: jobs parked in a backoff timer, by job index.
        self._parked: dict[int, Job] = {}
        self._attempts: dict[int, int] = {}
        #: jobs shed after admission (deferred-queue overflow).
        self.n_shed = 0
        self.n_retries = 0
        self.n_handoff_failures = 0
        self.n_given_up = 0

    # -- dispatch ------------------------------------------------------

    def _dispatch(self, job: Job) -> None:
        now = self.sim._now
        if job.interruptions > self.give_up_after:
            # Under "redispatch" semantics a job larger than the typical
            # up-period loses its progress at every crash and can
            # *never* complete; an unbounded retry loop would spin the
            # clock forever.  Give up explicitly: the job becomes a
            # "lost" outcome, visible in the counters.
            job.lost = True
            self.n_lost += 1
            self._record_gone(job)
            if self._attempts:
                self._attempts.pop(job.index, None)
            self.n_given_up += 1
            return
        health = self._health
        up = health.refresh(now)
        if not health.any_live:
            self._defer_or_shed(job)
            return
        host_idx = int(self.policy.choose_live_host(job, self.state, up))
        if not 0 <= host_idx < len(self.hosts) or not up[host_idx]:
            raise ValueError(
                f"policy returned invalid or masked host {host_idx} "
                f"for job {job.index}"
            )
        host = self.hosts[host_idx]
        if host.up:
            if self._attempts:
                self._attempts.pop(job.index, None)
            health.probe(host_idx, True, now)
            host.submit(job)
            return
        # The breaker believed this host live but the handoff failed —
        # the belief was stale.  Feed the failure back and retry with
        # jittered exponential backoff.
        self.n_handoff_failures += 1
        health.probe(host_idx, False, now)
        attempts = self._attempts.get(job.index, 0) + 1
        self._attempts[job.index] = attempts
        if attempts > self.max_retries:
            self._attempts.pop(job.index, None)
            self._defer_or_shed(job)
            return
        self.n_retries += 1
        delay = self.backoff_base * self.backoff_mult ** (attempts - 1)
        delay *= 1.0 + float(self._jitter_rng.random())
        self._parked[job.index] = job
        self.sim.schedule_after(delay, self._retry, job)

    def _retry(self, job: Job) -> None:
        if self._parked.pop(job.index, None) is None:  # pragma: no cover
            return
        self._dispatch(job)

    def _defer_or_shed(self, job: Job) -> None:
        if len(self._deferred) < self.max_deferred:
            self._deferred.append(job)
        else:
            self.n_shed += 1
            self._record_gone(job)

    def _flush_deferred(self) -> None:
        """One bounded pass over the deferred queue, FCFS.

        ``_dispatch`` may legally push a popped job back (mask emptied,
        retries exhausted), so the pass is bounded by the queue's length
        at entry instead of looping until empty.
        """
        health = self._health
        for _ in range(len(self._deferred)):
            health.refresh(self.sim._now)
            if not health.any_live:
                return
            self._dispatch(self._deferred.popleft())

    # -- fault plumbing ------------------------------------------------

    def crash_host(self, host_id: int) -> None:
        super().crash_host(host_id)
        # Detection is *not* instant — the breakers learn from failed
        # handoffs and the next heartbeat, never from this event.
        if self._on_crash is not None:
            self._on_crash(host_id)

    def repair_host(self, host_id: int) -> None:
        self.hosts[host_id].repair()
        # A repaired host announces itself: one successful probe.  An
        # open breaker still waits out its cooldown before trusting it.
        self._health.probe(host_id, True, self.sim._now)
        self._flush_deferred()

    # -- accounting ----------------------------------------------------

    def _dispatcher_held(self) -> dict[str, int]:
        held = super()._dispatcher_held()
        held["parked"] = len(self._parked)
        held["shed"] = self.n_shed
        return held


class DispatchServer:
    """Deterministic online dispatcher core.

    Parameters
    ----------
    n_hosts, policy, host_speeds:
        As for :class:`~repro.sim.server.DistributedServer`; only
        immediate-dispatch policies (``kind`` of ``"static"`` or
        ``"state"``) are servable.
    seed:
        Root of the server's RNG tree.  Spawned children feed the
        policy and the retry jitter; the fault schedule has its own root
        inside ``faults`` (exactly the batch discipline).
    faults:
        Optional :class:`~repro.sim.faults.FaultModel`; its injector is
        attached immediately, so crashes interleave with the stream.
    admission:
        Intake policy; defaults to an unlimited bucket with a 1024-job
        deferred cap.
    health:
        Breaker configuration; hosts are registered here automatically.
    cutoff_manager:
        Optional degraded-mode re-fit manager.  Requires a single-cutoff
        policy (2-host :class:`SITAPolicy` or any
        :class:`GroupedSITAPolicy`).
    heartbeat_interval:
        Simulated seconds between probe rounds.
    max_retries, give_up_after:
        Failed-handoff retries per dispatch attempt, and the budget of
        service-interrupting crashes after which a job is abandoned as
        an explicit ``lost`` outcome — under ``"redispatch"`` semantics
        a job longer than the typical up-period would otherwise never
        complete and the drain could never terminate.
    snapshot_store, snapshot_every:
        Crash-safe accounting; a snapshot is written every
        ``snapshot_every``-th offered job and once more on drain.
    fast_path:
        Allow the fault-free fast path (:mod:`repro.serve.fastpath`) to
        engage.  It engages at construction when no fault model is
        attached and the policy has a fast-path mode, and *disengages
        permanently* — handing the exact engine state over — the moment
        any breaker records failure evidence.  Decisions, counters and
        per-job fields are bit-identical either way; set ``False`` to
        force the event path (the bit-identity suite does exactly that).
    """

    def __init__(
        self,
        n_hosts: int,
        policy,
        *,
        seed: int = 0,
        host_speeds: Sequence[float] | None = None,
        strict: bool | None = None,
        faults: FaultModel | None = None,
        admission: AdmissionController | None = None,
        health: HealthMonitor | None = None,
        cutoff_manager: CutoffManager | None = None,
        heartbeat_interval: float = 5.0,
        max_retries: int = 3,
        give_up_after: int = 16,
        backoff_base: float = 0.25,
        backoff_mult: float = 2.0,
        snapshot_store: SnapshotStore | None = None,
        snapshot_every: int = 1000,
        fast_path: bool = True,
    ) -> None:
        kind = getattr(policy, "kind", None)
        if kind not in ("static", "state"):
            raise ValueError(
                f"the online dispatcher serves immediate-dispatch policies "
                f"only (kind 'static' or 'state'), got {kind!r}"
            )
        if not heartbeat_interval > 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if cutoff_manager is not None:
            self._check_refittable(policy)
        self.heartbeat_interval = float(heartbeat_interval)
        self.admission = admission if admission is not None else AdmissionController()
        self.health = health if health is not None else HealthMonitor()
        for i in range(n_hosts):
            self.health.register_host(i)
        self.cutoff_manager = cutoff_manager
        self.snapshot_store = snapshot_store
        self.snapshot_every = int(snapshot_every)
        policy_seq, jitter_seq = np.random.SeedSequence(seed).spawn(2)
        self._inner = _OnlineServer(
            n_hosts,
            policy,
            rng=np.random.default_rng(policy_seq),
            host_speeds=host_speeds,
            strict=strict,
            faults=faults,
            health=self.health,
            max_deferred=self.admission.max_deferred,
            max_retries=max_retries,
            give_up_after=give_up_after,
            backoff_base=backoff_base,
            backoff_mult=backoff_mult,
            jitter_rng=np.random.default_rng(jitter_seq),
            on_crash=self._on_crash,
            retain=RETAINED_JOBS,
        )
        self.policy = policy
        self.n_accepted = 0
        self.n_rejected_intake = 0
        self._next_index = 0
        self._replaying = False
        #: wall-clock totals and histogram of the two stages the latency
        #: summary keeps apart: intake (validation + engine advance +
        #: admission) and decision (routing + commit).
        self._latency = _Latency()
        self._route_ns = 0
        self._commit_ns = 0
        self._deferred_peak = 0
        if self._inner.fault_injector is not None:
            self._inner.fault_injector.attach(self._inner)
        self._fastpath: FastPathState | None = None
        mode = fast_path_mode(policy) if fast_path else None
        if mode is not None and self._inner.fault_injector is None:
            self._fastpath = FastPathState(
                n_hosts,
                [h.speed for h in self._inner.hosts],
                mode,
                policy,
                retain=RETAINED_JOBS,
                sim=self._inner.sim,
            )
        self._fastpath_stats = {
            "engaged": self._fastpath is not None,
            "mode": mode if self._fastpath is not None else None,
            "handovers": 0,
            "decisions": 0,
        }
        if self._fastpath is None:
            # Engaged servers suspend the heartbeat chain: with no fault
            # model and pristine breakers every probe is a success that
            # cannot change routing state.  ``_handover`` resumes the
            # chain at the exact epoch the engine path would be on.
            self._inner.sim.schedule_after(
                self.heartbeat_interval, self._heartbeat
            )

    @staticmethod
    def _check_refittable(policy) -> None:
        single = isinstance(policy, GroupedSITAPolicy) or (
            isinstance(policy, SITAPolicy) and policy.cutoffs.size == 1
        )
        if not single:
            raise ValueError(
                "online cutoff re-fit needs a single-cutoff policy "
                "(2-host SITAPolicy or GroupedSITAPolicy), got "
                f"{getattr(policy, 'name', type(policy).__name__)!r}"
            )

    # ------------------------------------------------------------------
    # internal hooks
    # ------------------------------------------------------------------

    def _on_crash(self, host_id: int) -> None:
        if self.cutoff_manager is not None:
            self.cutoff_manager.mark_contaminated()

    def _heartbeat(self) -> None:
        inner = self._inner
        self.health.probe_all([host.up for host in inner.hosts], inner.sim._now)
        if inner._deferred:
            inner._flush_deferred()
        inner.sim.schedule_after(self.heartbeat_interval, self._heartbeat)

    def _apply_cutoff(self, cutoff: float) -> None:
        policy = self.policy
        if isinstance(policy, GroupedSITAPolicy):
            policy.cutoff = float(cutoff)
        else:
            policy.cutoffs = validate_cutoffs([cutoff])

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._inner.sim.now

    def submit(
        self,
        size: float,
        arrival: float,
        size_estimate: float | None = None,
    ) -> dict:
        """Offer one job to the server; returns the decision record.

        ``arrival`` is the job's virtual-time epoch and must be finite
        and non-decreasing across calls; the embedded engine is advanced to
        it first, so crashes, repairs, heartbeats and retries that were
        due interleave exactly as they would in a batch run.
        """
        t0 = time.perf_counter_ns()
        if not (size > 0 and math.isfinite(size)):
            raise ValueError(f"job size must be positive and finite, got {size}")
        now = float(arrival)
        if not math.isfinite(now):
            raise ValueError(f"arrival must be finite, got {now}")
        inner = self._inner
        sim = inner.sim
        if now < sim.now:
            raise ValueError(
                f"arrivals must be non-decreasing: got {now} at server "
                f"time {sim.now}"
            )
        fp = self._fastpath
        if fp is not None and not self.health.pristine():
            self._handover()
            fp = None
        sim.run(until=now)
        self.n_accepted += 1
        decision = self.admission.admit(now, len(inner._deferred))
        t1 = time.perf_counter_ns()
        if decision != "admit":
            self.n_rejected_intake += 1
            record = {"outcome": "rejected", "reason": decision, "host": None}
        else:
            size = float(size)
            est = size if size_estimate is None else float(size_estimate)
            mgr = self.cutoff_manager
            if mgr is not None and mgr.observe(size, now) and mgr.refit():
                self._apply_cutoff(mgr.cutoff)
            if fp is not None:
                host = fp.route_one(now, size, est)
            else:
                job = Job(self._next_index, now, size, est)
                # The arrival is the next event at ``now``: the clock is
                # there and nothing due by then is pending.
                sim.fire(inner._handle_arrival, job)
                host = job.assigned_host
            self._next_index += 1
            record = {"outcome": "admitted", "reason": "admit", "host": host}
        t2 = time.perf_counter_ns()
        lat = self._latency
        lat.intake_ns += t1 - t0
        lat.record(t2 - t1, 1)
        self._route_ns += t2 - t1
        depth = len(inner._deferred)
        if depth > self._deferred_peak:
            self._deferred_peak = depth
        if (
            self.snapshot_store is not None
            and not self._replaying
            and self.snapshot_every > 0
            and self.n_accepted % self.snapshot_every == 0
        ):
            self._write_snapshot()
        return record

    def submit_batch(
        self,
        arrivals: Sequence[float] | np.ndarray,
        sizes: Sequence[float] | np.ndarray,
        size_estimates: Sequence[float] | np.ndarray | None = None,
        collect: bool = False,
    ) -> list[dict] | int:
        """Offer a whole arrival batch at once (vectorized intake).

        Outcome-equivalent to calling :meth:`submit` once per job in
        order — the bit-identity and batch-invariance tests assert it —
        but the fault-free fast path admits and routes the batch through
        one kernel call instead of ``n`` Python round-trips.  When the
        batch cannot be bulk-processed exactly (engine path, finite-rate
        admission, online re-fit windows), it transparently degrades to
        the scalar loop.

        Validation is **atomic**: the batch is checked up front and the
        first offending job raises the exception :meth:`submit` would
        have raised, with *no* state change — whereas the scalar loop
        would have processed the jobs preceding the offender.  That is
        the one deliberate semantic difference, and it only exists on
        erroneous input.

        :meth:`run_stream` offers its slices through the same routing
        (:meth:`_offer`) after one check of its whole stream.  Returns
        the number of jobs offered, or the per-job decision records (in
        offer order) when ``collect=True``.
        """
        t0 = time.perf_counter_ns()
        t = np.ascontiguousarray(arrivals, dtype=np.float64)
        s = np.ascontiguousarray(sizes, dtype=np.float64)
        if t.ndim != 1 or s.shape != t.shape:
            raise ValueError(
                f"arrivals and sizes must be 1-D of equal length, got "
                f"shapes {t.shape} and {s.shape}"
            )
        if size_estimates is None:
            e = s
        else:
            e = np.ascontiguousarray(size_estimates, dtype=np.float64)
            if e.shape != t.shape:
                raise ValueError(
                    f"size_estimates must match arrivals, got shapes "
                    f"{e.shape} and {t.shape}"
                )
        n = int(t.shape[0])
        if n == 0:
            return [] if collect else 0
        sim = self._inner.sim
        bad_size, bad_arrival, unordered = _first_faults(t, s, sim.now)
        if bad_size < n:
            raise ValueError(f"job size must be positive and finite, got {s[bad_size]}")
        if bad_arrival < n:
            raise ValueError(f"arrival must be finite, got {float(t[bad_arrival])}")
        if unordered < n:
            prev = sim.now if unordered == 0 else float(t[unordered - 1])
            raise ValueError(
                f"arrivals must be non-decreasing: got {float(t[unordered])} "
                f"at server time {prev}"
            )
        return self._offer(t, s, e, t0, collect)

    def _offer(self, t, s, e, t0: int, collect: bool = False) -> list[dict] | int:
        """Admit and route a checked, non-empty batch: the one routing
        path behind :meth:`submit_batch` and :meth:`run_stream`.  ``t0``
        is the ``perf_counter_ns`` at which the caller's intake began."""
        n = int(t.shape[0])
        sim = self._inner.sim
        fp = self._fastpath
        if fp is not None and not self.health.pristine():
            self._handover()
            fp = None
        if fp is None or self.cutoff_manager is not None or not self.admission.unlimited():
            # Per-job admission state, re-fit windows or engine
            # interleavings are in play: the scalar loop is the
            # semantics, so use it.
            records = [self.submit(float(s[j]), float(t[j]), float(e[j])) for j in range(n)]
            return records if collect else n
        t1 = time.perf_counter_ns()
        self._latency.intake_ns += t1 - t0
        store = self.snapshot_store
        if store is not None and (self._replaying or self.snapshot_every <= 0):
            store = None
        route_before = self._route_ns
        hosts: list[int] = []
        pos = 0
        while pos < n:
            end = min(n, pos + _ROUTE_CHUNK)
            if store is not None:
                # Stop each chunk on the snapshot cadence so resume sees
                # the same every-k-offers checkpoints as the scalar path.
                boundary = (self.n_accepted // self.snapshot_every + 1) * self.snapshot_every
                end = min(end, pos + (boundary - self.n_accepted))
            chunk = end - pos
            self.admission.admit_batch(chunk)
            self.n_accepted += chunk
            self._next_index += chunk
            r0 = time.perf_counter_ns()
            routed = fp.route_batch(t[pos:end], s[pos:end], e[pos:end])
            self._route_ns += time.perf_counter_ns() - r0
            if collect:
                hosts += routed.tolist()
            sim.run(until=float(t[end - 1]))
            if store is not None and self.n_accepted % self.snapshot_every == 0:
                self._settle(in_decision=True)
                self._write_snapshot()
            pos = end
        t2 = time.perf_counter_ns()
        self._latency.record(t2 - t1, n)
        self._commit_ns += (t2 - t1) - (self._route_ns - route_before)
        if collect:
            return [{"outcome": "admitted", "reason": "admit", "host": h} for h in hosts]
        return n

    def _settle(self, in_decision: bool = False) -> None:
        """Settle the fast path's deferred timings, charged to routing.

        The fixed-host modes defer their start/completion arithmetic to
        :meth:`FastPathState.settle`; wherever it runs, its time is
        routing work and counts in ``route_ms``.  Outside a submit call
        (drain, status, a snapshot after a scalar submit) it is also
        recorded as a decision-stage call with no decisions, so
        ``decisions_per_s`` pays for it too; ``in_decision`` marks a
        settle inside a submit call's timed window, which already
        counts it.
        """
        fp = self._fastpath
        if fp is None or not fp.unsettled:
            return
        r0 = time.perf_counter_ns()
        fp.settle()
        ns = time.perf_counter_ns() - r0
        self._route_ns += ns
        if not in_decision:
            self._latency.record(ns, 0)

    def _handover(self) -> None:
        """Disengage the fast path, reconstructing engine state exactly.

        Called the moment any breaker holds failure evidence (and by
        ``drain`` when that happens last-minute).  The columnar records
        become real jobs/queues/events at the current instant, and the
        heartbeat chain resumes at the epoch the engine path would be
        on: beats fire at cumulative sums ``hb, hb+hb, …`` (the
        ``schedule_after`` accumulation from 0.0), so the next one is
        the first such partial sum strictly after ``now`` — computed by
        the same repeated addition for bit-identical epochs.  One-way:
        the server never re-engages.
        """
        fp = self._fastpath
        assert fp is not None
        self._settle()
        self._fastpath = None
        inner = self._inner
        now = inner.sim.now
        fp.hand_over(inner, now)
        beat = self.heartbeat_interval
        while beat <= now:
            beat += self.heartbeat_interval
        inner.sim.schedule(beat, self._heartbeat)
        self._fastpath_stats["engaged"] = False
        self._fastpath_stats["handovers"] += 1
        self._fastpath_stats["decisions"] = fp.m

    def drain(self, max_stalls: int = 256) -> None:
        """Advance virtual time until no admitted job is in flight.

        Each chunk's horizon is sized from the *remaining work* (host
        backlogs plus deferred/parked job sizes), so a heavy-tailed job
        mid-service is drained in a handful of chunks rather than by
        fixed-step crawling.  Progress is still bounded: ``max_stalls``
        consecutive chunks completing nothing raises a diagnosable
        :class:`OnlineDispatchError` (a fault model whose repairs cannot
        keep up with the retry churn) instead of spinning forever.
        """
        fp = self._fastpath
        if fp is not None:
            if not self.health.pristine():
                self._handover()
            else:
                sim = self._inner.sim
                self._settle()
                horizon = fp.max_completion()
                if horizon > sim.now:
                    # The calendar is empty while engaged, so this is an
                    # O(1) clock advance past the last completion epoch.
                    sim.run(until=horizon)
                # Completed records stay columnar: counters, status()
                # and job_table() read the totals and the window.
                if self.snapshot_store is not None and not self._replaying:
                    self._write_snapshot()
                return
        inner = self._inner
        sim = inner.sim
        stalls = 0
        while self.in_flight > 0:
            done_before = self.n_completed + self.n_lost
            pending = float(np.sum(inner.state.work_left()))
            pending += sum(j.size for j in inner._deferred)
            pending += sum(j.size for j in inner._parked.values())
            step = max(2.0 * pending, 4.0 * self.heartbeat_interval)
            if inner.fault_injector is not None:
                step = max(step, 2.0 * inner.fault_injector.model.mttr)
            sim.run(until=sim.now + step)
            if self.n_completed + self.n_lost == done_before:
                stalls += 1
                if stalls >= max_stalls:
                    injector = inner.fault_injector
                    hint = (
                        f" (availability {injector.model.availability:.3f})"
                        if injector is not None
                        else ""
                    )
                    raise OnlineDispatchError(
                        f"{self.in_flight} jobs still in flight after "
                        f"{max_stalls} stalled drain chunks — the fault "
                        f"model may be too aggressive to make progress{hint}"
                    )
            else:
                stalls = 0
        if self.snapshot_store is not None and not self._replaying:
            self._write_snapshot()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    @property
    def n_completed(self) -> int:
        fp = self._fastpath
        if fp is not None:
            # Completions are implicit while engaged: a record is done
            # once the clock passes its completion epoch.
            self._settle()
            return fp.completed_count(self._inner.sim.now)
        return self._inner.n_completed

    @property
    def n_lost(self) -> int:
        return self._inner.n_lost

    @property
    def n_rejected(self) -> int:
        """All sheds: at intake plus deferred-queue overflow."""
        return self.n_rejected_intake + self._inner.n_shed

    @property
    def in_flight(self) -> int:
        return self.n_accepted - self.n_rejected - self.n_completed - self.n_lost

    def counters(self) -> dict:
        """The deterministic accounting (snapshot payload, audit unit)."""
        inner = self._inner
        injector = inner.fault_injector
        return {
            "accepted": self.n_accepted,
            "rejected": self.n_rejected,
            "rejected_intake": self.n_rejected_intake,
            "rejected_overflow": inner.n_shed,
            "completed": self.n_completed,
            "lost": self.n_lost,
            "in_flight": self.in_flight,
            "retries": inner.n_retries,
            "handoff_failures": inner.n_handoff_failures,
            "given_up": inner.n_given_up,
            "deferred": len(inner._deferred),
            "parked": len(inner._parked),
            "deferred_peak": self._deferred_peak,
            "crashes": 0 if injector is None else injector.total_crashes,
        }

    def _fold(self) -> None:
        """Fold both paths' per-job rows up to the fold point at ``now``
        (see the module docstring); every reader of rows calls it."""
        fp = self._fastpath
        if fp is not None:
            self._settle()
            fp.fold(self.now)
        else:
            self._inner.fold_completed()

    def job_table(self) -> dict[str, np.ndarray]:
        """Columnar outcomes of the retained completed jobs.

        The rows are the completed jobs not yet folded into the running
        totals, in submission order: the jobs from the fold point on,
        which trails the newest admission by at least
        :data:`RETAINED_JOBS` and never passes a job still in flight.
        A server that has admitted at most :data:`RETAINED_JOBS` jobs
        shows every completed one.  ``index`` is the job's local
        submission index and ``host_seq`` its FCFS submission rank on
        its host.  Both paths hold the same window and the columns are
        equal either way, which is what the fast-path bit-identity
        checks compare.  Totals over every job are in :meth:`counters`
        and :meth:`status`.
        """
        self._fold()
        fp = self._fastpath
        if fp is not None:
            return fp.job_table(self.now)
        columns = self._inner.completed_columns(*_JOB_TABLE_FIELDS)
        return {
            name: col.astype(np.int64) if name in ("index", "host", "host_seq") else col
            for name, col in zip(_JOB_TABLE_FIELDS, columns)
        }

    def latency_summary(self) -> dict:
        """Wall-clock decision latency (observability, not state).

        The percentiles cover the **decision** stage only — routing plus
        commit — so they no longer conflate admission-queue wait with
        routing cost; the intake stage (validation, engine advance,
        token-bucket decision) is reported separately under ``"intake"``.
        ``decisions_per_s`` still divides by the *total* wall time of
        both stages, keeping the throughput figure comparable across
        releases.  Batched decisions contribute their per-job mean.  A
        fixed-host settle run outside a submit call (see :meth:`_settle`)
        counts in ``route_ms`` and ``decisions_per_s`` but in no job's
        percentile.  The totals and ``mean_us`` are exact; the
        percentiles are nearest-rank, read off a fixed log-bucketed
        histogram as bucket midpoints (within about 3%).
        """
        lat = self._latency
        if not lat.calls:
            return {"decisions": 0}
        i_total = float(lat.intake_ns)
        d_total = float(lat.decision_ns)
        n = lat.decisions
        p50, p95, p99 = lat.percentiles_us((50, 95, 99))
        return {
            "decisions": n,
            "decisions_per_s": float(n / ((i_total + d_total) / 1e9)),
            "mean_us": lat.job_ns / n / 1e3,
            "p50_us": float(p50),
            "p95_us": float(p95),
            "p99_us": float(p99),
            "intake": {
                "total_ms": i_total / 1e6,
                "mean_us": i_total / n / 1e3,
            },
            "stages": {
                "intake_ms": i_total / 1e6,
                "route_ms": self._route_ns / 1e6,
                "commit_ms": self._commit_ns / 1e6,
            },
        }

    def fast_path_status(self) -> dict:
        """Fast-path engagement state (observability, not accounting)."""
        fp = self._fastpath
        st = dict(self._fastpath_stats)
        st["engaged"] = fp is not None
        if fp is not None:
            st["decisions"] = fp.m
        return st

    def status(self) -> dict:
        """Full observability document (counters, breakers, cutoffs…).

        Covers every job since start: the counters, and Jain's index of
        all completed slowdowns read from the running totals plus the
        retained window (at most about :data:`RETAINED_JOBS` rows, not
        the stream).
        """
        now = self.now
        counters = self.counters()
        holds = counters["accepted"] == (
            counters["completed"]
            + counters["rejected"]
            + counters["lost"]
            + counters["in_flight"]
        )
        injector = self._inner.fault_injector
        return {
            "clock": now,
            "counters": counters,
            "invariant": {"accepted = completed + rejected + lost + in_flight": holds},
            "admission": self.admission.status(),
            "breakers": self.health.status(now),
            "cutoffs": None
            if self.cutoff_manager is None
            else self.cutoff_manager.status(),
            "faults": None if injector is None else injector.schedule_status(),
            "jain_slowdown": self._jain_slowdown(now),
            "latency": self.latency_summary(),
            "fast_path": self.fast_path_status(),
        }

    def _jain_slowdown(self, now: float) -> float | None:
        """Jain's index of every completed slowdown, summed in
        submission order: the folded totals, then the unfolded rows.
        A sequential sum gives the same bits wherever the fold point
        is, so the event path reads its log as it stands (its eager
        folds bound it); the fast path folds first, which keeps the
        slowdowns pass to the retained window."""
        fp = self._fastpath
        if fp is not None:
            # No Job objects exist while engaged; the columnar records
            # yield the same (completion - arrival) / size slowdowns.
            self._fold()
            return fp.folded.jain(fp.slowdowns(now))
        inner = self._inner
        arrival, size, completion = inner.completed_columns(
            "arrival", "size", "completion"
        )
        # ``Job.slowdown``'s expression: response time over size.
        return inner.folded.jain((completion - arrival) / size)

    # ------------------------------------------------------------------
    # snapshots / resume
    # ------------------------------------------------------------------

    def _write_snapshot(self) -> None:
        assert self.snapshot_store is not None
        self.snapshot_store.save(
            {
                "accepted": self.n_accepted,
                "clock": self.now,
                "counters": self.counters(),
                "breakers": self.health.states(self.now),
                # Engagement is a pure function of the replayed stream,
                # so resume needs no fast-path state — recorded for
                # observability and post-crash debugging only.
                "fast_path": self._fastpath is not None,
            }
        )

    def _submit_many(self, t: np.ndarray, s: np.ndarray, batch_size: int) -> None:
        """Offer stream columns as :meth:`submit_batch` calls on
        consecutive ``batch_size`` slices would.  One check pass covers
        the whole stream: the batches before the first invalid job's go
        straight to :meth:`_offer`, and from that one on through
        :meth:`submit_batch`, which raises its own error."""
        if batch_size <= 1:
            for arrival, size in zip(map(float, t), map(float, s)):
                self.submit(size, arrival)
            return
        n = int(t.shape[0])
        t0 = time.perf_counter_ns()
        first_bad = min(_first_faults(t, s, self.now))
        self._latency.intake_ns += time.perf_counter_ns() - t0
        for i in range(0, n, batch_size):
            end = min(i + batch_size, n)
            if end <= first_bad:
                self._offer(t[i:end], s[i:end], s[i:end], time.perf_counter_ns())
            else:
                self.submit_batch(t[i:end], s[i:end])

    def run_stream(
        self,
        jobs: Iterable[tuple[float, float]],
        resume: bool = False,
        batch_size: int = 1,
    ) -> dict:
        """Drive a full ``(arrival, size)`` stream and drain.

        With ``resume=True`` and a valid snapshot, the recorded prefix is
        replayed first (snapshot writes suppressed) and the reconstructed
        counters are audited against the stored ones — a mismatch means
        the stream or the server is nondeterministic, and the resume
        refuses to continue.

        The stream is read once into arrival and size columns (intake
        time); the server's own state stays within its fixed window.
        ``batch_size > 1`` offers the columns in slices of that size,
        each as :meth:`submit_batch` would; the decisions and counters
        are identical for every batch size (asserted by the
        batch-invariance test), only the wall-clock throughput changes.
        The replay prefix is batched on its own, so a resumed run
        retraces the original snapshot cadence exactly.
        """
        t0 = time.perf_counter_ns()
        t, s = _stream_columns(jobs)
        n = int(t.shape[0])
        self._latency.intake_ns += time.perf_counter_ns() - t0
        start = 0
        if resume:
            if self.snapshot_store is None:
                raise ValueError("resume requires a snapshot store")
            doc = self.snapshot_store.load()
            if doc is not None:
                start = int(doc["accepted"])
                if start > n:
                    raise OnlineDispatchError(
                        f"snapshot records {start} offered jobs but the "
                        f"stream has only {n}"
                    )
                self._replaying = True
                try:
                    self._submit_many(t[:start], s[:start], batch_size)
                finally:
                    self._replaying = False
                got = self.counters()
                if got != doc["counters"]:
                    diff = {
                        k: (got.get(k), doc["counters"].get(k))
                        for k in sorted(set(got) | set(doc["counters"]))
                        if got.get(k) != doc["counters"].get(k)
                    }
                    raise OnlineDispatchError(
                        "resume audit failed: deterministic replay of "
                        f"{start} jobs disagrees with the snapshot on {diff}"
                    )
        self._submit_many(t[start:], s[start:], batch_size)
        del t, s  # freed before drain() and status() allocate their own
        self.drain()
        return self.status()
