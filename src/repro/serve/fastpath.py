"""The fault-free dispatch fast path: columnar host state, no events.

When a :class:`~repro.serve.server.DispatchServer` has no fault model
and every circuit breaker is pristine, nothing nondeterministic can
happen between arrivals: no crash, no repair, no retry timer, and every
heartbeat probe is a success that cannot change any breaker's routing
state.  The event engine then degenerates to bookkeeping — each arrival
schedules exactly one event chain whose timing is a closed-form
function of the per-host *virtual completion time* ``V`` (``start =
max(V, t)``, ``V' = start + size/speed``; see
:mod:`repro.sim.host`).

:class:`FastPathState` exploits that: admitted jobs are appended to
columnar record arrays (arrival, size, estimate, host, start,
completion) while the embedded engine's calendar stays empty
(advancing its clock over an empty calendar is O(1)).  How the timing
columns are filled depends on whether the host choice reads ``V``:

* Least-Work-Left and Shortest-Queue read the host state for every
  decision, so they advance ``V`` as they route, one call per batch (or
  scalar submit) to the loop of the kernels ``simulate_fast`` runs,
  :func:`~repro.sim.fast.least_work_dispatch` and
  :func:`~repro.sim.fast.shortest_queue_dispatch`, on plain lists and
  resumed from the live state.
* SITA, Random and Round-Robin pick a host from the job (or the
  policy's own RNG / rotation) alone.  Routing only records the choice;
  :meth:`FastPathState.settle` later fills the start and completion
  columns and ``V`` in bulk, one exact
  :func:`~repro.sim.fast.fcfs_starts` call per host over the unsettled
  records.  It runs every :data:`SETTLE_EVERY` records and before
  anything reads those columns or ``V`` (counters, slowdowns, drain,
  the job table, handover).

Every float expression replicates the engine path op for op, so
starts, completions, waits and host picks are **bit-identical** to the
event path, whenever and however often the settle runs; the hypothesis
suite in ``tests/serve/test_fastpath.py`` asserts this.

The columns hold a fixed window of records, not the whole stream.
Records below the *fold point* ``F = min(m - retain, first record not
yet complete)`` are folded into running totals
(:class:`~repro.sim.server.FoldedJobs` plus per-host completion counts
and busy time) and their rows are reused: when the columns fill, the
live tail ``[F, m)`` is copied to the front, and they grow only while
that tail exceeds half of them.  The event path folds its completion
log by the same rule, so both paths hold the same rows at every read.
Counters, the Jain index in ``status()`` and ``job_table()`` read the
totals and the window, so an engaged server builds no
:class:`~repro.sim.jobs.Job` object per job, not even on drain.  A
handover writes the window's completed records to the engine's
completion log as rows, seeds the engine's totals and host accounting
from the folded ones, and builds ``Job`` objects only for the jobs
still in flight.

The fast path is *exact* but *narrow*.  It refuses to engage (or hands
over, see below) whenever anything it cannot model appears:

* a fault model (crash/repair events interleave with the stream);
* a policy outside Least-Work-Left / Shortest-Queue / SITA / Random /
  Round-Robin (e.g. :class:`~repro.core.policies.GroupedSITAPolicy`'s
  group-wise spill reads live-host state);
* any breaker failure evidence at all
  (:meth:`~repro.serve.health.HealthMonitor.pristine` turns false) —
  from that instant breaker timing interacts with heartbeats, so
  :meth:`FastPathState.hand_over` reconstructs the exact engine state
  (host queues, the in-service job and its completion event, FCFS
  sequence stamps, busy-time accounting, the heartbeat chain) at the
  current instant and the server continues on the event path.

One observable difference is accepted and documented: heartbeats are
suspended while engaged, so breaker *success-observation counts* (the
``observations.ok`` field of ``status()["breakers"]``) stay at zero —
they are observability, not routing state, and cannot influence any
decision while every breaker is pristine.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import numpy as np

from ..core.policies import (
    GroupedSITAPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SITAPolicy,
)
from ..sim.fast import _least_work_loop, _shortest_queue_loop, fcfs_starts
from ..sim.jobs import Job
from ..sim.server import FoldedJobs, seq_sum

__all__ = ["FastPathState", "SETTLE_EVERY", "fast_path_mode"]

#: Most fixed-host records left unsettled.  Large enough that the
#: per-host kernel calls amortise their fixed cost, small enough that
#: one settle stays a few milliseconds (a pause every client of a
#: socket server waits through) and its temporaries under 1 MiB.
SETTLE_EVERY = 16384


def fast_path_mode(policy) -> str | None:
    """The fast-path routing mode for ``policy``, or ``None``.

    ``"lwl"`` and ``"sq"`` (Shortest-Queue) route inside their dispatch
    kernels; ``"sita"`` maps the whole batch through the policy's
    cutoffs; ``"seq"`` (Random/Round-Robin) draws hosts one at a time
    in Python so the policy's RNG or rotation pointer advances exactly
    as on the engine path; ``"sita"`` and ``"seq"`` records settle in
    bulk later.  Anything else — notably :class:`GroupedSITAPolicy`, whose
    spill rule reads the live-host mask — stays on the event path.
    """
    if isinstance(policy, GroupedSITAPolicy):
        return None
    if isinstance(policy, SITAPolicy):
        return "sita"
    if isinstance(policy, (RandomPolicy, RoundRobinPolicy)):
        return "seq"
    hint = getattr(policy, "fast_hint", None)
    return hint if hint in ("lwl", "sq") else None


class FastPathState:
    """Columnar record of the decisions made while the path is engaged.

    Record ``k`` is the ``k``-th *admitted* job (its engine-path
    ``Job.index``) and sits in column row ``k - base``.  The columns
    hold records ``[base, m)``; those below ``folded.at`` are folded
    (see the module docstring) and only await reuse.  ``retain=None``
    folds nothing and keeps every record.  ``sim`` is the embedded
    engine, whose clock an eager fold reads when the columns fill;
    without it the columns just grow.  Only :meth:`hand_over` turns
    records into engine state: completion-log rows for the completed
    ones and real :class:`~repro.sim.jobs.Job` objects, with every field
    the event path would have set, for the rest.  In the fixed-host
    modes the start and completion columns and ``v`` hold only the
    records below ``_settled``; :meth:`settle` brings them up to ``m``,
    and every reader of them calls it first.
    """

    def __init__(
        self, n_hosts: int, host_speeds, mode: str, policy, retain=None, sim=None
    ) -> None:
        if mode not in ("lwl", "sita", "seq", "sq"):
            raise ValueError(f"unknown fast-path mode {mode!r}")
        self.mode = mode
        self.policy = policy
        self.n_hosts = int(n_hosts)
        self.speeds = np.ascontiguousarray(host_speeds, dtype=np.float64)
        self._speeds_list = self.speeds.tolist()
        self.retain = retain
        self._sim = sim
        #: per-host virtual completion times (the whole host state).
        self.v = [0.0] * self.n_hosts
        cap = 1024
        self._arrival = np.empty(cap, dtype=np.float64)
        self._size = np.empty(cap, dtype=np.float64)
        self._est = np.empty(cap, dtype=np.float64)
        self._host = np.empty(cap, dtype=np.int64)
        self._start = np.empty(cap, dtype=np.float64)
        self._comp = np.empty(cap, dtype=np.float64)
        #: the record in column row 0.
        self.base = 0
        #: records routed so far (== next engine Job.index).
        self.m = 0
        #: records whose start and completion (and share of ``v``) are
        #: filled in; below ``m`` only in the fixed-host modes.
        self._settled = 0
        #: "lwl" and "sq": the dispatch kernel's loop over plain lists
        #: ``(t, s)``, resuming from ``v`` (and, for "sq", per-host
        #: completion epochs); the fixed-host modes ("sita", "seq") have
        #: none and settle later.
        self._dispatch = None
        if mode == "lwl":
            self._dispatch = partial(_least_work_loop, sp=self._speeds_list, v=self.v)
        elif mode == "sq":
            self._dispatch = partial(
                _shortest_queue_loop, sp=self._speeds_list, v=self.v,
                in_system=[deque() for _ in range(self.n_hosts)],
            )
        #: totals of the records below ``folded.at`` (all completed),
        #: with their count and busy time per host.
        self.folded = FoldedJobs()
        self._host_folded = [0] * self.n_hosts
        self._busy_folded = [0.0] * self.n_hosts

    _COLUMNS = ("_arrival", "_size", "_est", "_host", "_start", "_comp")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def reserve(self, need: int) -> None:
        """Make room for ``need`` more records.

        When the columns are full, fold up to the engine's clock and
        copy the live tail ``[folded.at, m)`` to the front; the columns
        double (or grow to fit) only while that tail would fill more
        than half of them, so each record is copied O(1) times.
        """
        cap = self._arrival.shape[0]
        if self.m - self.base + need <= cap:
            return
        if self._sim is not None:
            self.fold(self._sim.now)
        lo = self.folded.at
        live = self.m - lo
        if live + need > cap // 2:
            cap = max(live + need, 2 * cap)
        a, b = lo - self.base, self.m - self.base
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = old if old.shape[0] == cap else np.empty(cap, dtype=old.dtype)
            new[:live] = old[a:b]
            setattr(self, name, new)
        self.base = lo

    def route_one(self, t: float, s: float, est: float) -> int:
        """Route a single admitted job; returns the chosen host."""
        self.reserve(1)
        mode = self.mode
        if mode == "sita":
            # The policy's own expression, on its *current* cutoffs —
            # degraded-mode re-fit may retune them between any two jobs.
            best = int(np.searchsorted(self.policy.cutoffs, est, side="left"))
        elif mode == "seq":
            # Random/Round-Robin ignore both arguments; calling through
            # the policy keeps its RNG / rotation pointer exact.
            best = int(self.policy.choose_host(None, None))
        else:
            hosts, starts = self._dispatch([t], [s])
            best, start = hosts[0], starts[0]
        r = self.m - self.base
        self._arrival[r] = t
        self._size[r] = s
        self._est[r] = est
        self._host[r] = best
        self.m += 1
        if self._dispatch is None:
            if self.m - self._settled >= SETTLE_EVERY:
                self.settle()
        else:
            self._start[r] = start
            self._comp[r] = start + s / self._speeds_list[best]
            self._settled = self.m
        return best

    def route_batch(
        self, t: np.ndarray, s: np.ndarray, est: np.ndarray
    ) -> np.ndarray:
        """Route a whole admitted batch; returns the chosen hosts (a view
        of the host column, valid until the next routing call)."""
        n = t.shape[0]
        self.reserve(n)
        a = self.m - self.base
        end = a + n
        self._arrival[a:end] = t
        self._size[a:end] = s
        self._est[a:end] = est
        hosts = self._host[a:end]
        if self._dispatch is not None:
            routed, starts = self._dispatch(t.tolist(), s.tolist())
            hosts[:] = routed
            self._start[a:end] = starts
            # The engine's completion, start + size/speed, elementwise.
            self._comp[a:end] = self._start[a:end] + s / self.speeds[hosts]
            self.m = self._settled = self.m + n
            return hosts
        if self.mode == "seq":
            ch = self.policy.choose_host
            hosts[:] = [ch(None, None) for _ in range(n)]
        else:
            # The policy's own expression, as on the scalar path, so a
            # NaN estimate lands where ``choose_host`` sends it.
            hosts[:] = np.searchsorted(self.policy.cutoffs, est, side="left")
        # Take the records on one settle window at a time, so no more
        # than SETTLE_EVERY are ever unsettled.
        end = self.m + n
        while end - self._settled >= SETTLE_EVERY:
            self.m = self._settled + SETTLE_EVERY
            self.settle()
        self.m = end
        return hosts

    @property
    def unsettled(self) -> int:
        """Records routed but not yet settled (always 0 for LWL/SQ)."""
        return self.m - self._settled

    def settle(self) -> None:
        """Fill the start/completion columns and ``v`` up to record ``m``.

        The fixed-host modes record only the host choice; their timing
        is each host's FCFS recursion over its records in submission
        order, which :func:`~repro.sim.fast.fcfs_starts` evaluates
        exactly, resuming from the host's ``v``.  Durations are
        ``size / speed`` and completions ``start + duration`` — the
        engine's own float expressions.
        """
        a, m = self._settled - self.base, self.m - self.base
        if a == m:
            return
        hosts = self._host[a:m]
        sp = self._speeds_list
        v = self.v
        for i in range(self.n_hosts):
            idx = np.flatnonzero(hosts == i)
            if not idx.size:
                continue
            idx += a
            dur = self._size[idx] / sp[i]
            starts, v_end = fcfs_starts(self._arrival[idx], dur, float(v[i]))
            self._start[idx] = starts
            self._comp[idx] = starts + dur
            v[i] = v_end
        self._settled = self.m

    # ------------------------------------------------------------------
    # folding and lazy accounting
    # ------------------------------------------------------------------

    def _window(self, *names: str) -> list[np.ndarray]:
        """Views of columns ``names`` over the unfolded records."""
        a, b = self.folded.at - self.base, self.m - self.base
        return [getattr(self, name)[a:b] for name in names]

    def fold(self, now: float) -> None:
        """Fold the records below the fold point at ``now``.

        ``F = min(m - retain, first record whose completion is after
        now)``; the records between the old fold point and ``F`` are
        complete, and their slowdowns, per-host counts and per-host
        busy times (``size / speed``, the engine's service term) are
        added in submission order.  Nothing moves in the columns.
        """
        if self.retain is None:
            return
        folded = self.folded
        limit = self.m - self.retain
        if limit <= folded.at:
            return
        if limit > self._settled:
            self.settle()
        a, b = folded.at - self.base, limit - self.base
        late = self._comp[a:b] > now
        at = folded.at + (int(late.argmax()) if late.any() else b - a)
        if at == folded.at:
            return
        b = at - self.base
        arrival, size = self._arrival[a:b], self._size[a:b]
        comp, hosts = self._comp[a:b], self._host[a:b]
        folded.add((comp - arrival) / size)
        for i in range(self.n_hosts):
            mine = hosts == i
            self._host_folded[i] += int(np.count_nonzero(mine))
            self._busy_folded[i] = seq_sum(
                self._busy_folded[i], size[mine] / self._speeds_list[i]
            )
        folded.at = at

    def completed_count(self, now: float) -> int:
        """Records whose completion epoch has been reached by ``now``."""
        self.settle()
        (comp,) = self._window("_comp")
        return self.folded.completed + int(np.count_nonzero(comp <= now))

    def slowdowns(self, now: float) -> np.ndarray:
        """Slowdowns of the unfolded records completed by ``now``, in
        submission order: ``(completion - arrival) / size``, exactly
        :attr:`Job.slowdown <repro.sim.jobs.Job.slowdown>`.  The folded
        ones are in ``folded``'s totals; fold first for the window the
        job table shows."""
        self.settle()
        c, a, s = self._window("_comp", "_arrival", "_size")
        done = c <= now
        if not done.all():
            c, a, s = c[done], a[done], s[done]
        return (c - a) / s

    def max_completion(self) -> float:
        """Latest completion epoch on record (0.0 with no records)."""
        self.settle()
        return max(self.v) if self.m else 0.0

    def host_seq(self) -> np.ndarray:
        """Each unfolded record's FCFS submission rank on its host.

        The stamp the engine path sets as ``Job.host_seq`` (the host's
        running submission count): the host's folded records, plus the
        record's rank among the window's records on that host (a stable
        sort by host, minus the offset of each host's first record).
        """
        (hosts,) = self._window("_host")
        w = hosts.shape[0]
        order = np.argsort(hosts, kind="stable")
        first = np.zeros(self.n_hosts, dtype=np.int64)
        np.cumsum(np.bincount(hosts, minlength=self.n_hosts)[:-1], out=first[1:])
        first -= np.asarray(self._host_folded, dtype=np.int64)
        seq = np.empty(w, dtype=np.int64)
        seq[order] = np.arange(w, dtype=np.int64) - first[hosts[order]]
        return seq

    def job_table(self, now: float) -> dict[str, np.ndarray]:
        """The unfolded records completed by ``now``, in submission
        order, as the server's job-table columns; fold first."""
        self.settle()
        arrival, size, hosts, start, comp = self._window(
            "_arrival", "_size", "_host", "_start", "_comp"
        )
        done = comp <= now
        return {
            "index": np.arange(self.folded.at, self.m, dtype=np.int64)[done],
            "arrival": arrival[done],
            "size": size[done],
            "host": hosts[done],
            "host_seq": self.host_seq()[done],
            "start": start[done],
            "completion": comp[done],
        }

    def _make_job(self, k: int, hseq: int) -> Job:
        r = k - self.base
        job = Job(
            index=k,
            arrival_time=float(self._arrival[r]),
            size=float(self._size[r]),
            size_estimate=float(self._est[r]),
        )
        job.assigned_host = int(self._host[r])
        job.host_seq = hseq
        return job

    def materialize_completed(self, inner, now: float) -> None:
        """Write the unfolded records completed by ``now`` to ``inner``'s
        completion log, in bulk and without building a ``Job``.

        Rows go in completion order (ties by submission, the calendar's
        tie-break) with the fields the event path records when a job
        completes; the busy time is ``size / speed``, which is ``size``
        itself on a unit-speed host.  Only :meth:`hand_over` calls
        this, once: an engaged server keeps its completed records
        columnar.
        """
        self.settle()
        arrival, size, hosts, start, comp = self._window(
            "_arrival", "_size", "_host", "_start", "_comp"
        )
        sel = np.flatnonzero(comp <= now)
        if not sel.size:
            return
        order = sel[np.argsort(comp[sel], kind="stable")]
        sizes = size[order]
        inner.record_completions(
            index=order + self.folded.at,
            arrival=arrival[order],
            size=sizes,
            host=hosts[order],
            host_seq=self.host_seq()[order],
            start=start[order],
            completion=comp[order],
            busy=sizes / self.speeds[hosts[order]],
            wasted=np.zeros(order.size),
        )

    # ------------------------------------------------------------------
    # handover to the event path
    # ------------------------------------------------------------------

    def hand_over(self, inner, now: float) -> None:
        """Reconstruct the exact event-engine state at instant ``now``.

        The folded totals move to ``inner.folded`` and the window's
        completed records become completion-log rows; per host, the
        first still-pending record (which provably began service at
        ``start <= now``) becomes the running job with its completion
        event re-scheduled at the recorded epoch, and the rest re-enter
        the FCFS queue in submission order.  Host accounting
        (``busy_time``, ``jobs_completed``, ``_submit_seq``,
        ``_virtual_completion``) starts from the folded per-host totals
        and adds the window's records, and the server's ``_n_arrived``
        is set, to the values the event path would hold, so the strict
        invariant sweep and any later crash/drain behave identically.
        The caller discards this object afterwards — the fast path is
        one-way.
        """
        self.fold(now)
        self.materialize_completed(inner, now)
        inner.folded = self.folded
        lo, m = self.folded.at, self.m
        hosts, sizes, starts, comps = (
            col.tolist() for col in self._window("_host", "_size", "_start", "_comp")
        )
        sp = self._speeds_list
        busy = list(self._busy_folded)
        done_count = list(self._host_folded)
        total = list(self._host_folded)
        by_host: list[list[int]] = [[] for _ in range(self.n_hosts)]
        for r in range(m - lo):
            h = hosts[r]
            total[h] += 1
            if comps[r] > now:
                by_host[h].append(r)
            else:
                # The engine adds one `size/speed` service term per
                # completion, in completion order == per-host
                # submission order: identical float accumulation.
                busy[h] += sizes[r] / sp[h]
                done_count[h] += 1
        sim = inner.sim
        hseq = self.host_seq().tolist()
        for i, host in enumerate(inner.hosts):
            host._virtual_completion = self.v[i]
            host._submit_seq = total[i]
            host.jobs_completed = done_count[i]
            host.busy_time = busy[i]
            running_set = False
            for r in by_host[i]:
                job = self._make_job(lo + r, hseq[r])
                if not running_set and starts[r] <= now:
                    job.start_time = starts[r]
                    host.running = job
                    host._running_done = 0.0
                    host._leg_start = starts[r]
                    leg = sizes[r] / sp[i]
                    host._finish_handle = sim.schedule(
                        comps[r], host._finish, job, leg
                    )
                    running_set = True
                else:
                    host.queue.append(job)
        inner._n_arrived = m
