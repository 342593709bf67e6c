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
  decision, so they advance ``V`` as they route — LWL through the
  :func:`~repro.sim.fast.serve_dispatch_batch` kernel, O(1) scalar
  updates per decision, batched over the intake.
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

Completed records stay in those columns.  Counters, the Jain index in
``status()`` and ``job_table()`` read them directly, so an engaged
server builds no :class:`~repro.sim.jobs.Job` object per job, not even
on drain.  A handover writes the completed records to the engine's
completion log as rows and builds ``Job`` objects only for the jobs
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

import numpy as np

from ..core.policies import (
    GroupedSITAPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SITAPolicy,
)
from ..sim.fast import fcfs_starts, serve_dispatch_batch
from ..sim.jobs import Job

__all__ = ["FastPathState", "SETTLE_EVERY", "fast_path_mode"]

#: Most fixed-host records left unsettled.  Large enough that the
#: per-host kernel calls amortise their fixed cost, small enough that
#: one settle stays a few milliseconds (a pause every client of a
#: socket server waits through) and its temporaries under 1 MiB.
SETTLE_EVERY = 16384


def fast_path_mode(policy) -> str | None:
    """The fast-path routing mode for ``policy``, or ``None``.

    ``"lwl"`` routes inside the kernel; ``"sita"`` maps the whole batch
    through the policy's cutoffs; ``"seq"`` (Random/Round-Robin) draws
    hosts one at a time in Python so the policy's RNG or rotation
    pointer advances exactly as on the engine path; ``"sita"`` and
    ``"seq"`` records settle in bulk later.  ``"sq"`` (Shortest-Queue)
    tracks per-host in-system counts with completion-time deques in
    Python.  Anything else — notably :class:`GroupedSITAPolicy`, whose
    spill rule reads the live-host mask — stays on the event path.
    """
    if isinstance(policy, GroupedSITAPolicy):
        return None
    if isinstance(policy, SITAPolicy):
        return "sita"
    if isinstance(policy, (RandomPolicy, RoundRobinPolicy)):
        return "seq"
    hint = getattr(policy, "fast_hint", None)
    if hint in ("lwl", "sq"):
        return hint
    return None


class FastPathState:
    """Columnar record of every decision made while the path is engaged.

    Record ``k`` is the ``k``-th *admitted* job (its engine-path
    ``Job.index``).  Only :meth:`hand_over` turns records into engine
    state: completion-log rows for the completed ones and real
    :class:`~repro.sim.jobs.Job` objects, with every field the event
    path would have set, for the rest.  In the fixed-host
    modes the start and completion columns and ``v`` hold only the
    first ``_settled`` records; :meth:`settle` brings them up to ``m``,
    and every reader of them calls it first.
    """

    def __init__(self, n_hosts: int, host_speeds, mode: str, policy) -> None:
        if mode not in ("lwl", "sita", "seq", "sq"):
            raise ValueError(f"unknown fast-path mode {mode!r}")
        self.mode = mode
        self.policy = policy
        self.n_hosts = int(n_hosts)
        self.speeds = np.ascontiguousarray(host_speeds, dtype=np.float64)
        self._speeds_list = self.speeds.tolist()
        #: per-host virtual completion times (the whole host state).
        self.v = np.zeros(self.n_hosts, dtype=np.float64)
        cap = 1024
        self._arrival = np.empty(cap, dtype=np.float64)
        self._size = np.empty(cap, dtype=np.float64)
        self._est = np.empty(cap, dtype=np.float64)
        self._host = np.empty(cap, dtype=np.int64)
        self._start = np.empty(cap, dtype=np.float64)
        self._comp = np.empty(cap, dtype=np.float64)
        #: records routed so far (== next engine Job.index).
        self.m = 0
        #: records whose start and completion (and share of ``v``) are
        #: filled in; below ``m`` only in the fixed-host modes.
        self._settled = 0
        self._defers = mode in ("sita", "seq")
        #: "sq" only: per-host completion epochs of in-system jobs.
        self._in_system = (
            [deque() for _ in range(self.n_hosts)] if mode == "sq" else None
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def reserve(self, need: int) -> None:
        """Make room for ``need`` records: double the columns, or grow
        them to exactly ``need`` when that is more (a caller that knows
        its stream's length reserves it once, with no copies after)."""
        cap = self._arrival.shape[0]
        if need <= cap:
            return
        cap = max(need, 2 * cap)
        for name in ("_arrival", "_size", "_est", "_host", "_start", "_comp"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self.m] = old[: self.m]
            setattr(self, name, new)

    def route_one(self, t: float, s: float, est: float) -> int:
        """Route a single admitted job; returns the chosen host."""
        m = self.m
        self.reserve(m + 1)
        mode = self.mode
        v = self.v
        if mode == "lwl":
            best = 0
            best_key = v[0] - t
            if best_key < 0.0:
                best_key = 0.0
            for i in range(1, self.n_hosts):
                key = v[i] - t
                if key < 0.0:
                    key = 0.0
                if key < best_key:
                    best = i
                    best_key = key
            best = int(best)
        elif mode == "sita":
            # The policy's own expression, on its *current* cutoffs —
            # degraded-mode re-fit may retune them between any two jobs.
            best = int(
                np.searchsorted(self.policy.cutoffs, est, side="left")
            )
        elif mode == "seq":
            # Random/Round-Robin ignore both arguments; calling through
            # the policy keeps its RNG / rotation pointer exact.
            best = int(self.policy.choose_host(None, None))
        else:  # sq
            best = 0
            best_len = -1
            for i in range(self.n_hosts):
                qi = self._in_system[i]
                while qi and qi[0] <= t:
                    qi.popleft()
                li = len(qi)
                if best_len < 0 or li < best_len:
                    best = i
                    best_len = li
        self._arrival[m] = t
        self._size[m] = s
        self._est[m] = est
        self._host[m] = best
        self.m = m + 1
        if self._defers:
            if self.m - self._settled >= SETTLE_EVERY:
                self.settle()
            return best
        vb = float(v[best])
        start = t if vb < t else vb
        comp = start + s / self._speeds_list[best]
        v[best] = comp
        self._start[m] = start
        self._comp[m] = comp
        if mode == "sq":
            self._in_system[best].append(comp)
        self._settled = m + 1
        return best

    def route_batch(
        self, t: np.ndarray, s: np.ndarray, est: np.ndarray
    ) -> np.ndarray:
        """Route a whole admitted batch; returns the chosen hosts."""
        n = t.shape[0]
        a = self.m
        self.reserve(a + n)
        if self.mode == "sq":
            # In-system counts change job by job; stays in Python.
            t_l, s_l, e_l = t.tolist(), s.tolist(), est.tolist()
            for j in range(n):
                self.route_one(t_l[j], s_l[j], e_l[j])
            return self._host[a : a + n]
        end = a + n
        self._arrival[a:end] = t
        self._size[a:end] = s
        self._est[a:end] = est
        hosts = self._host[a:end]
        if self.mode == "lwl":
            starts = self._start[a:end]
            serve_dispatch_batch(t, s, self.speeds, self.v, hosts, starts)
            # Same elementwise float ops as the scalar path: start + s/speed.
            self._comp[a:end] = starts + s / self.speeds[hosts]
            self.m = self._settled = end
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
        a, m = self._settled, self.m
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
        self._settled = m

    # ------------------------------------------------------------------
    # lazy accounting
    # ------------------------------------------------------------------

    def completed_count(self, now: float) -> int:
        """Records whose completion epoch has been reached by ``now``."""
        self.settle()
        m = self.m
        if m == 0:
            return 0
        return int(np.count_nonzero(self._comp[:m] <= now))

    def slowdowns(self, now: float) -> np.ndarray | None:
        """Per-job slowdowns of completed records, in submission order.

        ``(completion - arrival) / size`` — exactly
        :attr:`Job.slowdown <repro.sim.jobs.Job.slowdown>`.
        """
        self.settle()
        m = self.m
        if m == 0:
            return None
        c, a, s = self._comp[:m], self._arrival[:m], self._size[:m]
        done = c <= now
        if not done.all():
            if not done.any():
                return None
            c, a, s = c[done], a[done], s[done]
        return (c - a) / s

    def max_completion(self) -> float:
        """Latest completion epoch on record (0.0 with no records)."""
        self.settle()
        return float(self.v.max()) if self.m else 0.0

    def host_seq(self) -> np.ndarray:
        """Each record's FCFS submission rank on its host.

        The stamp the engine path sets as ``Job.host_seq`` (the host's
        running submission count): a stable sort by host, minus the
        offset of each host's first record.
        """
        m = self.m
        hosts = self._host[:m]
        order = np.argsort(hosts, kind="stable")
        first = np.zeros(self.n_hosts, dtype=np.int64)
        np.cumsum(np.bincount(hosts, minlength=self.n_hosts)[:-1], out=first[1:])
        seq = np.empty(m, dtype=np.int64)
        seq[order] = np.arange(m, dtype=np.int64) - first[hosts[order]]
        return seq

    def _make_job(self, k: int, hseq: int) -> Job:
        h = int(self._host[k])
        job = Job(
            index=k,
            arrival_time=float(self._arrival[k]),
            size=float(self._size[k]),
            size_estimate=float(self._est[k]),
        )
        job.assigned_host = h
        job.host_seq = hseq
        return job

    def materialize_completed(self, inner, now: float) -> None:
        """Write every record completed by ``now`` to ``inner``'s
        completion log, in bulk and without building a ``Job``.

        Rows go in completion order (ties by submission, the calendar's
        tie-break) with the fields the event path records when a job
        completes; the busy time is ``size / speed``, which is ``size``
        itself on a unit-speed host.  Only :meth:`hand_over` calls
        this, once: an engaged server keeps its completed records
        columnar.
        """
        self.settle()
        m = self.m
        sel = np.flatnonzero(self._comp[:m] <= now)
        if not sel.size:
            return
        order = sel[np.argsort(self._comp[sel], kind="stable")]
        hosts = self._host[order]
        sizes = self._size[order]
        inner.record_completions(
            index=order,
            arrival=self._arrival[order],
            size=sizes,
            host=hosts,
            host_seq=self.host_seq()[order],
            start=self._start[order],
            completion=self._comp[order],
            busy=sizes / self.speeds[hosts],
            wasted=np.zeros(order.size),
        )

    # ------------------------------------------------------------------
    # handover to the event path
    # ------------------------------------------------------------------

    def hand_over(self, inner, now: float) -> None:
        """Reconstruct the exact event-engine state at instant ``now``.

        Completed records become completion-log rows; per host, the
        first still-pending record (which provably began service at
        ``start <= now``) becomes the running job with its completion
        event re-scheduled at the recorded epoch, and the rest re-enter
        the FCFS queue in submission order.  Host accounting
        (``busy_time``, ``jobs_completed``, ``_submit_seq``,
        ``_virtual_completion``) and the server's ``_n_arrived`` are
        rebuilt to the values the event path would hold, so the strict
        invariant sweep and any later crash/drain behave identically.
        The caller discards this object afterwards — the fast path is
        one-way.
        """
        self.settle()
        self.materialize_completed(inner, now)
        m = self.m
        pend = np.flatnonzero(self._comp[:m] > now)
        pend_set = set(pend.tolist())
        n_hosts = self.n_hosts
        by_host: list[list[int]] = [[] for _ in range(n_hosts)]
        for k in pend.tolist():
            by_host[int(self._host[k])].append(k)
        host_col = self._host[:m].tolist()
        size_col = self._size[:m].tolist()
        sp = self._speeds_list
        busy = [0.0] * n_hosts
        done_count = [0] * n_hosts
        total = [0] * n_hosts
        for k in range(m):
            h = host_col[k]
            total[h] += 1
            if k not in pend_set:
                # The engine adds one `size/speed` service term per
                # completion, in completion order == per-host
                # submission order: identical float accumulation.
                busy[h] += size_col[k] / sp[h]
                done_count[h] += 1
        sim = inner.sim
        hseq = self.host_seq().tolist()
        for i, host in enumerate(inner.hosts):
            host._virtual_completion = float(self.v[i])
            host._submit_seq = total[i]
            host.jobs_completed = done_count[i]
            host.busy_time = busy[i]
            running_set = False
            for k in by_host[i]:
                job = self._make_job(k, hseq[k])
                start = float(self._start[k])
                if not running_set and start <= now:
                    job.start_time = start
                    host.running = job
                    host._running_done = 0.0
                    host._leg_start = start
                    leg = float(self._size[k]) / sp[i]
                    host._finish_handle = sim.schedule(
                        float(self._comp[k]), host._finish, job, leg
                    )
                    running_set = True
                else:
                    host.queue.append(job)
        inner._n_arrived = m
