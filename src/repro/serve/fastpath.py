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
completion) and the per-host state advances through the
:func:`~repro.sim.fast.serve_dispatch_batch` kernel — O(1) scalar
updates per decision, batched over the intake — while the embedded
engine's calendar stays empty (advancing its clock over an empty
calendar is O(1)).  Every float expression replicates the engine path
op for op, so starts, completions, waits and host picks are
**bit-identical** to the event path; the hypothesis suite in
``tests/serve/test_fastpath.py`` asserts this.

Completed records stay in those columns.  Counters, the Jain index in
``status()`` and ``job_table()`` read them directly, so an engaged
server builds no :class:`~repro.sim.jobs.Job` object per job, not even
on drain.  Only a handover materialises them.

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
from ..sim.fast import SERVE_DISPATCH_MODES, serve_dispatch_batch
from ..sim.jobs import Job

__all__ = ["FastPathState", "fast_path_mode"]


def fast_path_mode(policy) -> str | None:
    """The fast-path routing mode for ``policy``, or ``None``.

    ``"lwl"`` and ``"sita"`` route inside the kernel; ``"seq"``
    (Random/Round-Robin) draws hosts one at a time in Python so the
    policy's RNG or rotation pointer advances exactly as on the engine
    path, then commits through the kernel; ``"sq"`` (Shortest-Queue)
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
    ``Job.index``).  Records are turned into real
    :class:`~repro.sim.jobs.Job` objects, with every field the event
    path would have set, only by :meth:`hand_over`.
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
        #: "sq" only: per-host completion epochs of in-system jobs.
        self._in_system = (
            [deque() for _ in range(self.n_hosts)] if mode == "sq" else None
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _ensure(self, need: int) -> None:
        cap = self._arrival.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        m = self.m
        for name in ("_arrival", "_size", "_est", "_start", "_comp"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=np.float64)
            new[:m] = old[:m]
            setattr(self, name, new)
        old_h = self._host
        new_h = np.empty(cap, dtype=np.int64)
        new_h[:m] = old_h[:m]
        self._host = new_h

    def route_one(self, t: float, s: float, est: float) -> int:
        """Route a single admitted job; returns the chosen host."""
        m = self.m
        self._ensure(m + 1)
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
        vb = float(v[best])
        start = t if vb < t else vb
        comp = start + s / self._speeds_list[best]
        v[best] = comp
        self._arrival[m] = t
        self._size[m] = s
        self._est[m] = est
        self._host[m] = best
        self._start[m] = start
        self._comp[m] = comp
        if mode == "sq":
            self._in_system[best].append(comp)
        self.m = m + 1
        return best

    def route_batch(
        self, t: np.ndarray, s: np.ndarray, est: np.ndarray
    ) -> np.ndarray:
        """Route a whole admitted batch; returns the chosen hosts."""
        n = t.shape[0]
        a = self.m
        self._ensure(a + n)
        if self.mode == "sq":
            # In-system counts change job by job; stays in Python.
            t_l, s_l, e_l = t.tolist(), s.tolist(), est.tolist()
            for j in range(n):
                self.route_one(t_l[j], s_l[j], e_l[j])
            return self._host[a : a + n]
        self._arrival[a : a + n] = t
        self._size[a : a + n] = s
        self._est[a : a + n] = est
        hosts = self._host[a : a + n]
        starts = self._start[a : a + n]
        if self.mode == "seq":
            ch = self.policy.choose_host
            hosts[:] = [ch(None, None) for _ in range(n)]
            mode_id = SERVE_DISPATCH_MODES["fixed"]
        elif self.mode == "sita":
            # The policy's own expression, as on the scalar path, so a
            # NaN estimate lands where ``choose_host`` sends it.
            hosts[:] = np.searchsorted(self.policy.cutoffs, est, side="left")
            mode_id = SERVE_DISPATCH_MODES["fixed"]
        else:
            mode_id = SERVE_DISPATCH_MODES["lwl"]
        serve_dispatch_batch(t, s, self.speeds, self.v, hosts, starts, mode_id)
        # Same elementwise float ops as the scalar path: start + s/speed.
        self._comp[a : a + n] = starts + s / self.speeds[hosts]
        self.m = a + n
        return hosts

    # ------------------------------------------------------------------
    # lazy accounting
    # ------------------------------------------------------------------

    def completed_count(self, now: float) -> int:
        """Records whose completion epoch has been reached by ``now``."""
        m = self.m
        if m == 0:
            return 0
        return int(np.count_nonzero(self._comp[:m] <= now))

    def slowdowns(self, now: float) -> np.ndarray | None:
        """Per-job slowdowns of completed records, in completion order.

        ``(completion - arrival) / size`` — exactly
        :attr:`Job.slowdown <repro.sim.jobs.Job.slowdown>`; completion
        ties keep submission order (stable sort), matching the event
        calendar's insertion-order tie-break.
        """
        m = self.m
        if m == 0:
            return None
        mask = self._comp[:m] <= now
        if not mask.any():
            return None
        c = self._comp[:m][mask]
        a = self._arrival[:m][mask]
        s = self._size[:m][mask]
        order = np.argsort(c, kind="stable")
        return (c[order] - a[order]) / s[order]

    def max_completion(self) -> float:
        """Latest completion epoch on record (0.0 with no records)."""
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
        """Turn every record completed by ``now`` into a real ``Job``.

        Jobs are appended to ``inner._completed`` in completion order
        (ties by submission, the calendar's tie-break) with every field
        the event path sets at ``_finish``.  Only :meth:`hand_over`
        calls this, once: an engaged server keeps its completed records
        columnar.
        """
        m = self.m
        sel = np.flatnonzero(self._comp[:m] <= now)
        if not sel.size:
            return
        order = sel[np.argsort(self._comp[sel], kind="stable")]
        hseq = self.host_seq().tolist()
        completed = inner._completed
        sp = self._speeds_list
        for k in order.tolist():
            h = int(self._host[k])
            job = self._make_job(k, hseq[k])
            job.start_time = float(self._start[k])
            job.completion_time = float(self._comp[k])
            if sp[h] != 1.0:
                job.processing_time = float(self._size[k]) / sp[h]
            completed.append(job)

    # ------------------------------------------------------------------
    # handover to the event path
    # ------------------------------------------------------------------

    def hand_over(self, inner, now: float) -> None:
        """Reconstruct the exact event-engine state at instant ``now``.

        Completed records become ``_completed`` Jobs; per host, the
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
