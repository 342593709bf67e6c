"""FCFS run-to-completion host machines.

The paper's architectural model (section 1.1): each host machine runs the
jobs dispatched to it in first-come-first-served order, exactly one job at
a time, with no preemption and no time-sharing.  A host therefore has a
single scalar of hidden state — the *virtual completion time* ``V``: the
instant it will go idle if nothing else arrives.  Remaining work at time
``t`` is ``max(0, V − t)``, which is what the Least-Work-Left dispatcher
inspects.

Hosts optionally enforce a processing *limit* (kill the running job after
``limit`` seconds of service).  The base model never uses this; the TAGS
extension (task assignment by guessing size, the paper's ref [10]) kills
jobs that exceed a host's size cutoff and restarts them from scratch on
the next host.

Hosts can also *crash* and be *repaired* (fault injection, see
:mod:`repro.sim.faults`): :meth:`FCFSHost.crash` takes the host down,
cancelling the in-flight completion event and either keeping the running
job's progress for a later resume or surrendering it (and the queue) to
the server, and :meth:`FCFSHost.repair` brings it back, restarting
service from the retained progress.  The failure *semantics* — lost,
re-dispatch or resume — live in the server; the host only implements the
mechanics.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from .engine import Simulator
from .events import Event
from .jobs import Job

__all__ = ["FCFSHost"]


class FCFSHost:
    """One FCFS run-to-completion host attached to a :class:`Simulator`.

    Parameters
    ----------
    sim:
        The event engine driving this host.
    host_id:
        Index of this host within the server.
    on_completion:
        Called as ``on_completion(host, job)`` when a job finishes.
    on_eviction:
        Called as ``on_eviction(host, job)`` when a job hits ``limit``
        and is killed (TAGS).  If ``None`` and a limit is set, eviction
        raises — the server must opt in.
    limit:
        Maximum service a job may receive here before being killed
        (``math.inf`` disables killing).
    speed:
        Processing speed: a job of nominal size ``x`` occupies this host
        for ``x/speed`` seconds (1.0 = the paper's identical hosts).
    """

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        on_completion: Callable[["FCFSHost", Job], None],
        on_eviction: Callable[["FCFSHost", Job], None] | None = None,
        limit: float = math.inf,
        speed: float = 1.0,
    ) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.sim = sim
        self.host_id = host_id
        self.on_completion = on_completion
        self.on_eviction = on_eviction
        self.limit = limit
        self.speed = float(speed)
        self.queue: deque[Job] = deque()
        self.running: Job | None = None
        self._virtual_completion = 0.0
        #: Total useful service delivered (for per-host load accounting).
        self.busy_time = 0.0
        #: Total service delivered to jobs later evicted (wasted).
        self.wasted_time = 0.0
        self.jobs_completed = 0
        #: False while crashed (fault injection); down hosts accept no work.
        self.up = True
        #: Job whose progress survived a crash, waiting for repair
        #: ("resume" failure semantics).
        self.interrupted: Job | None = None
        self._interrupted_done = 0.0
        self._finish_handle: Event | None = None
        self._leg_start = 0.0
        self._running_done = 0.0
        self._submit_seq = 0

    # ------------------------------------------------------------------
    # state inspected by dispatch policies
    # ------------------------------------------------------------------

    @property
    def n_in_system(self) -> int:
        """Jobs queued plus the one running (Shortest-Queue's metric).

        A job interrupted by a crash and awaiting resume still occupies
        the host and counts here.
        """
        return (
            len(self.queue)
            + (1 if self.running is not None else 0)
            + (1 if self.interrupted is not None else 0)
        )

    def work_left(self, now: float) -> float:
        """Unfinished work at ``now`` assuming true sizes (LWL's metric)."""
        return max(0.0, self._virtual_completion - now)

    @property
    def virtual_completion(self) -> float:
        """Unclamped instant the host goes idle (strict-mode inspection)."""
        return self._virtual_completion

    @property
    def idle(self) -> bool:
        """No work anywhere on the host (a down host may still hold work)."""
        return (
            self.running is None and not self.queue and self.interrupted is None
        )

    # ------------------------------------------------------------------
    # job flow
    # ------------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue ``job``; starts immediately if the host is idle."""
        if not self.up:
            raise RuntimeError(
                f"cannot submit job {job.index} to host {self.host_id}: host is down"
            )
        job.assigned_host = self.host_id
        job.host_seq = self._submit_seq
        self._submit_seq += 1
        self._virtual_completion = (
            max(self._virtual_completion, self.sim._now)
            + min(job.size, self.limit) / self.speed
        )
        self.queue.append(job)
        if self.running is None:
            self._start_next()

    def _start_next(self) -> None:
        assert self.running is None
        if not self.queue:
            return
        job = self.queue.popleft()
        job.start_time = self.sim._now
        self._begin(job, done=0.0)

    def _begin(self, job: Job, done: float) -> None:
        """Put ``job`` in service with ``done`` work units already banked."""
        sim = self.sim
        self.running = job
        self._running_done = done
        self._leg_start = sim._now
        leg = (min(job.size, self.limit) - done) / self.speed
        self._finish_handle = sim.schedule_after(leg, self._finish, job, leg)

    def _finish(self, job: Job, service: float) -> None:
        assert self.running is job
        self.running = None
        self._finish_handle = None
        evicted = job.size > self.limit
        if evicted:
            self.wasted_time += service
            job.wasted_work += service
            job.restarts += 1
            if self.on_eviction is None:
                raise RuntimeError(
                    f"host {self.host_id} evicted job {job.index} but no "
                    "on_eviction handler is installed"
                )
        else:
            self.busy_time += service
            job.completion_time = self.sim._now
            if self.speed != 1.0:
                # Total occupancy across every resumed leg; service alone
                # would under-count a job interrupted by a crash.
                job.processing_time = job.size / self.speed
            self.jobs_completed += 1
        # Start the next queued job before notifying, so simultaneous
        # re-dispatch (central queue) sees a consistent host state.
        if self.queue:
            self._start_next()
        if evicted:
            self.on_eviction(self, job)
        else:
            self.on_completion(self, job)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def crash(self, keep_progress: bool) -> tuple[Job | None, float, list[Job]]:
        """Take the host down; cancel the in-flight completion.

        Parameters
        ----------
        keep_progress:
            ``True`` ("resume" semantics): the running job's progress is
            banked on the host and the queue stays put, waiting for
            :meth:`repair`.  ``False`` ("lost"/"redispatch"): the running
            job's partial service is wasted and both it and the queued
            jobs are surrendered to the caller.

        Returns
        -------
        tuple
            ``(victim, work_done, drained)`` — the job that was in
            service (``None`` if the host was idle), the work units it
            had completed, and the queued jobs removed from the host
            (always empty when ``keep_progress``).
        """
        if not self.up:
            raise RuntimeError(f"host {self.host_id} is already down")
        self.up = False
        victim = self.running
        done = 0.0
        if victim is not None:
            assert self._finish_handle is not None
            self._finish_handle.cancel()
            self._finish_handle = None
            self.running = None
            elapsed = self.sim._now - self._leg_start
            done = self._running_done + elapsed * self.speed
            if keep_progress:
                self.busy_time += elapsed
                self.interrupted = victim
                self._interrupted_done = done
            else:
                self.wasted_time += elapsed
                victim.wasted_work += elapsed * self.speed
        drained: list[Job] = []
        if keep_progress:
            return victim, done, drained
        drained = list(self.queue)
        self.queue.clear()
        # Nothing is left on the host; remaining work drops to zero.
        self._virtual_completion = self.sim._now
        return victim, done, drained

    def repair(self) -> Job | None:
        """Bring the host back up; resume or restart service.

        Returns the job that resumed from banked progress, if any (so the
        server can count the interruption against it).
        """
        if self.up:
            raise RuntimeError(f"host {self.host_id} is not down")
        self.up = True
        now = self.sim._now
        resumed = self.interrupted
        # Remaining work moved wholesale past the repair: recompute the
        # virtual completion instead of patching it leg by leg.
        limit, speed = self.limit, self.speed
        backlog = sum([min(j.size, limit) / speed for j in self.queue])
        if resumed is not None:
            self.interrupted = None
            done = self._interrupted_done
            self._interrupted_done = 0.0
            backlog += (min(resumed.size, self.limit) - done) / self.speed
            self._virtual_completion = now + backlog
            self._begin(resumed, done=done)
        else:
            self._virtual_completion = now + backlog
            self._start_next()
        return resumed
