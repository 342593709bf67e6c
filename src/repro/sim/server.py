"""The distributed server: dispatcher + hosts, driven by a job trace.

This is the paper's architectural model (figure 1): a single stream of
batch jobs arrives at a dispatcher, which sends each job to exactly one of
``h`` identical FCFS run-to-completion hosts according to a *task
assignment policy*.  Three dispatch disciplines exist:

* **immediate dispatch** (``policy.kind`` of ``"static"`` or ``"state"``):
  the job is routed the instant it arrives — Random, Round-Robin,
  Shortest-Queue, Least-Work-Left and all the SITA variants work this way;
* **central queue** (``policy.kind == "central"``): jobs are held at the
  dispatcher in FCFS order and a host pulls the next job when it goes
  idle — provably equivalent to Least-Work-Left (paper section 3.1);
* **TAGS** (``policy.kind == "tags"``): every job starts on host 0; host
  ``i`` kills any job that exceeds cutoff ``i`` and the job restarts from
  scratch on host ``i+1`` (the unknown-size policy of the paper's ref
  [10], included as an extension).

Policies are duck-typed (see :class:`repro.core.policies.base.Policy` for
the reference protocol) so the simulator has no dependency on the policy
package.
"""

from __future__ import annotations

import math
import struct
from collections import deque

import numpy as np

from ..workloads.distributions import _as_host_speeds, _as_rng
from ..workloads.traces import Trace
from .engine import InvariantViolation, Simulator
from .faults import FaultInjector, FaultModel
from .host import FCFSHost
from .jobs import Job
from .metrics import SimulationResult, observe_result

__all__ = [
    "COMPLETION_FIELDS", "DistributedServer", "FoldedJobs", "SystemState", "seq_sum",
]

#: Fields of one row of the completion log, in order.  ``busy`` is the
#: time the job occupied its final host (``processing_time``, else
#: ``size``); ``wasted`` is its ``wasted_work``.  Every field is stored as
#: a native float64, which holds the integer ones exactly below 2**53.
COMPLETION_FIELDS = (
    "index", "arrival", "size", "host", "host_seq",
    "start", "completion", "busy", "wasted",
)
_ROW = struct.Struct(f"{len(COMPLETION_FIELDS)}d")


def seq_sum(total: float, values: np.ndarray) -> float:
    """``total`` plus each of ``values`` in turn, strictly left to right.

    ``np.cumsum`` accumulates sequentially (``np.sum`` adds pairwise), so
    a sequence folded in consecutive parts, each seeded with the total so
    far, ends on the same bits wherever the parts were cut.
    """
    if not values.size:
        return total
    acc = np.empty(values.size + 1)
    acc[0] = total
    acc[1:] = values
    return float(np.cumsum(acc, out=acc)[-1])


def _scaled(
    sums: tuple[float, float, float], values: np.ndarray
) -> tuple[float, float, float]:
    """Scaled sums ``(m, Σv/m, Σ(v/m)²)`` extended by ``values``, with
    ``m`` raised to at least their largest value: no finite input
    overflows them."""
    m, s1, s2 = sums
    top = max(m, float(values.max())) if values.size else m
    if top == 0.0:
        return sums
    r = m / top
    s = values / top
    return top, s1 * r + float(np.sum(s)), s2 * r * r + float(np.sum(s * s))


class FoldedJobs:
    """Running totals of the jobs folded out of per-job storage.

    The folded jobs are every job below index ``at``: a contiguous
    prefix of submission order.  ``completed`` counts the completed ones
    among them (the rest were lost or shed), and ``sum_v`` and
    ``sum_v2`` hold the sum of their slowdowns and of the squares, added
    by :func:`seq_sum` in submission order.  A sequential sum does not
    depend on where the fold boundaries fell, so two servers that folded
    the same prefix at different times hold the same bits.  Once
    ``sum_v2`` overflows, ``scaled`` also keeps the sums scaled by a
    bound on the largest slowdown (:func:`_scaled`), which :meth:`jain`
    falls back to.
    """

    __slots__ = ("at", "completed", "sum_v", "sum_v2", "scaled")

    def __init__(self) -> None:
        self.at = 0
        self.completed = 0
        self.sum_v = 0.0
        self.sum_v2 = 0.0
        self.scaled: tuple[float, float, float] | None = None

    def _scaled_sums(self) -> tuple[float, float, float]:
        if self.scaled is not None:
            return self.scaled
        # sqrt(Σv²) bounds every folded slowdown, and the sums are finite.
        m = math.sqrt(self.sum_v2)
        return (m, self.sum_v / m, self.sum_v2 / m / m) if m else (0.0, 0.0, 0.0)

    def add(self, slowdowns: np.ndarray) -> None:
        """Fold completed slowdowns, given in submission order."""
        self.completed += int(slowdowns.size)
        with np.errstate(over="ignore"):  # an infinite Σv² turns on ``scaled``
            sum_v2 = seq_sum(self.sum_v2, slowdowns * slowdowns)
            if self.scaled is not None or math.isinf(sum_v2):
                self.scaled = _scaled(self._scaled_sums(), slowdowns)
            self.sum_v = seq_sum(self.sum_v, slowdowns)
        self.sum_v2 = sum_v2

    def jain(self, retained: np.ndarray) -> float | None:
        """Jain's index ``(Σv)² / (n·Σv²)`` of the folded slowdowns
        followed by ``retained`` (the unfolded completed ones, in
        submission order); ``None`` before any completion.  The same
        expression as :func:`~repro.sim.metrics.jain_fairness_index`,
        with the sums taken sequentially; where that overflows, the same
        ratio of the sums scaled by a bound on the largest slowdown."""
        n = self.completed + int(retained.size)
        if n == 0:
            return None
        with np.errstate(over="ignore"):  # an infinite sum falls back below
            denom = n * seq_sum(self.sum_v2, retained * retained)
            if denom == 0.0:
                return math.nan
            if not math.isinf(denom):
                try:
                    return seq_sum(self.sum_v, retained) ** 2 / denom
                except OverflowError:
                    pass
        _, s1, s2 = _scaled(self._scaled_sums(), retained)
        return s1 * s1 / (n * s2)


class SystemState:
    """Read-only view of the server handed to state-dependent policies."""

    __slots__ = ("_server",)

    def __init__(self, server: "DistributedServer") -> None:
        self._server = server

    @property
    def now(self) -> float:
        return self._server.sim.now

    @property
    def n_hosts(self) -> int:
        return len(self._server.hosts)

    def work_left(self) -> np.ndarray:
        """Remaining work at each host (true sizes)."""
        now = self._server.sim.now
        return np.array([h.work_left(now) for h in self._server.hosts])

    def queue_lengths(self) -> np.ndarray:
        """Jobs in system (queued + running) at each host."""
        return np.array([h.n_in_system for h in self._server.hosts])

    def work_left_list(self) -> list[float]:
        """:meth:`work_left` as a list of floats, with no array built."""
        now = self._server.sim._now
        # ``max(0.0, V - now)`` per host, without a call per host.
        return [
            v - now if (v := h._virtual_completion) > now else 0.0
            for h in self._server.hosts
        ]


class DistributedServer:
    """Event-driven distributed server fed by a :class:`Trace`.

    Parameters
    ----------
    n_hosts:
        Number of identical host machines.
    policy:
        A task assignment policy (see module docstring for the protocol).
    rng:
        Seed or generator for any randomness inside the policy.
    strict:
        Run under the engine sanitizer: after every event the server
        re-asserts monotone clock, non-negative remaining work, FCFS
        order per host and conservation of jobs (arrived = queued +
        running + completed + deferred + lost), raising
        :class:`~repro.sim.engine.InvariantViolation` on the first
        breach.  ``None`` defers to the ``REPRO_SIM_STRICT`` environment
        variable (see :func:`~repro.sim.engine.strict_from_env`).
    faults:
        Optional :class:`~repro.sim.faults.FaultModel` enabling per-host
        crash/repair processes (see :mod:`repro.sim.faults` and
        ``docs/ROBUSTNESS.md``).  ``None`` keeps the classical reliable
        server, bit-identical to the pre-fault behaviour.  Not supported
        together with TAGS, whose eviction cascade assumes reliable
        hosts.
    """

    def __init__(
        self,
        n_hosts: int,
        policy,
        rng: np.random.Generator | int | None = None,
        host_speeds=None,
        strict: bool | None = None,
        faults: FaultModel | None = None,
    ) -> None:
        if n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        kind = getattr(policy, "kind", None)
        if kind not in ("static", "state", "central", "tags"):
            raise ValueError(f"policy {policy!r} has unsupported kind {kind!r}")
        if faults is not None and kind == "tags":
            raise ValueError(
                "fault injection is not supported with TAGS: its eviction "
                "cascade assumes reliable hosts"
            )
        if kind == "tags" and n_hosts != len(policy.cutoffs) + 1:
            raise ValueError(
                f"TAGS with {len(policy.cutoffs)} cutoffs needs "
                f"{len(policy.cutoffs) + 1} hosts, got {n_hosts}"
            )
        speeds = _as_host_speeds(host_speeds, n_hosts)
        if kind == "tags" and not np.all(speeds == 1.0):
            raise ValueError(
                "TAGS cutoff semantics are defined for identical hosts; "
                "heterogeneous speeds are not supported"
            )
        self.host_speeds = speeds
        self.policy = policy
        self.rng = _as_rng(rng)
        self.sim = Simulator(strict=strict)
        limits = [math.inf] * n_hosts
        on_eviction = None
        if kind == "tags":
            limits = list(policy.cutoffs) + [math.inf]
            on_eviction = self._handle_eviction
        self.hosts = [
            FCFSHost(
                self.sim,
                i,
                on_completion=self._handle_completion,
                on_eviction=on_eviction,
                limit=limits[i],
                speed=float(speeds[i]),
            )
            for i in range(n_hosts)
        ]
        self.state = SystemState(self)
        self.central_queue: deque[Job] = deque()
        #: the completion log: one packed row of ``COMPLETION_FIELDS``
        #: per completed job, in completion order.  A completed ``Job``
        #: is dropped once its row is written.
        self._done = bytearray()
        #: rows the log keeps behind the newest arrival before
        #: :meth:`fold_completed` folds older ones into ``folded``;
        #: ``None`` (batch runs) keeps every row.
        self.retain: int | None = None
        self.folded = FoldedJobs()
        #: log size in bytes at which the next eager fold runs.
        self._fold_trigger = 0
        #: per-host up flags while a fault model runs, rebuilt only after
        #: a crash or a repair.
        self._live: tuple[bool, ...] | None = None
        #: jobs a crash destroyed (``lost`` semantics).
        self.n_lost = 0
        #: indices of the jobs that left without completing (lost, or
        #: shed by the online server) and are not folded yet; only a
        #: server that folds (``retain`` set) keeps them.
        self._gone_at: list[int] = []
        #: arrivals held at the dispatcher because every host was down.
        self._deferred: deque[Job] = deque()
        self._n_arrived = 0
        self._expected: int | None = None
        self.faults = faults
        self.fault_injector = (
            FaultInjector(faults, n_hosts) if faults is not None else None
        )
        if self.sim.strict:
            self.sim.add_invariant_checker(self._check_invariants)
        policy.reset(n_hosts, self.rng)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _handle_arrival(self, job: Job) -> None:
        self._n_arrived += 1
        self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        """Route one job (a fresh arrival or a crash re-dispatch)."""
        kind = self.policy.kind
        if kind == "central":
            self.central_queue.append(job)
            self._feed_idle_hosts()
        elif kind == "tags":
            self.hosts[0].submit(job)
        elif self.fault_injector is not None:
            up = self._live
            if up is None:
                up = self._live = tuple(h.up for h in self.hosts)
            if True not in up:
                # Every host is down; hold the job at the dispatcher and
                # flush it (FCFS) at the next repair.
                self._deferred.append(job)
                return
            host_idx = int(self.policy.choose_live_host(job, self.state, up))
            if not 0 <= host_idx < len(self.hosts) or not up[host_idx]:
                raise ValueError(
                    f"policy returned invalid or down host {host_idx} "
                    f"for job {job.index}"
                )
            self.hosts[host_idx].submit(job)
        else:
            host_idx = self.policy.choose_host(job, self.state)
            if not 0 <= host_idx < len(self.hosts):
                raise ValueError(
                    f"policy returned invalid host {host_idx} for job {job.index}"
                )
            self.hosts[host_idx].submit(job)

    def _handle_completion(self, host: FCFSHost, job: Job) -> None:
        busy = job.processing_time
        self._done += _ROW.pack(
            job.index,
            job.arrival_time,
            job.size,
            job.assigned_host,
            job.host_seq,
            job.start_time,
            job.completion_time,
            job.size if busy is None else busy,
            job.wasted_work,
        )
        if self.retain is not None and len(self._done) >= self._fold_trigger:
            self.fold_completed()
        if self.policy.kind == "central":
            self._feed_idle_hosts()
        if self._expected is not None:
            self._maybe_finish()

    def _handle_eviction(self, host: FCFSHost, job: Job) -> None:
        nxt = host.host_id + 1
        assert nxt < len(self.hosts), "last host must never evict"
        self.hosts[nxt].submit(job)

    def _pop_central(self) -> Job:
        """Take the next job from the central queue per the discipline."""
        if getattr(self.policy, "discipline", "fcfs") == "sjf":
            best = min(
                range(len(self.central_queue)),
                key=lambda i: self.central_queue[i].size_estimate,
            )
            job = self.central_queue[best]
            del self.central_queue[best]
            return job
        return self.central_queue.popleft()

    def _feed_idle_hosts(self) -> None:
        for host in self.hosts:
            if not self.central_queue:
                return
            if host.up and host.idle:
                host.submit(self._pop_central())

    # ------------------------------------------------------------------
    # fault injection (called by the FaultInjector)
    # ------------------------------------------------------------------

    def crash_host(self, host_id: int) -> None:
        """A host just failed; apply the configured failure semantics.

        ``resume``: the host banks the running job's progress and keeps
        its queue.  ``lost``: the running job is destroyed; queued jobs
        (which received no service) are re-dispatched to live hosts.
        ``redispatch``: like ``lost`` but the running job re-enters the
        dispatcher from scratch, its partial service counted as wasted
        work.
        """
        assert self.faults is not None
        semantics = self.faults.semantics
        keep = semantics == "resume"
        victim, _done, drained = self.hosts[host_id].crash(keep_progress=keep)
        self._live = None
        if victim is not None:
            victim.interruptions += 1
        if keep:
            return
        if victim is not None:
            if semantics == "lost":
                victim.lost = True
                self.n_lost += 1
                self._record_gone(victim)
                self._maybe_finish()
            elif self.policy.kind == "central":
                # The victim arrived before anything still queued centrally.
                victim.restarts += 1
                self.central_queue.appendleft(victim)
            else:
                victim.restarts += 1
                self._dispatch(victim)
        for job in drained:
            self._dispatch(job)

    def repair_host(self, host_id: int) -> None:
        """A host came back; restart its service and drain the dispatcher."""
        self.hosts[host_id].repair()
        self._live = None
        while self._deferred:
            self._dispatch(self._deferred.popleft())
        if self.policy.kind == "central":
            self._feed_idle_hosts()

    def _maybe_finish(self) -> None:
        """Stop the clock once every expected job completed or was lost.

        Without this the fault injector's crash/repair stream would keep
        the calendar alive forever.
        """
        if self._expected is None:
            return
        if self.n_completed + self.n_lost >= self._expected:
            self.sim.stop()

    # ------------------------------------------------------------------
    # the completion log
    # ------------------------------------------------------------------

    @property
    def n_completed(self) -> int:
        """Jobs completed so far (folded ones plus rows in the log)."""
        return self.folded.completed + len(self._done) // _ROW.size

    def _rows(self) -> np.ndarray:
        """The completion log as an ``(n, len(COMPLETION_FIELDS))`` view;
        the log cannot grow while the view is alive."""
        return np.frombuffer(self._done, dtype=np.float64).reshape(
            -1, len(COMPLETION_FIELDS)
        )

    def completed_columns(self, *fields: str) -> list[np.ndarray]:
        """Columns ``fields`` (names from ``COMPLETION_FIELDS``) of the
        completion log, each a new float64 array in job-index order.
        Folded jobs have no row (see :meth:`fold_completed`)."""
        picks = [COMPLETION_FIELDS.index(f) for f in fields]
        rows = self._rows()
        try:
            order = np.argsort(rows[:, 0], kind="stable")
            return [rows[order, i] for i in picks]
        finally:
            del rows

    def _record_gone(self, job: Job) -> None:
        """Note a job that left without completing (it never gets a row):
        :meth:`fold_completed` needs its index until it is folded."""
        if self.retain is not None:
            self._gone_at.append(job.index)

    def fold_completed(self) -> None:
        """Fold the log's oldest rows into :attr:`folded`.

        The fold point is ``F = min(arrived - retain, first job index
        still in flight)``, where a job is no longer in flight once it
        completed, was lost or was shed.  ``F`` never decreases and
        depends only on the state, so a server that folds at any points
        of its history holds the same rows and totals at every read.
        The rows below ``F`` are folded in index order and dropped; the
        rest keep their completion order.  The next eager fold runs once
        the log has grown by ``retain`` rows, or reaches ``2 * retain``.
        """
        retain = self.retain
        if retain is None:
            return
        folded = self.folded
        limit = self._n_arrived - retain
        if limit > folded.at and self._done:
            rows = self._rows()
            # Which of the jobs in [F, limit) are finished: log rows and
            # jobs lost or shed.  Every row has an index >= F.
            finished = np.zeros(limit - folded.at, dtype=bool)
            index = rows[:, 0]
            finished[index[index < limit].astype(np.int64) - folded.at] = True
            for gone in self._gone_at:
                if folded.at <= gone < limit:
                    finished[gone - folded.at] = True
            first = int(finished.argmin())  # the first False, else 0
            at = folded.at + (finished.size if finished[first] else first)
            if at > folded.at:
                below = index < at
                order = np.argsort(index[below])
                arrival, size, completion = (
                    rows[below, COMPLETION_FIELDS.index(f)][order]
                    for f in ("arrival", "size", "completion")
                )
                folded.add((completion - arrival) / size)
                folded.at = at
                self._gone_at = [gone for gone in self._gone_at if gone >= at]
                # Compact the kept rows to the front a block at a time,
                # so no copy of the whole log is ever alive.
                kept = 0
                for i in range(0, below.size, 1024):
                    block = rows[i : i + 1024][~below[i : i + 1024]]
                    rows[kept : kept + block.shape[0]] = block
                    kept += block.shape[0]
                del rows, index
                del self._done[kept * _ROW.size :]
        n_rows = len(self._done) // _ROW.size
        self._fold_trigger = max(2 * retain, n_rows + retain) * _ROW.size

    def record_completions(self, **columns: np.ndarray) -> None:
        """Append completed jobs to the log in bulk, given one
        equal-length column per name in ``COMPLETION_FIELDS`` (the fast
        path's handover of the jobs it completed)."""
        rows = np.column_stack([columns[f] for f in COMPLETION_FIELDS])
        self._done += rows.astype(np.float64, copy=False).tobytes()

    # ------------------------------------------------------------------
    # strict-mode sanitizer
    # ------------------------------------------------------------------

    def _check_invariants(self, sim: Simulator) -> None:
        """Assert server-level invariants; called after every event.

        Runs only under ``strict`` mode (the engine never calls checkers
        otherwise).  Checks, in order:

        1. *non-negative remaining work*: a busy host's virtual completion
           time is never in the past (up to float tolerance on long
           horizons);
        2. *FCFS order per host*: jobs wait in the order they were
           dispatched — submission (``host_seq``) order on every backlog.
           (Job-*index* order would be too strong: a crash re-dispatch
           legitimately places an old job behind newer ones.)
        3. *conservation of jobs*: every arrival is queued, running,
           interrupted by a crash, held at the dispatcher, completed or
           lost — nothing disappears untracked and nothing is duplicated;
        4. *down hosts hold no service*: a crashed host never has a job
           actively running.
        """
        now = sim.now
        tol = 1e-9 * (1.0 + abs(now))
        in_system = 0
        for host in self.hosts:
            if host.running is not None and not host.up:
                raise InvariantViolation(
                    f"host {host.host_id} is down but running job "
                    f"{host.running.index}"
                )
            if host.running is not None and host.virtual_completion < now - tol:
                raise InvariantViolation(
                    f"host {host.host_id} is busy with job "
                    f"{host.running.index} but its virtual completion "
                    f"{host.virtual_completion} is before now={now}"
                )
            prev = -1
            for queued in host.queue:
                if queued.host_seq <= prev:
                    raise InvariantViolation(
                        f"host {host.host_id} queue is out of FCFS order: "
                        f"job {queued.index} (submission {queued.host_seq}) "
                        f"waits behind submission {prev}"
                    )
                prev = queued.host_seq
            in_system += host.n_in_system
        held = self._dispatcher_held()
        accounted = in_system + sum(held.values())
        if accounted != self._n_arrived:
            detail = ", ".join(f"{n} {k}" for k, n in held.items())
            raise InvariantViolation(
                f"job conservation broken at t={now}: {self._n_arrived} "
                f"arrived but {accounted} accounted for "
                f"({in_system} on hosts, {detail})"
            )

    def _dispatcher_held(self) -> dict[str, int]:
        """Jobs the dispatcher accounts for outside the hosts, by bucket.

        The conservation checker sums these with the per-host counts;
        subclasses that park jobs in additional places (the online
        dispatcher's retry-backoff timers and shed list) extend the dict
        so conservation stays checkable there too.
        """
        return {
            "central": len(self.central_queue),
            "deferred": len(self._deferred),
            "completed": self.n_completed,
            "lost": self.n_lost,
        }

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def run_trace(self, trace: Trace, size_estimates=None) -> SimulationResult:
        """Replay ``trace`` through the server and collect per-job results.

        Every arrival is scheduled before the run starts, so its ``seq``
        is lower than that of any completion: when a job completes at
        exactly the instant another arrives, the arrival is routed
        first and still sees the departing job on its host.  The online
        server (:class:`~repro.serve.server.DispatchServer`, either
        path) and :func:`~repro.sim.fast.shortest_queue_dispatch` take
        the departure first.  State-dependent policies can therefore
        route exact ties differently here: on a 3,000-job integer
        Shortest-Queue stream on 2 hosts (``t = cumsum(integers(0,
        3))``, sizes ``integers(1, 6)``, ``default_rng(7)``) the hosts
        differ for 1,452 jobs.  Continuous-time traces almost never
        tie.

        Parameters
        ----------
        trace:
            Arrival epochs and service requirements.
        size_estimates:
            Optional per-job size estimates shown to the policy instead of
            the true sizes (section-7 robustness experiments).
        """
        if size_estimates is not None:
            est = np.asarray(size_estimates, dtype=float)
            if est.shape != trace.service_times.shape:
                raise ValueError("size_estimates must match the trace length")
        else:
            est = trace.service_times
        t0 = trace.arrival_times[0]
        for i in range(trace.n_jobs):
            job = Job(
                index=i,
                arrival_time=float(trace.arrival_times[i] - t0),
                size=float(trace.service_times[i]),
                size_estimate=float(est[i]),
            )
            self.sim.schedule(job.arrival_time, self._handle_arrival, job)
        if self.fault_injector is not None:
            self._expected = trace.n_jobs
            self.fault_injector.attach(self)
            # The crash/repair stream is unbounded, so completion of the
            # last job stops the clock (``_maybe_finish``).  A pathological
            # fault model (repairs slower than crashes under re-dispatch)
            # could make no progress at all; the event budget turns that
            # livelock into a diagnosable error instead of a hung sweep.
            budget = 200 * trace.n_jobs + 100_000
            self.sim.run(max_events=budget)
            done = self.n_completed + self.n_lost
            if done != trace.n_jobs:
                raise RuntimeError(
                    f"simulation ended with {done} of {trace.n_jobs} jobs "
                    f"accounted for after {self.sim.events_processed} events "
                    "— the fault model may be too aggressive to make progress "
                    f"(availability {self.fault_injector.model.availability:.3f})"
                )
        else:
            self.sim.run()
            if self.n_completed != trace.n_jobs:
                raise RuntimeError(
                    f"simulation ended with {self.n_completed} of "
                    f"{trace.n_jobs} jobs completed"
                )
        arrivals, sizes, hosts, completions, busy, wasted = self.completed_columns(
            "arrival", "size", "host", "completion", "busy", "wasted"
        )
        # ``Job.wait_time``'s expression: response time minus busy time.
        waits = (completions - arrivals) - busy
        # Long horizons lose absolute precision: completion − arrival − size
        # can cancel to a tiny negative for a zero-wait job.  Clamp those;
        # anything beyond float noise is a real bug and must still raise.
        if np.any(waits < -1e-6 * (1.0 + sizes)):
            raise RuntimeError("negative wait time beyond float tolerance")
        np.maximum(waits, 0.0, out=waits)
        processing = None
        if not np.all(self.host_speeds == 1.0):
            processing = busy
        injector = self.fault_injector
        result = SimulationResult(
            policy_name=getattr(self.policy, "name", type(self.policy).__name__),
            n_hosts=len(self.hosts),
            arrival_times=arrivals,
            sizes=sizes,
            wait_times=waits,
            host_assignments=hosts.astype(int),
            wasted_work=wasted,
            processing_times=processing,
            n_lost=self.n_lost,
            n_failures=0 if injector is None else injector.total_crashes,
            host_downtime=(
                0.0 if injector is None else injector.total_downtime(self.sim.now)
            ),
            backend="event",
        )
        observe_result(result)
        return result
