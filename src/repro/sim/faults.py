"""Deterministic fault injection for the distributed server.

The paper's evaluation (and its §7 limitations) assumes perfectly
reliable hosts — yet its headline recommendation, deliberately
*unbalancing* load onto one lightly-loaded short-job host, is exactly the
configuration most exposed to that host failing.  This module adds the
missing failure axis: per-host crash/repair processes driven from a
seeded RNG tree, so every fault schedule replays bit-identically.

Model
-----

Each targeted host alternates between *up* and *down* periods.  Up-time
(time between repair and the next crash) is drawn with mean
:attr:`FaultModel.mtbf`; down-time (repair duration) with mean
:attr:`FaultModel.mttr`.  Draws come from one independent child stream
per host, spawned from a single :class:`numpy.random.SeedSequence` — the
schedule of host ``i`` never depends on how events interleave with other
hosts, which keeps ``repro audit`` clean.

What happens to the job in service when its host crashes is the
*failure semantics* (:data:`SEMANTICS`):

``"lost"``
    The job disappears: it never completes and is reported through
    :attr:`~repro.sim.metrics.SimulationResult.n_lost`.
``"redispatch"``
    The job loses its progress (counted as wasted work, like a TAGS
    eviction) and re-enters the dispatcher to be routed again — from
    scratch — to a live host.
``"resume"``
    The job keeps its progress, waits out the repair on the crashed
    host, and resumes with only its remaining work (checkpointed hosts).

Queued jobs that never received service are re-dispatched among live
hosts under ``lost``/``redispatch`` (the host's memory is gone) and wait
in place under ``resume``.  Arrivals while *every* host is down are held
at the dispatcher and flushed, FCFS, on the next repair.

Dispatch stays failure-aware through
:meth:`repro.core.policies.base.Policy.choose_live_host`: the
load-balancing policies simply skip down hosts, while SITA variants
spill their size interval to the nearest live host (see
``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["SEMANTICS", "FAULT_DISTRIBUTIONS", "FaultModel", "FaultInjector"]

#: the three supported failure semantics for the job in service.
SEMANTICS = ("lost", "redispatch", "resume")

#: supported up/down duration distributions.
FAULT_DISTRIBUTIONS = ("exponential", "deterministic")

#: standard exponential variates each host's stream yields per refill.
DRAW_BLOCK = 256


@dataclass(frozen=True)
class FaultModel:
    """Configuration of the per-host crash/repair processes.

    Parameters
    ----------
    mtbf:
        Mean time between failures — the mean *up* period, in simulated
        seconds.  ``math.inf`` disables failures entirely (the injector
        schedules nothing, so results are bit-identical to a run with no
        fault model at all).
    mttr:
        Mean time to repair — the mean *down* period.
    semantics:
        Fate of the job in service at a crash; one of :data:`SEMANTICS`.
    seed:
        Root of the fault-schedule RNG tree.  Independent of the policy
        RNG: the same workload/policy seed with a different fault seed
        replays the same arrivals under a different failure schedule.
    hosts:
        Which host indices fail (``None`` = all of them).  Targeting a
        single host reproduces the paper-motivated scenario "the
        short-job host dies".
    distribution:
        ``"exponential"`` (memoryless, the classical availability model)
        or ``"deterministic"`` (fixed durations — invaluable in tests).
    """

    mtbf: float
    mttr: float
    semantics: str = "resume"
    seed: int = 0
    hosts: tuple[int, ...] | None = None
    distribution: str = "exponential"

    def __post_init__(self) -> None:
        if not (self.mtbf > 0):
            raise ValueError(f"mtbf must be positive, got {self.mtbf}")
        if not (self.mttr > 0 and math.isfinite(self.mttr)):
            raise ValueError(f"mttr must be positive and finite, got {self.mttr}")
        if self.semantics not in SEMANTICS:
            raise ValueError(
                f"unknown failure semantics {self.semantics!r}; "
                f"choose one of {SEMANTICS}"
            )
        if self.distribution not in FAULT_DISTRIBUTIONS:
            raise ValueError(
                f"unknown fault distribution {self.distribution!r}; "
                f"choose one of {FAULT_DISTRIBUTIONS}"
            )
        if self.hosts is not None:
            object.__setattr__(self, "hosts", tuple(int(h) for h in self.hosts))

    @property
    def enabled(self) -> bool:
        """Whether this model can produce any failure at all."""
        return math.isfinite(self.mtbf)

    @property
    def availability(self) -> float:
        """Steady-state fraction of time a targeted host is up."""
        if not self.enabled:
            return 1.0
        return self.mtbf / (self.mtbf + self.mttr)

    def describe(self) -> str:
        """Stable one-line signature (used as part of checkpoint keys)."""
        hosts = "all" if self.hosts is None else ",".join(map(str, self.hosts))
        return (
            f"mtbf={self.mtbf!r},mttr={self.mttr!r},sem={self.semantics},"
            f"seed={self.seed},hosts={hosts},dist={self.distribution}"
        )


class FaultInjector:
    """Drives the crash/repair processes of one :class:`DistributedServer`.

    Construction validates the model against the host count and spawns
    one child RNG stream per targeted host; :meth:`attach` schedules the
    first crashes.  The injector then keeps each host's process alive —
    crash, repair after an MTTR draw, crash again after an MTBF draw —
    until the server stops the clock (the event stream is conceptually
    infinite, which is why :meth:`repro.sim.engine.Simulator.stop`
    exists).

    The injector calls exactly two server entry points,
    ``server.crash_host(i)`` and ``server.repair_host(i)``; all failure
    semantics live in the server/host layer.
    """

    def __init__(self, model: FaultModel, n_hosts: int) -> None:
        if model.hosts is not None:
            bad = [h for h in model.hosts if not 0 <= h < n_hosts]
            if bad:
                raise ValueError(
                    f"fault model targets hosts {bad} outside 0..{n_hosts - 1}"
                )
            targets = tuple(sorted(set(model.hosts)))
        else:
            targets = tuple(range(n_hosts))
        self.model = model
        self.targets = targets
        # One independent stream per targeted host: the draw sequence of a
        # host's schedule never depends on event interleaving elsewhere.
        seeds = np.random.SeedSequence(model.seed).spawn(len(targets))
        self._streams = {
            host: np.random.default_rng(seq) for host, seq in zip(targets, seeds)
        }
        #: each host's prefetched standard exponential variates, next last.
        self._blocks: dict[int, list[float]] = {h: [] for h in targets}
        # The attached DistributedServer (duck-typed to avoid a cycle).
        self._server: Any = None
        #: crashes injected so far, per host.
        self.n_crashes: dict[int, int] = {h: 0 for h in targets}
        #: cumulative down-time per host (closed repair intervals only).
        self.downtime: dict[int, float] = {h: 0.0 for h in targets}
        self._down_since: dict[int, float] = {}

    # ------------------------------------------------------------------
    # duration draws
    # ------------------------------------------------------------------

    def _draw(self, host: int, mean: float) -> float:
        """The host's next duration with mean ``mean``.

        ``Generator.exponential(mean)`` is ``mean`` times the stream's
        next standard exponential variate, so ``mean * x`` over a block
        of them drawn at once gives the same bits as one
        ``exponential(mean)`` call per draw, for any mix of means.
        """
        if self.model.distribution == "deterministic":
            return mean
        block = self._blocks[host]
        if not block:
            block += self._streams[host].standard_exponential(DRAW_BLOCK).tolist()
            block.reverse()
        return mean * block.pop()

    # ------------------------------------------------------------------
    # event-plumbing
    # ------------------------------------------------------------------

    def attach(self, server) -> None:
        """Schedule the first crash of every targeted host on ``server``.

        The server's host count is re-checked here: the injector may have
        been constructed against a different ``n_hosts`` than the server
        it is finally attached to (the online dispatcher builds both from
        config), and a silently out-of-range target would simply never
        crash anything.
        """
        if self._server is not None:
            raise RuntimeError("fault injector is already attached to a server")
        n_hosts = len(server.hosts)
        bad = [h for h in self.targets if h >= n_hosts]
        if bad:
            raise ValueError(
                f"fault model targets hosts {bad}, but the attached server "
                f"registered only hosts 0..{n_hosts - 1}"
            )
        self._server = server
        if not self.model.enabled:
            return
        for host in self.targets:
            server.sim.schedule_after(
                self._draw(host, self.model.mtbf), self._crash, host
            )

    def _crash(self, host: int) -> None:
        self.n_crashes[host] += 1
        self._down_since[host] = self._server.sim._now
        self._server.crash_host(host)
        self._server.sim.schedule_after(
            self._draw(host, self.model.mttr), self._repair, host
        )

    def _repair(self, host: int) -> None:
        self.downtime[host] += self._server.sim._now - self._down_since.pop(host)
        self._server.repair_host(host)
        self._server.sim.schedule_after(
            self._draw(host, self.model.mtbf), self._crash, host
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def total_crashes(self) -> int:
        return sum(self.n_crashes.values())

    def total_downtime(self, now: float) -> float:
        """Cumulative host down-time, counting still-open repair windows."""
        open_windows = sum(now - since for since in self._down_since.values())
        return sum(self.downtime.values()) + open_windows

    def schedule_status(self) -> dict:
        """Explicit introspection of the fault schedule's state.

        "No crashes happened" is ambiguous without this: it can mean the
        model has failures disabled (``mtbf=inf``), the injector was
        never attached to a server, or the schedule is live but the first
        draw simply hasn't fired yet.  The ``state`` field names which:

        ``"disabled"``
            The model cannot produce failures (``mtbf=math.inf``).
        ``"unattached"``
            :meth:`attach` has not been called; nothing is scheduled.
        ``"active"``
            Attached and armed: every targeted host has a crash or a
            repair pending (the processes self-reschedule forever, so an
            active schedule never exhausts).
        """
        if not self.model.enabled:
            state = "disabled"
        elif self._server is None:
            state = "unattached"
        else:
            state = "active"
        return {
            "state": state,
            "targets": list(self.targets),
            "semantics": self.model.semantics,
            "availability": self.model.availability,
            "crashes": dict(self.n_crashes),
            "down_now": sorted(self._down_since),
            "total_crashes": self.total_crashes,
        }
