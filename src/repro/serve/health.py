"""Per-host health: heartbeat-driven circuit breakers.

The online dispatcher never consults a host's *true* up/down state when
routing — that would be clairvoyant.  It consults its **belief**, built
from two observation channels: periodic heartbeat probes and the
success/failure of actual dispatch handoffs.  The belief is materialised
as one circuit breaker per host, with the classical three states:

``closed``
    The host looks healthy; dispatch flows freely.  ``failure_threshold``
    *consecutive* failed observations trip the breaker.
``open``
    The host is presumed dead; it is masked out of the dispatch set (the
    policy's ``choose_live_host`` never sees it) so no job burns a
    retry on it.  After ``cooldown`` simulated seconds the breaker
    relaxes to half-open.
``half_open``
    Trial mode: the host re-enters the dispatch set, and the *next*
    observation decides — success closes the breaker, failure re-opens
    it (restarting the cooldown).

Everything is a pure function of the observation sequence and the clock
passed in by the caller, so the layer is deterministic under the event
engine's virtual time and trivially unit-testable.

The dispatch mask is cached: as a function of time it is piecewise
constant, changing only when an observation moves a breaker's routing
state or when the clock crosses an open breaker's cooldown expiry (the
first instant its own ``state`` test reads half-open), so
:meth:`HealthMonitor.refresh` recomputes it only at those points.  The
dispatcher calls it per decision and routes on the mask as a tuple,
:attr:`HealthMonitor.live`; :meth:`HealthMonitor.up_mask` builds a
read-only ndarray of it for callers that ask.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["BREAKER_STATES", "CircuitBreaker", "HealthMonitor"]

#: the three breaker states, in the order they are usually drawn.
BREAKER_STATES = ("closed", "open", "half_open")


class CircuitBreaker:
    """One host's breaker: consecutive-failure trip, timed half-open."""

    __slots__ = (
        "failure_threshold",
        "cooldown",
        "failures",
        "opened_at",
        "n_trips",
        "n_failures",
        "n_successes",
    )

    def __init__(self, failure_threshold: int = 2, cooldown: float = 20.0) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if not cooldown > 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = float(cooldown)
        #: consecutive failed observations since the last success.
        self.failures = 0
        #: simulated time the breaker last tripped (None = not open).
        self.opened_at: float | None = None
        self.n_trips = 0
        self.n_failures = 0
        self.n_successes = 0

    def state(self, now: float) -> str:
        """Current state as one of :data:`BREAKER_STATES`."""
        if self.opened_at is None:
            return "closed"
        if now - self.opened_at >= self.cooldown:
            return "half_open"
        return "open"

    def allows(self, now: float) -> bool:
        """Whether dispatch may target this host right now."""
        return self.state(now) != "open"

    def half_opens_at(self) -> float:
        """The first instant :meth:`state` reads ``half_open``.

        ``math.inf`` unless the breaker is open.  ``opened_at +
        cooldown`` is rounded and may land an ulp either side of the
        instant :meth:`state`'s own test ``now - opened_at >= cooldown``
        first holds; since that test is monotone in ``now``, stepping to
        the neighbouring floats until it flips gives the exact instant.
        """
        opened_at = self.opened_at
        if opened_at is None:
            return math.inf
        cooldown = self.cooldown
        at = opened_at + cooldown
        while at - opened_at < cooldown:
            at = math.nextafter(at, math.inf)
        while (before := math.nextafter(at, -math.inf)) - opened_at >= cooldown:
            at = before
        return at

    def record_success(self, now: float) -> None:
        """A heartbeat probe or handoff succeeded."""
        self.n_successes += 1
        if self.state(now) == "open":
            # Classical breaker discipline: while open, nothing is being
            # sent, so a stray "success" carries no information — ignore
            # it rather than letting it silently half-close the breaker.
            return
        self.failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        """A heartbeat probe or handoff failed."""
        self.n_failures += 1
        state = self.state(now)
        if state == "open":
            return
        if state == "half_open":
            # The trial failed: re-open and restart the cooldown.
            self.opened_at = now
            self.n_trips += 1
            return
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self.opened_at = now
            self.n_trips += 1


class HealthMonitor:
    """The dispatcher's belief about every registered host.

    Hosts must be registered explicitly (``register_host``); probing or
    masking an unregistered id is a programming error and raises — this
    is the registration boundary the fault layer validates against (see
    :meth:`repro.sim.faults.FaultInjector.attach`).
    """

    def __init__(self, failure_threshold: int = 2, cooldown: float = 20.0) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = float(cooldown)
        self._breakers: dict[int, CircuitBreaker] = {}
        #: bumped only when an observation (or a registration) changes a
        #: breaker's *routing* state — ``failures``/``opened_at`` — never
        #: on the success counters, so the per-handoff success probes the
        #: dispatcher feeds back do not thrash the caches below.
        self._obs_version = 0
        #: the array :meth:`up_mask` hands out, built on first request
        #: after each recomputation of the mask.
        self._mask_cache: np.ndarray | None = None
        self._mask_version = -1
        self._mask_built_at = 0.0
        self._mask_valid_until = 0.0
        #: the mask :meth:`refresh` last computed, as a tuple of bools,
        #: and whether it has a live host — what the dispatcher reads per
        #: decision.
        self.live: tuple[bool, ...] = ()
        self.any_live = False
        self._pristine_version = -1
        self._pristine_cache = True

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_host(self, host_id: int) -> None:
        if host_id in self._breakers:
            raise ValueError(f"host {host_id} is already registered")
        self._breakers[host_id] = CircuitBreaker(
            failure_threshold=self.failure_threshold, cooldown=self.cooldown
        )
        self._obs_version += 1

    @property
    def host_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._breakers))

    def breaker(self, host_id: int) -> CircuitBreaker:
        try:
            return self._breakers[host_id]
        except KeyError:
            raise KeyError(
                f"host {host_id} was never registered with the health "
                f"monitor (registered: {sorted(self._breakers)})"
            ) from None

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------

    def probe(self, host_id: int, healthy: bool, now: float) -> None:
        """Fold one observation (heartbeat or handoff outcome) in."""
        try:
            breaker = self._breakers[host_id]
        except KeyError:
            breaker = self.breaker(host_id)  # raises, naming the roster
        if healthy and breaker.failures == 0 and breaker.opened_at is None:
            # A success on a clean closed breaker changes nothing but the
            # tally; this is the per-handoff common case.
            breaker.n_successes += 1
            return
        self._observe(breaker, healthy, now)

    def probe_all(self, healthy: Sequence[bool], now: float) -> None:
        """One heartbeat round: ``probe(i, healthy[i], now)`` for every
        host ``i`` in order."""
        breakers = self._breakers
        for host_id, ok in enumerate(healthy):
            try:
                breaker = breakers[host_id]
            except KeyError:
                breaker = self.breaker(host_id)
            opened_at = breaker.opened_at
            if opened_at is None:
                if ok and breaker.failures == 0:
                    breaker.n_successes += 1  # clean success: tally only
                    continue
            elif now - opened_at < breaker.cooldown:
                # An open breaker ignores every observation but its tally
                # (the ``state == "open"`` returns of ``record_*``).
                if ok:
                    breaker.n_successes += 1
                else:
                    breaker.n_failures += 1
                continue
            self._observe(breaker, ok, now)

    def _observe(self, breaker: CircuitBreaker, healthy: bool, now: float) -> None:
        before = (breaker.failures, breaker.opened_at)
        if healthy:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)
        if (breaker.failures, breaker.opened_at) != before:
            self._obs_version += 1

    # ------------------------------------------------------------------
    # the dispatch mask
    # ------------------------------------------------------------------

    def refresh(self, now: float) -> tuple[bool, ...]:
        """Bring :attr:`live` and :attr:`any_live` up to ``now`` and
        return :attr:`live`: the believed-live mask over hosts 0..n-1
        (closed or half-open) as a tuple, with no array built.

        The mask is recomputed only when an observation changed a
        breaker's routing state, or when ``now`` leaves the window over
        which it is provably constant — ``[built_at, valid_until)``
        where ``valid_until`` is the earliest
        :meth:`~CircuitBreaker.half_opens_at` among breakers that were
        open at build time (open → half-open is the only transition the
        clock alone can cause).
        """
        if (
            self._mask_version == self._obs_version
            and self._mask_built_at <= now < self._mask_valid_until
        ):
            return self.live
        live = []
        valid_until = math.inf
        for _, breaker in sorted(self._breakers.items()):
            allows = breaker.allows(now)
            live.append(allows)
            if not allows:
                valid_until = min(valid_until, breaker.half_opens_at())
        self._mask_cache = None
        self._mask_version = self._obs_version
        self._mask_built_at = now
        self._mask_valid_until = valid_until
        self.live = tuple(live)
        self.any_live = any(live)
        return self.live

    def up_mask(self, now: float) -> np.ndarray:
        """:meth:`refresh`'s mask as a bool ndarray.

        The returned array is **read-only** and shared between calls
        until :meth:`refresh` recomputes the mask.
        """
        live = self.refresh(now)
        mask = self._mask_cache
        if mask is None:
            mask = self._mask_cache = np.array(live, dtype=bool)
            mask.setflags(write=False)
        return mask

    def pristine(self) -> bool:
        """True when no breaker holds *any* failure evidence.

        Stronger than ``up_mask(now).all()``: a closed breaker with
        sub-threshold consecutive failures still allows dispatch but is
        not pristine.  The fault-free fast path keys its engagement off
        this — any failure evidence at all means the engine path must
        watch the breakers evolve.  Cached on the observation version,
        so the per-handoff success probes cost one integer compare.
        """
        if self._pristine_version != self._obs_version:
            self._pristine_cache = all(
                b.opened_at is None and b.failures == 0
                for b in self._breakers.values()
            )
            self._pristine_version = self._obs_version
        return self._pristine_cache

    def states(self, now: float) -> dict[int, str]:
        return {i: b.state(now) for i, b in sorted(self._breakers.items())}

    def status(self, now: float) -> dict:
        """Observability snapshot (serialisable)."""
        return {
            str(i): {
                "state": b.state(now),
                "consecutive_failures": b.failures,
                "trips": b.n_trips,
                "observations": {"ok": b.n_successes, "failed": b.n_failures},
            }
            for i, b in sorted(self._breakers.items())
        }
