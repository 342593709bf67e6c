"""A minimal, deterministic discrete-event simulation engine.

This is the substrate under the paper's trace-driven simulator: a binary
heap of ``(time, seq, event)`` tuples, a monotone simulation clock, lazy
cancellation, and stop conditions.  ``heapq`` compares the tuples in C,
and the unique ``seq`` settles every tie before the
:class:`~repro.sim.events.Event` payload is reached.  The engine is
deliberately small and legible — the vectorised hot path for large
sweeps lives in :mod:`repro.sim.fast` and is cross-validated against
this engine (see ``tests/sim/test_fast_vs_engine.py``).
"""

from __future__ import annotations

import heapq
import math
import os
from typing import Any, Callable

from .events import Event

__all__ = [
    "Simulator",
    "SimulationError",
    "InvariantViolation",
    "set_event_hook",
    "strict_from_env",
]


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling in the past)."""


class InvariantViolation(SimulationError):
    """A strict-mode sanity check failed: simulator state is inconsistent.

    Raised by the engine's monotone-clock check and by any invariant
    checker registered via :meth:`Simulator.add_invariant_checker` (the
    :class:`~repro.sim.server.DistributedServer` installs one asserting
    work conservation, FCFS order and job conservation).  This always
    indicates a simulator bug, never a modelling choice — results from a
    run that raised it must be discarded.
    """


#: process-wide observer of executed events, installed by ``repro audit``
#: (:mod:`repro.devtools.audit`) to digest the event stream.  ``None``
#: (the default) costs one truthiness test per event.
_EVENT_HOOK: Callable[[Event], None] | None = None


def set_event_hook(hook: Callable[[Event], None] | None) -> Callable[[Event], None] | None:
    """Install ``hook(event)`` to observe every executed event; return the
    previous hook so callers can restore it.

    The hook fires once per non-cancelled event, after the clock has
    advanced and before the callback runs, across **every**
    :class:`Simulator` instance in the process — which is what an audit
    wants: the complete, ordered stream of state transitions.  Pass
    ``None`` to uninstall.  Not a public extension point; the supported
    consumer is the replay-divergence auditor.
    """
    global _EVENT_HOOK
    previous = _EVENT_HOOK
    _EVENT_HOOK = hook
    return previous


def strict_from_env() -> bool:
    """Whether ``REPRO_SIM_STRICT`` asks for strict mode (default: off)."""
    return os.environ.get("REPRO_SIM_STRICT", "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )


class Simulator:
    """Event-calendar simulator with a monotone clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run()          # drains the calendar
        sim.now            # -> 1.5

    Callbacks may schedule further events; time only moves forward.

    Parameters
    ----------
    strict:
        Run the **sanitizer**: re-verify clock monotonicity on every event
        and call the registered invariant checkers after each callback,
        raising :class:`InvariantViolation` on the first inconsistency.
        ``None`` (the default) defers to the ``REPRO_SIM_STRICT``
        environment variable, so an entire test suite can be swept under
        the sanitizer without code changes::

            REPRO_SIM_STRICT=1 python -m pytest
    """

    def __init__(self, strict: bool | None = None) -> None:
        #: the calendar: ``(time, seq, event)`` entries, a binary heap.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._events_processed = 0
        self._strict = strict_from_env() if strict is None else bool(strict)
        self._checkers: list[Callable[["Simulator"], None]] = []
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def strict(self) -> bool:
        """Whether the per-event sanitizer is active."""
        return self._strict

    def add_invariant_checker(self, checker: Callable[["Simulator"], None]) -> None:
        """Register ``checker(sim)`` to run after every event in strict mode.

        Checkers are the pluggable half of the sanitizer: components that
        own state (e.g. the distributed server) register a function that
        raises :class:`InvariantViolation` when that state is
        inconsistent.  Registration is allowed in any mode but checkers
        only run when :attr:`strict` is true, so the non-strict hot path
        pays nothing.
        """
        self._checkers.append(checker)

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def stop(self) -> None:
        """Ask :meth:`run` to return before the next event.

        Needed by components that schedule *unbounded* event streams —
        the fault injector's crash/repair processes never drain on their
        own, so the server calls ``stop()`` once every job is accounted
        for.  Pending events stay in the calendar; a subsequent
        :meth:`run` call would resume from where the clock stopped.
        """
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return len(self._heap)

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        The returned :class:`~repro.sim.events.Event` is the handle:
        ``cancel()`` it to skip it.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        if not time < math.inf:  # inf or NaN
            raise SimulationError(f"event time must be finite, got {time}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def fire(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` now, as the next event.

        The same as ``schedule(now, callback, *args)`` followed by
        ``run(until=now)`` when nothing is pending at or before ``now``:
        the call takes the next ``seq``, counts in
        :attr:`events_processed`, is seen by the event hook and followed
        by the strict checkers, and any event it schedules at ``now``
        runs before this returns.  It builds no calendar entry, and no
        :class:`~repro.sim.events.Event` unless a hook is installed.
        Raises :class:`SimulationError` if an event at or before ``now``
        is still pending, since the round trip would run that one first.
        """
        heap = self._heap
        now = self._now
        while heap and heap[0][0] <= now:
            if not heap[0][2].cancelled:
                raise SimulationError(
                    f"cannot fire at {now}: an event at {heap[0][0]} is pending"
                )
            heapq.heappop(heap)
        self._stopped = False
        seq = self._seq
        self._seq = seq + 1
        self._events_processed += 1
        if _EVENT_HOOK is not None:
            _EVENT_HOOK(Event(now, seq, callback, args))
        callback(*args)
        if self._strict:
            for checker in self._checkers:
                checker(self)
        if heap and heap[0][0] <= now and not self._stopped:
            self._loop(now, None)

    def step(self) -> bool:
        """Run the next non-cancelled event.  Returns False if none remain."""
        return self._loop(None, 1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the calendar.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time (the clock
            is advanced to ``until``).
        max_events:
            Safety valve: stop after this many callbacks.
        """
        self._stopped = False
        heap = self._heap
        # ``not >`` rather than ``<=``: a NaN ``until`` runs the loop.
        if heap and (until is None or not heap[0][0] > until):
            self._loop(until, max_events)
        elif until is not None:
            # Nothing is due by ``until``: only the clock moves.
            self._now = max(self._now, until)

    def _loop(self, until: float | None, max_events: int | None) -> int:
        """The one event loop behind :meth:`run` and :meth:`step`.

        Pops and fires events in ``(time, seq)`` order until the calendar
        is empty, the next event lies after ``until``, ``max_events``
        callbacks have run, or a callback called :meth:`stop` with events
        still pending; returns the number of callbacks run.  The clock
        moves to ``until`` only when the loop ends for lack of events at
        or before it.
        """
        heap = self._heap
        pop = heapq.heappop
        strict = self._strict
        checkers = self._checkers
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        executed = 0
        while heap:
            if executed >= limit:
                return executed
            time, _, event = heap[0]
            if event.cancelled:
                pop(heap)
                continue
            if time > horizon:
                self._now = max(self._now, horizon)
                return executed
            pop(heap)
            if strict and time < self._now:
                raise InvariantViolation(
                    f"clock would move backwards: event at {time} "
                    f"popped at simulated time {self._now}"
                )
            self._now = time
            self._events_processed += 1
            executed += 1
            if _EVENT_HOOK is not None:
                _EVENT_HOOK(event)
            event.callback(*event.args)
            if strict:
                for checker in checkers:
                    checker(self)
            if self._stopped and heap:
                return executed
        if until is not None:
            self._now = max(self._now, until)
        return executed
