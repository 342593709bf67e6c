"""Event primitives for the discrete-event engine.

The engine (:mod:`repro.sim.engine`) is a classical event-calendar
simulator: an event is a callback scheduled at a simulated time, ties are
broken by insertion order (FIFO), and events can be cancelled.  The
calendar orders plain ``(time, seq, event)`` tuples, so :class:`Event`
itself defines no ordering — ``seq`` is unique, and the tuple comparison
never reaches the event.  An event is also its own cancel handle.
Keeping the primitives in their own module keeps the engine readable and
lets tests exercise ordering semantics in isolation.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Event"]


class Event:
    """A scheduled callback, and the handle ``Simulator.schedule`` returns.

    ``(time, seq)`` is its place in the calendar: simultaneous events run
    in the order they were scheduled — deterministic replay is a hard
    requirement for the trace-driven experiments.  :meth:`cancel` before
    the event fires makes the engine skip it; after, it does nothing.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the engine skips it lazily (O(1))."""
        self.cancelled = True

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"callback={self.callback!r}, args={self.args!r}, "
            f"cancelled={self.cancelled!r})"
        )
