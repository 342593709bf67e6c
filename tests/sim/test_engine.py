"""Tests for the discrete-event engine and event primitives."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    InvariantViolation,
    SimulationError,
    Simulator,
    set_event_hook,
)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_run_fifo(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(5.0, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_schedule_after(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: sim.schedule_after(3.0, lambda: seen.append(sim.now)))
        sim.run()
        # The inner event fires at 2 + 3 = 5; callback reads the clock then.
        assert seen == [5.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5, lambda: None)

    def test_rejects_nonfinite_time(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.inf, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)

    def test_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def chain(n: int) -> None:
            fired.append(sim.now)
            if n > 0:
                sim.schedule_after(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 4)
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_mid_run(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_handle_time(self):
        sim = Simulator()
        h = sim.schedule(7.5, lambda: None)
        assert h.time == 7.5

    def test_the_event_is_its_own_handle(self):
        sim = Simulator()
        fired = []
        seen = []
        handle = sim.schedule_after(1.0, fired.append, "x")
        previous = set_event_hook(seen.append)
        try:
            sim.run()
        finally:
            set_event_hook(previous)
        assert seen == [handle]

    def test_cancel_after_firing_does_nothing(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.schedule(2.0, fired.append, "y")
        sim.run(until=1.5)
        handle.cancel()
        sim.run()
        assert fired == ["x", "y"]
        assert sim.events_processed == 2
        assert sim.pending == 0


class TestRunControl:
    def test_run_until(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, fired.append, t)
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_with_empty_calendar_advances_clock(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for t in range(5):
            sim.schedule(float(t), fired.append, t)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]

    def test_counters(self):
        sim = Simulator()
        for t in range(3):
            sim.schedule(float(t), lambda: None)
        assert sim.pending == 3
        sim.run()
        assert sim.events_processed == 3
        assert sim.pending == 0


class TestLoopSemantics:
    """What :meth:`Simulator.run` and :meth:`Simulator.step` promise."""

    def test_stop_from_a_callback_keeps_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.schedule(4.0, fired.append, 4)
        sim.run(until=10.0)
        assert fired == [1]
        assert sim.stopped
        assert sim.now == 2.0  # a stop does not advance the clock to until
        assert sim.pending == 2
        sim.run()  # resumes where the clock stopped
        assert fired == [1, 3, 4]
        assert not sim.stopped
        assert sim.now == 4.0

    def test_stop_on_the_last_event_still_reaches_until(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.run(until=5.0)
        assert sim.pending == 0
        assert sim.now == 5.0

    def test_hook_sees_the_new_clock_before_the_callback(self):
        sim = Simulator()
        log = []

        def hook(event):
            log.append(("hook", event.time, event.seq, sim.now))

        def callback(tag):
            log.append(("callback", tag, sim.now))

        sim.schedule(2.0, callback, "b")
        cancelled = sim.schedule(1.5, callback, "dead")
        sim.schedule(1.0, callback, "a")
        cancelled.cancel()
        previous = set_event_hook(hook)
        try:
            sim.run()
        finally:
            set_event_hook(previous)
        assert log == [
            ("hook", 1.0, 2, 1.0),
            ("callback", "a", 1.0),
            ("hook", 2.0, 0, 2.0),
            ("callback", "b", 2.0),
        ]

    def test_strict_backwards_clock_raises_from_run(self):
        sim = Simulator(strict=True)
        sim.schedule(1.0, lambda: None)
        sim._now = 5.0  # simulate heap/clock corruption
        with pytest.raises(InvariantViolation, match="backwards"):
            sim.run()

    def test_strict_checkers_run_after_every_callback(self):
        sim = Simulator(strict=True)
        fired = []
        checked = []
        sim.add_invariant_checker(lambda s: checked.append((s.now, list(fired))))
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=1.5)
        assert checked == [(1.0, ["a"])]
        assert sim.step() is True
        assert checked == [(1.0, ["a"]), (2.0, ["a", "b"])]

    def test_max_events_zero_executes_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.run(until=5.0, max_events=0)
        assert fired == []
        assert sim.events_processed == 0
        assert sim.pending == 1
        assert sim.now == 0.0

    def test_max_events_counts_callbacks_not_cancelled_pops(self):
        sim = Simulator()
        fired = []
        for t in range(4):
            handle = sim.schedule(float(t), fired.append, t)
            if t % 2 == 0:
                handle.cancel()
        sim.run(max_events=1)
        assert fired == [1]
        sim.run(max_events=1)
        assert fired == [1, 3]

    def test_step_on_only_cancelled_events_returns_false(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None).cancel()
        assert sim.step() is False
        assert sim.pending == 0
        assert sim.events_processed == 0
        assert sim.now == 0.0

    def test_step_ignores_a_previous_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert sim.stopped and fired == []
        assert sim.step() is True
        assert fired == [2]

    def test_run_until_never_moves_the_clock_back(self):
        sim = Simulator()
        sim.run(until=5.0)
        sim.run(until=3.0)
        assert sim.now == 5.0
        sim.schedule(6.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 5.0


def fire_calendar(seed: int, via_fire: bool):
    """One random calendar, run up to a random instant, then an arrival
    offered there through :meth:`Simulator.fire` (``via_fire``) or
    through ``schedule(now)`` followed by ``run(until=now)``.

    The arrival and every event schedule random follow-ons, some at
    their own instant (so at ``now`` too), some later, and some cancel
    a pending event.  Returns what the two ways must agree on: the
    hook's ``(time, seq, qualname)`` stream and the checker calls up to
    the moment the arrival call returns and after a full drain, the
    callbacks run at ``now``, ``events_processed`` and the clock.
    """
    rng = random.Random(seed)
    sim = Simulator(strict=True)
    hooked = []
    checks = []
    fired = []
    handles = []
    sim.add_invariant_checker(lambda s: checks.append((s.now, s.events_processed)))

    def spawn(tag: str, depth: int) -> None:
        fired.append((tag, sim.now))
        if depth >= 3:
            return
        for k in range(rng.randint(0, 3)):
            delay = rng.choice([0.0, 0.0, rng.uniform(0.0, 5.0)])
            handles.append(sim.schedule_after(delay, spawn, f"{tag}.{k}", depth + 1))
        if handles and rng.random() < 0.2:
            handles[rng.randrange(len(handles))].cancel()

    for i in range(rng.randint(0, 12)):
        handles.append(sim.schedule(float(rng.randint(0, 10)), spawn, f"pre{i}", 1))
        if rng.random() < 0.2:
            handles[-1].cancel()
    if rng.random() < 0.2:
        sim.schedule(float(rng.randint(0, 10)), sim.stop)
    previous = set_event_hook(
        lambda e: hooked.append((e.time, e.seq, e.callback.__qualname__))
    )
    try:
        sim.run(until=float(rng.randint(0, 10)))
        while sim.stopped and sim.pending and sim._heap[0][0] <= sim.now:
            sim.run(until=sim.now)
        now = sim.now
        before = len(fired)
        if via_fire:
            sim.fire(spawn, "arrival", 0)
        else:
            sim.schedule(now, spawn, "arrival", 0)
            sim.run(until=now)
        at_return = (
            list(hooked), list(checks), fired[before:], sim.events_processed,
            sim.now, sim.stopped,
        )
        sim.run()
    finally:
        set_event_hook(previous)
    return at_return, (hooked, checks, fired, sim.events_processed, sim.now)


class TestFire:
    """``fire`` is ``schedule(now)`` followed by ``run(until=now)``."""

    def test_equals_the_calendar_round_trip(self):
        runs_at_now = []
        for seed in range(300):
            fired = fire_calendar(seed, via_fire=True)
            assert fired == fire_calendar(seed, via_fire=False), seed
            runs_at_now.append(len(fired[0][2]))
        # Some arrivals schedule follow-ons at ``now`` and some do not.
        assert max(runs_at_now) > 1 and min(runs_at_now) == 1

    def test_raises_while_an_event_at_now_is_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.0, fired.append, "pending")
        sim.run(until=1.0)
        assert sim.now == 1.0 and sim.pending == 1
        with pytest.raises(SimulationError, match="pending"):
            sim.fire(fired.append, "arrival")
        assert fired == []
        assert sim.events_processed == 1

    def test_a_cancelled_event_at_now_does_not_block(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(1.0, fired.append, "dead").cancel()
        sim.run(until=1.0)
        sim.fire(fired.append, "arrival")
        assert fired == ["arrival"]
        assert sim.pending == 0

    def test_builds_no_event_without_a_hook(self, monkeypatch):
        import repro.sim.engine as engine

        built = []
        monkeypatch.setattr(engine, "Event", lambda *a: built.append(a))
        sim = Simulator()
        sim.fire(lambda: None)
        assert built == [] and sim.events_processed == 1


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_events_always_fire_in_nondecreasing_time(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule(t, lambda t=t: seen.append(sim.now))
    sim.run()
    assert len(seen) == len(times)
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert sorted(times)[-1] == sim.now
