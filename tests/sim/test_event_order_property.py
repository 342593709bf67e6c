"""Property-based tests of the engine's event-ordering contract.

The determinism stack (these tests, the replay auditor) leans on one promise
from :mod:`repro.sim.events`: events fire in ``(time, seq)`` order —
simultaneous events in exactly the order they were scheduled — and a
cancelled event never fires, whether cancelled before its time, at its
time (from an earlier simultaneous event), or mid-run.  Hypothesis
drives the schedule shapes; every property must hold for *any* of them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

# times drawn from a tiny grid on purpose: collisions (simultaneous
# events) are the interesting case and a coarse grid makes them common.
_TIME_GRID = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0])
_SCHEDULES = st.lists(_TIME_GRID, min_size=1, max_size=40)


@given(times=_SCHEDULES)
def test_events_fire_in_time_then_schedule_order(times):
    sim = Simulator()
    fired: list[int] = []
    for i, t in enumerate(times):
        sim.schedule(t, fired.append, i)
    sim.run()
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert fired == expected


@given(times=_SCHEDULES, data=st.data())
def test_cancelled_events_never_fire(times, data):
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1)),
        label="to_cancel",
    )
    sim = Simulator()
    fired: list[int] = []
    handles = [sim.schedule(t, fired.append, i) for i, t in enumerate(times)]
    for i in sorted(to_cancel):
        handles[i].cancel()
        assert handles[i].cancelled
    sim.run()
    expected = [
        i
        for _, i in sorted((t, i) for i, t in enumerate(times))
        if i not in to_cancel
    ]
    assert fired == expected
    assert sim.events_processed == len(expected)


@given(times=_SCHEDULES, data=st.data())
def test_cancellation_from_a_simultaneous_event_wins(times, data):
    """An event may cancel a *later-scheduled simultaneous* event.

    seq order guarantees the canceller runs first, so the victim must
    never fire — the lazy-cancellation edge case: the victim is already
    in the heap, possibly already popped-adjacent, when it dies.
    """
    victim_index = data.draw(
        st.integers(min_value=0, max_value=len(times) - 1), label="victim"
    )
    victim_time = times[victim_index]
    sim = Simulator()
    fired: list[int] = []
    handles: dict[int, object] = {}

    def cancel_victim():
        handles[victim_index].cancel()

    # the canceller is scheduled *before* the victim at the same time,
    # so it holds the smaller seq and runs first
    sim.schedule(victim_time, cancel_victim)
    for i, t in enumerate(times):
        handles[i] = sim.schedule(t, fired.append, i)
    sim.run()
    assert victim_index not in fired
    expected = [
        i for _, i in sorted((t, i) for i, t in enumerate(times)) if i != victim_index
    ]
    assert fired == expected


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_interleaved_schedule_cancel_chains_are_deterministic(seed):
    """A randomized schedule/cancel workload replays bit-identically.

    Each callback may schedule further events and cancel a pending one,
    driven by a seeded Generator — two runs with equal seeds must
    produce identical firing logs (the property `repro audit` checks on
    whole experiments).
    """

    def run_once() -> list[tuple[float, int]]:
        rng = np.random.default_rng(seed)
        sim = Simulator()
        log: list[tuple[float, int]] = []
        pending: list = []
        counter = [0]

        def fire(tag: int) -> None:
            log.append((sim.now, tag))
            if counter[0] < 200 and rng.random() < 0.6:
                for _ in range(int(rng.integers(1, 3))):
                    counter[0] += 1
                    pending.append(
                        sim.schedule_after(
                            float(rng.choice([0.0, 0.5, 1.0])), fire, counter[0]
                        )
                    )
            if pending and rng.random() < 0.3:
                pending.pop(int(rng.integers(0, len(pending)))).cancel()

        for _ in range(5):
            counter[0] += 1
            pending.append(sim.schedule(float(rng.choice([0.0, 1.0])), fire, counter[0]))
        sim.run(max_events=2000)
        return log

    assert run_once() == run_once()
