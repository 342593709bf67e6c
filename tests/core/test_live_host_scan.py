"""The scalar live-host scans against their numpy reference.

Least-Work-Left and Shortest-Queue pick a live host with a plain-Python
first-minimum scan (:func:`repro.core.policies.base.first_live_argmin`).
It must answer exactly what ``np.argmin(np.where(up, x, np.inf))`` does,
ties included, for state values and masks given as lists or ndarrays —
policies only see the duck-typed ``state`` protocol.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policies import LeastWorkLeftPolicy, ShortestQueuePolicy
from repro.core.policies.base import first_live_argmin
from repro.sim.jobs import Job

JOB = Job(index=0, arrival_time=0.0, size=1.0)

# A coarse grid makes ties the common case.
_WORK = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 1e300])
_QUEUES = st.integers(min_value=0, max_value=3)


class State:
    def __init__(self, queues, work, as_array: bool) -> None:
        self._queues = np.asarray(queues) if as_array else list(queues)
        self._work = np.asarray(work, dtype=float) if as_array else list(work)

    def queue_lengths(self):
        return self._queues

    def work_left(self):
        return self._work


@st.composite
def scenarios(draw, single_live=False):
    n = draw(st.integers(min_value=1, max_value=8))
    queues = draw(st.lists(_QUEUES, min_size=n, max_size=n))
    work = draw(st.lists(_WORK, min_size=n, max_size=n))
    if single_live:
        live = draw(st.integers(min_value=0, max_value=n - 1))
        up = [i == live for i in range(n)]
    else:
        up = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        up[draw(st.integers(min_value=0, max_value=n - 1))] = True
    state = State(queues, work, as_array=draw(st.booleans()))
    mask = np.array(up, dtype=bool) if draw(st.booleans()) else up
    return state, mask


def reference(values, up) -> int:
    return int(np.argmin(np.where(up, values, np.inf)))


def policies(n_hosts: int):
    for policy, metric in (
        (LeastWorkLeftPolicy(), "work_left"),
        (ShortestQueuePolicy(), "queue_lengths"),
    ):
        policy.reset(n_hosts, np.random.default_rng(0))
        yield policy, metric


@given(scenarios())
def test_choose_live_host_matches_numpy(scenario):
    state, up = scenario
    for policy, metric in policies(len(up)):
        values = getattr(state, metric)()
        got = policy.choose_live_host(JOB, state, up)
        assert type(got) is int
        assert got == reference(values, up)
        assert up[got]


@given(scenarios(single_live=True))
def test_a_single_live_host_is_always_chosen(scenario):
    state, up = scenario
    for policy, _ in policies(len(up)):
        assert policy.choose_live_host(JOB, state, up) == int(np.flatnonzero(up)[0])


@given(scenarios())
def test_all_up_reduces_to_choose_host(scenario):
    state, up = scenario
    all_up = np.ones(len(up), dtype=bool)
    for policy, metric in policies(len(up)):
        expected = int(np.argmin(getattr(state, metric)()))
        assert policy.choose_host(JOB, state) == expected
        assert policy.choose_live_host(JOB, state, all_up) == expected


@given(
    st.lists(st.sampled_from([0.0, 1.0, np.inf]), min_size=1, max_size=6),
    st.data(),
)
def test_first_live_argmin_matches_numpy_including_infinities(values, data):
    up = data.draw(
        st.lists(st.booleans(), min_size=len(values), max_size=len(values))
    )
    # With no live host below infinity numpy answers 0; so does the scan.
    for vals in (values, np.array(values)):
        for mask in (up, np.array(up, dtype=bool)):
            assert first_live_argmin(vals, mask) == reference(vals, mask)
