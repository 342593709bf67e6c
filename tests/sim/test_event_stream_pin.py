"""Pinned event streams: the engine's output must not move.

Two faulted runs are fingerprinted end to end:

* a 5k-job :class:`~repro.serve.server.DispatchServer` stream with the
  ``serve-faulted`` benchmark configuration (``repro serve c90 --policy
  lwl --hosts 4 --mtbf 20000 --mttr 2000 --fault-semantics resume``);
* one ``simulate(..., backend="event", faults=...)`` point.

Each fingerprint is the number of executed events, a sha256 over every
executed event's ``(time, seq, callback.__qualname__)`` taken through
:func:`~repro.sim.engine.set_event_hook`, and a sha256 over the per-job
results.  The expected values are constants: any change to event
order, to the clock arithmetic or to a float expression on the dispatch
path shows up here.  Re-record them only for a change meant to alter
the event stream.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.policies import LeastWorkLeftPolicy
from repro.serve.runner import add_serve_arguments, build_server
from repro.sim import simulate
from repro.sim.engine import set_event_hook
from repro.sim.faults import FaultModel
from repro.workloads.catalog import get_workload

SERVE_FAULTED_ARGV = [
    "c90", "--policy", "lwl", "--hosts", "4", "--seed", "1",
    "--mtbf", "20000", "--mttr", "2000",
    "--fault-semantics", "resume", "--fault-seed", "3",
]


class EventDigest:
    """sha256 over executed events, plus their count."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.n_events = 0

    def __call__(self, event) -> None:
        self.n_events += 1
        self.sha.update(struct.pack("<dq", event.time, event.seq))
        self.sha.update(event.callback.__qualname__.encode())


@contextmanager
def event_digest():
    """Install an :class:`EventDigest` as the event hook for the body."""
    digest = EventDigest()
    previous = set_event_hook(digest)
    try:
        yield digest
    finally:
        set_event_hook(previous)


def columns_digest(columns: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(columns):
        col = np.ascontiguousarray(columns[name])
        h.update(name.encode())
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    return h.hexdigest()


def serve_faulted_fingerprint(n_jobs: int, seed: int) -> tuple[int, str, str]:
    parser = argparse.ArgumentParser()
    add_serve_arguments(parser)
    args = parser.parse_args(SERVE_FAULTED_ARGV)
    trace = get_workload(args.workload).make_trace(
        load=args.load, n_hosts=args.hosts, n_jobs=n_jobs, rng=seed
    )
    t0 = float(trace.arrival_times[0])
    jobs = [
        (float(t) - t0, float(s))
        for t, s in zip(trace.arrival_times.tolist(), trace.service_times.tolist())
    ]
    server = build_server(args)
    with event_digest() as digest:
        server.run_stream(jobs, batch_size=1)
    assert digest.n_events == server._inner.sim.events_processed
    return digest.n_events, digest.sha.hexdigest(), columns_digest(server.job_table())


def simulate_faulted_fingerprint() -> tuple[int, str, str]:
    trace = get_workload("c90").make_trace(load=0.7, n_hosts=4, n_jobs=3000, rng=5)
    faults = FaultModel(mtbf=20_000.0, mttr=2_000.0, semantics="resume", seed=3)
    with event_digest() as digest:
        result = simulate(
            trace, LeastWorkLeftPolicy(), 4, rng=7, backend="event", faults=faults
        )
    return digest.n_events, digest.sha.hexdigest(), columns_digest(
        {
            "wait": result.wait_times,
            "host": result.host_assignments,
            "wasted": result.wasted_work,
        }
    )


# (events_processed, event-stream sha256, job-table sha256) per seed.
SERVE_FAULTED_PINS = {
    20000731: (
        20265,
        "f794c28863342db8f2caa6b8cebb774c0c552f753fb98710a8315dd9ff808bba",
        "126c26cd9c9682a39b8cd943bba43ff0e02d0a88b16c56d6d176c0fbe9def03e",
    ),
    11: (
        17584,
        "86d65e74faecad8f6c710e0980a205a681b555e940681e202ce73c833bbb1562",
        "800530b8041821ba439977a2de142d0db7064cfd657ca313e7979f95ca6bbe39",
    ),
}

SIMULATE_FAULTED_PIN = (
    7767,
    "8f085a84d63f01e32ea868f3bd2273509250c53df323f5de083ff44ef65e020f",
    "0ae0079e4fe26b4f869621d877d8c3344a68ef8f92f631dc3d64c7b62fbfb375",
)


@pytest.mark.parametrize("seed", sorted(SERVE_FAULTED_PINS))
def test_serve_faulted_event_stream_is_pinned(seed):
    assert serve_faulted_fingerprint(5000, seed) == SERVE_FAULTED_PINS[seed]


def test_simulate_event_backend_with_faults_is_pinned():
    assert simulate_faulted_fingerprint() == SIMULATE_FAULTED_PIN
