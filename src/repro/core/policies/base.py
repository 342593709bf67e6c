"""The task-assignment policy protocol.

A *task assignment policy* is the rule the dispatcher uses to route each
arriving job to one of the ``h`` hosts (paper section 1.2).  Policies come
in four kinds, advertised through the :attr:`Policy.kind` class attribute:

``"static"``
    The choice depends only on the job (its size estimate) and internal
    policy state — Random, Round-Robin, SITA-*.  Static policies also
    implement :meth:`StaticPolicy.assign_batch`, a vectorised assignment
    of a whole trace at once, which is what lets the fast simulator run
    load sweeps with pure NumPy.
``"state"``
    The choice inspects the current host states (queue lengths or
    remaining work) — Shortest-Queue, Least-Work-Left, grouped SITA.
``"central"``
    No per-arrival choice at all: jobs wait in a FCFS queue at the
    dispatcher and idle hosts pull (Central-Queue, provably equivalent to
    Least-Work-Left).
``"tags"``
    TAGS mechanics (host ``i`` kills jobs exceeding cutoff ``i``; the job
    restarts on host ``i+1``) — the unknown-size extension.

Policies are cheap, reusable objects; :meth:`Policy.reset` re-initialises
any internal state for a fresh run.  Simulators duck-type against this
protocol, so custom user policies only need to match the signatures.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ...sim.jobs import Job
    from ...sim.server import SystemState

__all__ = [
    "Policy",
    "StaticPolicy",
    "StatePolicy",
    "first_live_argmin",
    "nearest_live_host",
]


def nearest_live_host(choice: int, up: np.ndarray) -> int:
    """Closest live host to ``choice`` by index distance (ties → lower index).

    The default fault-tolerant re-route: a SITA policy whose designated
    host is down *spills its size interval* to the adjacent live host,
    preserving as much of the size-segregation structure as possible.
    """
    live = np.flatnonzero(up)
    if live.size == 0:
        raise ValueError("no live host to dispatch to")
    return int(live[np.argmin(np.abs(live - choice))])


def first_live_argmin(values, up) -> int:
    """Index of the smallest of ``values`` over live hosts (ties → lower index).

    Exactly ``int(np.argmin(np.where(up, values, np.inf)))`` for NaN-free
    values — including its answer of 0 when no live value is below
    infinity — as a plain-Python scan: on the handful of hosts a
    dispatcher has, two numpy calls per decision cost several times
    more than the loop.  ``values`` and ``up`` may be sequences or
    ndarrays.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if isinstance(up, np.ndarray):
        up = up.tolist()
    best = 0
    lowest = math.inf
    for i, value in enumerate(values):
        if up[i] and value < lowest:
            best = i
            lowest = value
    return best


class Policy(ABC):
    """Base class for all task assignment policies."""

    #: dispatch discipline; see module docstring.
    kind: ClassVar[str]
    #: short label used in reports and plots.
    name: str = "policy"
    #: optional tag the fast simulator uses to pick a specialised kernel
    #: ("lwl", "sq", "grouped"); None means the generic path.
    fast_hint: ClassVar[str | None] = None

    def reset(self, n_hosts: int, rng: np.random.Generator) -> None:
        """Prepare for a fresh run on ``n_hosts`` hosts.

        Subclasses overriding this must call ``super().reset(...)``.
        """
        if n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        self.n_hosts = n_hosts
        self.rng = rng

    def choose_host(self, job: "Job", state: "SystemState") -> int:
        """Route one job (kinds ``static`` and ``state``)."""
        raise NotImplementedError(
            f"{type(self).__name__} (kind={self.kind!r}) does not dispatch per-job"
        )

    def choose_live_host(
        self, job: "Job", state: "SystemState", up: np.ndarray
    ) -> int:
        """Route one job when some hosts may be down (fault injection).

        ``up`` is a boolean mask over host indices with at least one
        ``True``; the returned index must be live.  The default makes the
        normal choice and, if that host is down, spills to the nearest
        live one — the documented behaviour for SITA variants.
        State-dependent policies override this to re-run their argmin
        over live hosts only.  When every host is up this MUST reduce to
        :meth:`choose_host` exactly (same RNG draws included), so a
        failure rate of zero is bit-identical to no fault model at all.
        """
        choice = self.choose_host(job, state)
        if up[choice]:
            return choice
        return nearest_live_host(choice, up)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class StaticPolicy(Policy):
    """A policy whose choices ignore host state (vectorisable)."""

    kind = "static"

    @abstractmethod
    def assign_batch(
        self, sizes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Assign every job of a trace at once.

        Parameters
        ----------
        sizes:
            Per-job size *estimates* in arrival order.
        rng:
            Generator for any randomness (so batch assignment is exactly
            as reproducible as per-job assignment).

        Returns
        -------
        numpy.ndarray
            Integer host index per job.
        """


class StatePolicy(Policy):
    """A policy that inspects host state on every arrival."""

    kind = "state"
