"""The classical load-balancing policies of paper section 1.2.

* :class:`RandomPolicy` — Bernoulli splitting, equalises the *expected*
  number of jobs per host;
* :class:`RoundRobinPolicy` — cyclic assignment (job ``i`` to host
  ``i mod h``), same means with slightly less arrival variability;
* :class:`ShortestQueuePolicy` — fewest jobs in system;
* :class:`LeastWorkLeftPolicy` — least remaining work (the closest thing
  to instantaneous load balance);
* :class:`CentralQueuePolicy` — FCFS queue at the dispatcher, hosts pull
  when idle; provably equivalent to Least-Work-Left (section 3.1), which
  the test suite checks empirically.
"""

from __future__ import annotations

import numpy as np

from .base import Policy, StatePolicy, StaticPolicy, first_live_argmin

__all__ = [
    "RandomPolicy",
    "RoundRobinPolicy",
    "ShortestQueuePolicy",
    "LeastWorkLeftPolicy",
    "CentralQueuePolicy",
]


class RandomPolicy(StaticPolicy):
    """Send each job to a uniformly random host."""

    name = "random"

    def choose_host(self, job, state) -> int:
        return int(self.rng.integers(self.n_hosts))

    def choose_live_host(self, job, state, up) -> int:
        # Uniform over the live hosts.  With every host up this draws
        # integers(n_hosts) and indexes the identity — bit-identical to
        # choose_host, as the protocol requires.
        live = np.flatnonzero(up)
        return int(live[self.rng.integers(live.size)])

    def assign_batch(self, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(self.n_hosts, size=sizes.size)


class RoundRobinPolicy(StaticPolicy):
    """Cyclic assignment: the ``i``-th arrival goes to host ``i mod h``."""

    name = "round-robin"

    def reset(self, n_hosts: int, rng: np.random.Generator) -> None:
        super().reset(n_hosts, rng)
        self._next = 0

    def choose_host(self, job, state) -> int:
        host = self._next
        self._next = (self._next + 1) % self.n_hosts
        return host

    def choose_live_host(self, job, state, up) -> int:
        # Keep cycling, skipping down hosts; the pointer still advances
        # past them so the rotation resumes cleanly after repair.
        for _ in range(self.n_hosts):
            host = self._next
            self._next = (self._next + 1) % self.n_hosts
            if up[host]:
                return host
        raise ValueError("no live host to dispatch to")

    def assign_batch(self, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.arange(sizes.size) % self.n_hosts


class ShortestQueuePolicy(StatePolicy):
    """Dispatch to the host with the fewest jobs in system (ties → lowest id)."""

    name = "shortest-queue"
    fast_hint = "sq"

    def choose_host(self, job, state) -> int:
        return int(np.argmin(state.queue_lengths()))

    def choose_live_host(self, job, state, up) -> int:
        return first_live_argmin(state.queue_lengths(), up)


class LeastWorkLeftPolicy(StatePolicy):
    """Dispatch to the host with the least remaining work (ties → lowest id).

    With FCFS run-to-completion hosts this is exactly the M/G/h central
    queue in disguise; the fast simulator exploits the equivalence.
    """

    name = "least-work-left"
    fast_hint = "lwl"

    def choose_host(self, job, state) -> int:
        return int(np.argmin(state.work_left()))

    def choose_live_host(self, job, state, up) -> int:
        return first_live_argmin(state.work_left(), up)


class CentralQueuePolicy(Policy):
    """Hold jobs at the dispatcher; an idle host pulls the next one.

    ``discipline`` selects which queued job a freed host takes:

    * ``"fcfs"`` — first-come-first-served: the classical Central-Queue,
      provably equivalent to Least-Work-Left;
    * ``"sjf"`` — shortest (estimated) job first: the "favor short jobs"
      rule the paper's section 8 discusses — excellent mean slowdown but
      *biased*: long jobs can starve, which is exactly the problem
      SITA-U-fair solves without the bias (see the ``ablate_sjf``
      experiment).
    """

    kind = "central"

    def __init__(self, discipline: str = "fcfs") -> None:
        if discipline not in ("fcfs", "sjf"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.discipline = discipline
        self.name = "central-queue" if discipline == "fcfs" else "central-sjf"
