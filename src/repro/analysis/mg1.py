"""M/G/1 FCFS analysis — the paper's Theorem 1 (Pollaczek–Khinchine).

For a single FCFS queue with Poisson(λ) arrivals and service distribution
``X`` at utilisation ρ = λ·E[X] < 1:

* ``E[W] = λ·E[X²] / (2(1 − ρ))``                       (Pollaczek–Khinchine)
* ``E[W²] = 2·E[W]² + λ·E[X³] / (3(1 − ρ))``            (Takács)
* ``E[Q] = λ·E[W]``                                     (Little)

Because an arriving job's waiting time is independent of its own size
(PASTA + FCFS), slowdown moments factor:

* waiting slowdown  ``S_w = W/X``:  ``E[S_w] = E[W]·E[1/X]``,
  ``E[S_w²] = E[W²]·E[1/X²]`` — this is the paper's Theorem-1 convention;
* response slowdown ``S = (W+X)/X = 1 + S_w``: same variance, mean + 1.

Everything a task-assignment analysis needs is bundled in
:class:`MG1Metrics`, produced by :func:`mg1_metrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..workloads.distributions import ServiceDistribution

__all__ = [
    "MG1Metrics",
    "mg1_metrics",
    "mg1_ps_mean_slowdown",
    "utilisation",
    "safe_inverse_moments",
]


def safe_inverse_moments(dist: ServiceDistribution) -> tuple[float, float]:
    """``(E[1/X], E[1/X^2])``, or ``inf`` where the moment diverges.

    For distributions whose density is positive at 0 (exponential,
    hyperexponential, …) the expected slowdown is genuinely infinite —
    arbitrarily small jobs see unbounded slowdown from any positive wait.
    Real traces have a minimum job size, so this only arises for idealised
    models; reporting ``inf`` keeps the waiting-time metrics usable.
    """
    try:
        inv1 = dist.inverse_moment
    except ValueError:
        return math.inf, math.inf
    try:
        inv2 = dist.inverse_second_moment
    except ValueError:
        return inv1, math.inf
    return inv1, inv2


def utilisation(arrival_rate: float, dist: ServiceDistribution) -> float:
    """ρ = λ·E[X]."""
    if arrival_rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {arrival_rate}")
    return arrival_rate * dist.mean


@dataclass(frozen=True)
class MG1Metrics:
    """Closed-form steady-state metrics of one M/G/1 FCFS queue."""

    arrival_rate: float
    utilisation: float
    mean_wait: float
    second_moment_wait: float
    mean_response: float
    mean_queue_length: float
    #: E[W/X] — the paper's Theorem-1 "slowdown".
    mean_waiting_slowdown: float
    #: E[(W+X)/X] = 1 + E[W/X].
    mean_slowdown: float
    #: Var[W/X] = Var[(W+X)/X].
    var_slowdown: float

    @property
    def var_wait(self) -> float:
        return self.second_moment_wait - self.mean_wait**2


def mg1_metrics(arrival_rate: float, dist: ServiceDistribution) -> MG1Metrics:
    """Evaluate Theorem 1 for one FCFS host.

    Raises
    ------
    ValueError
        If ρ = λ·E[X] ≥ 1 (the queue is unstable — the cutoff search uses
        this as its feasibility boundary).
    """
    rho = utilisation(arrival_rate, dist)
    if rho >= 1.0:
        raise ValueError(f"unstable queue: utilisation {rho:.4f} >= 1")
    return _mg1_from_moments(
        arrival_rate,
        dist.mean,
        dist.second_moment,
        dist.third_moment,
        *safe_inverse_moments(dist),
    )


def _mg1_from_moments(
    arrival_rate: float,
    mean: float,
    m2: float,
    m3: float,
    inv1: float,
    inv2: float,
) -> MG1Metrics:
    """Theorem 1 on the service moments ``E[X^j]``, ``j = 1, 2, 3, −1, −2``
    (inverse moments ``inf`` where they diverge); the caller has checked
    ``λ > 0`` and ``ρ < 1``."""
    rho = arrival_rate * mean
    ew = arrival_rate * m2 / (2.0 * (1.0 - rho))
    ew2 = 2.0 * ew**2 + arrival_rate * m3 / (3.0 * (1.0 - rho))
    mean_wslow = ew * inv1
    var_slow = ew2 * inv2 - mean_wslow**2 if math.isfinite(inv2) else math.inf
    return MG1Metrics(
        arrival_rate=arrival_rate,
        utilisation=rho,
        mean_wait=ew,
        second_moment_wait=ew2,
        mean_response=ew + mean,
        mean_queue_length=arrival_rate * ew,
        mean_waiting_slowdown=mean_wslow,
        mean_slowdown=1.0 + mean_wslow,
        var_slowdown=var_slow,
    )


def mg1_ps_mean_slowdown(arrival_rate: float, dist: ServiceDistribution) -> float:
    """Mean slowdown of an M/G/1 *Processor-Sharing* queue: ``1/(1 − ρ)``.

    The paper's footnote 1: PS is "ultimately fair in that every job
    experiences the same expected slowdown" — conditional response time is
    ``E[T | x] = x/(1 − ρ)`` for every size ``x``, independent of the
    service distribution.  The paper's model forbids time-sharing (huge
    memory footprints), so PS is a fairness *reference*, not a candidate
    policy; SITA-U-fair approximates its fairness without preemption.
    """
    rho = utilisation(arrival_rate, dist)
    if rho >= 1.0:
        raise ValueError(f"unstable queue: utilisation {rho:.4f} >= 1")
    return 1.0 / (1.0 - rho)
