"""High-level simulation entry point.

:func:`simulate` is the one call users need: it routes each policy to the
fastest correct backend (vectorised kernels for everything except the
SJF central queue, which needs the event engine, and any run with fault
injection) and returns a :class:`~repro.sim.metrics.SimulationResult`.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import TYPE_CHECKING

import numpy as np

from ..workloads.distributions import _as_rng
from ..workloads.traces import Trace
from .engine import InvariantViolation
from .fast import simulate_fast
from .metrics import SimulationResult

if TYPE_CHECKING:
    from .faults import FaultModel

__all__ = ["simulate"]


def simulate(
    trace: Trace,
    policy,
    n_hosts: int,
    rng: np.random.Generator | int | None = None,
    size_estimates: np.ndarray | None = None,
    backend: str = "auto",
    host_speeds=None,
    strict: bool | None = None,
    faults: FaultModel | None = None,
    on_kernel_failure: str = "raise",
) -> SimulationResult:
    """Replay ``trace`` through ``policy`` on ``n_hosts`` hosts.

    Parameters
    ----------
    trace:
        Job arrival epochs and service requirements.
    policy:
        Any task assignment policy (see :mod:`repro.core.policies`).
    n_hosts:
        Number of identical FCFS run-to-completion hosts.
    rng:
        Seed or generator for policy randomness; the same seed yields the
        same result on either backend for deterministic policies.
    size_estimates:
        Optional per-job size estimates shown to the dispatcher instead of
        the true sizes (section-7 robustness studies).
    backend:
        ``"auto"`` (fast kernels when possible), ``"fast"`` (force; an
        error for policies only the event engine implements) or
        ``"event"`` (force the reference engine).
    strict:
        ``True`` runs the event engine with the runtime sanitizer,
        asserting the engine invariants after every event (see
        docs/DEVTOOLS.md).  Implies ``backend="event"``; combining with
        ``backend="fast"`` is an error.  ``None`` (default) defers to
        the ``REPRO_SIM_STRICT`` environment variable whenever the
        event engine is selected.
    faults:
        Optional :class:`~repro.sim.faults.FaultModel` enabling per-host
        crash/repair processes (see docs/ROBUSTNESS.md).  Fault
        injection only exists in the event engine, so this implies
        ``backend="event"``; combining with ``backend="fast"`` is an
        error.
    on_kernel_failure:
        ``"raise"`` (default) propagates a fast-kernel
        :class:`~repro.sim.engine.InvariantViolation`;  ``"fallback"``
        instead warns, re-runs the point on the reference event engine
        and tags the result's ``backend`` as ``"event-fallback"`` — the
        graceful-degradation mode long sweeps use so one bad point
        cannot kill hours of work.
    """
    if backend not in ("auto", "fast", "event"):
        raise ValueError(f"unknown backend {backend!r}")
    if on_kernel_failure not in ("raise", "fallback"):
        raise ValueError(f"unknown on_kernel_failure {on_kernel_failure!r}")
    if strict and backend == "fast":
        raise ValueError(
            "strict mode runs on the event engine; drop backend='fast'"
        )
    if faults is not None and backend == "fast":
        raise ValueError(
            "fault injection runs on the event engine; drop backend='fast'"
        )
    seed_arg = rng
    rng = _as_rng(rng)
    kind = getattr(policy, "kind", None)
    hetero = host_speeds is not None and not np.all(
        np.asarray(host_speeds, dtype=float) == 1.0
    )
    needs_event = (
        kind == "central" and getattr(policy, "discipline", "fcfs") != "fcfs"
    ) or (hetero and kind == "central")
    if (
        backend == "event"
        or strict
        or faults is not None
        or (backend == "auto" and needs_event)
    ):
        # The event engine loads on first use: sweeps on the fast
        # kernels never pay for importing it.
        from .server import DistributedServer

        server = DistributedServer(
            n_hosts, policy, rng, host_speeds=host_speeds, strict=strict,
            faults=faults,
        )
        return server.run_trace(trace, size_estimates=size_estimates)
    try:
        return simulate_fast(
            trace, policy, n_hosts, rng=rng, size_estimates=size_estimates,
            host_speeds=host_speeds,
        )
    except InvariantViolation as exc:
        if on_kernel_failure != "fallback" or backend == "fast":
            raise
        warnings.warn(
            f"fast kernel failed for {getattr(policy, 'name', policy)!r} "
            f"({exc}); falling back to the event engine for this point",
            RuntimeWarning,
            stacklevel=2,
        )
        # Re-derive the RNG from the caller's seed: the failed fast
        # attempt may have consumed draws, and the fallback must match a
        # direct event-engine run with the same seed.  (A caller-supplied
        # Generator object cannot be rewound; pass a seed for exact
        # cross-validation of fallback rows.)
        from .server import DistributedServer

        server = DistributedServer(
            n_hosts, policy, _as_rng(seed_arg), host_speeds=host_speeds,
            strict=strict,
        )
        result = server.run_trace(trace, size_estimates=size_estimates)
        return dataclasses.replace(result, backend="event-fallback")
