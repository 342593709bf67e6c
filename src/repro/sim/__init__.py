"""Simulation substrate: event engine, distributed server, fast kernels.

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "InvariantViolation": "engine",
    "SimulationError": "engine",
    "Simulator": "engine",
    "set_event_hook": "engine",
    "strict_from_env": "engine",
    "Event": "events",
    "fcfs_waits": "fast",
    "lwl_waits": "fast",
    "shortest_queue_waits": "fast",
    "simulate_fast": "fast",
    "FaultInjector": "faults",
    "FaultModel": "faults",
    "FCFSHost": "host",
    "Job": "jobs",
    "SimulationResult": "metrics",
    "Summary": "metrics",
    "array_digest": "metrics",
    "batch_means_ci": "metrics",
    "observe_result": "metrics",
    "set_result_observer": "metrics",
    "simulate": "runner",
    "DistributedServer": "server",
    "SystemState": "server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
