"""Fault-tolerant online dispatch server (``repro serve``).

The batch simulators answer "what would this policy have done on this
trace"; this package runs the same policies as a *server*: jobs arrive
one at a time, hosts crash and repair underneath, intake is admission-
controlled, and the accounting survives SIGKILL.  See
``docs/ROBUSTNESS.md`` ("Online dispatch under faults").

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AdmissionController": "admission",
    "CircuitBreaker": "health",
    "CutoffManager": "refit",
    "DispatchServer": "server",
    "HealthMonitor": "health",
    "OnlineDispatchError": "server",
    "RefitRejected": "refit",
    "SnapshotStore": "snapshot",
    "TokenBucket": "admission",
    "serve_signature": "snapshot",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
