"""Fault-tolerant online dispatch server (``repro serve``).

The batch simulators answer "what would this policy have done on this
trace"; this package runs the same policies as a *server*: jobs arrive
one at a time, hosts crash and repair underneath, intake is admission-
controlled, and the accounting survives SIGKILL.  See
``docs/ROBUSTNESS.md`` ("Online dispatch under faults").
"""

from .admission import AdmissionController, TokenBucket
from .health import CircuitBreaker, HealthMonitor
from .refit import CutoffManager, RefitRejected
from .server import DispatchServer, OnlineDispatchError
from .snapshot import SnapshotStore, serve_signature

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CutoffManager",
    "DispatchServer",
    "HealthMonitor",
    "OnlineDispatchError",
    "RefitRejected",
    "SnapshotStore",
    "TokenBucket",
    "serve_signature",
]
