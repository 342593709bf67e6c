"""Task assignment policies (the paper's section 1.2 plus extensions).

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from ..._lazy import lazy_exports

_EXPORTS = {
    "EstimatedLWLPolicy": "estimated",
    "Policy": "base",
    "StatePolicy": "base",
    "StaticPolicy": "base",
    "CentralQueuePolicy": "classic",
    "LeastWorkLeftPolicy": "classic",
    "RandomPolicy": "classic",
    "RoundRobinPolicy": "classic",
    "ShortestQueuePolicy": "classic",
    "GroupedSITAPolicy": "sita",
    "SITAPolicy": "sita",
    "validate_cutoffs": "sita",
    "TAGSPolicy": "tags",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
