"""Experiment drivers — one per paper table/figure, plus ablations.

Use :func:`run_experiment`/:func:`list_experiments` (or the CLI:
``python -m repro run fig4``).  Importing this package loads what the
drivers share; :func:`get_experiment` imports only the driver module
of the id it is asked for, and :func:`list_experiments` imports every
driver.
"""

from .._lazy import lazy_exports
# What the drivers share loads with the package, so that running one
# experiment imports nothing but its own driver module.
from ..workloads import catalog as _catalog  # noqa: F401
from . import common as _common  # noqa: F401
from .base import (
    QUICK,
    ExperimentConfig,
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
)

_EXPORTS = {"ascii_chart": "plotting", "result_chart": "plotting"}

__all__ = [
    "ascii_chart",
    "result_chart",
    "QUICK",
    "ExperimentConfig",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
