"""Workload substrate: distributions, arrival processes, traces, catalog.

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ArrivalProcess": "arrivals",
    "MMPP2Arrivals": "arrivals",
    "PoissonArrivals": "arrivals",
    "RenewalArrivals": "arrivals",
    "TraceArrivals": "arrivals",
    "load_for_rate": "arrivals",
    "rate_for_load": "arrivals",
    "WORKLOAD_NAMES": "catalog",
    "c90": "catalog",
    "ctc": "catalog",
    "get_workload": "catalog",
    "j90": "catalog",
    "BoundedPareto": "distributions",
    "ConditionalDistribution": "distributions",
    "Deterministic": "distributions",
    "Empirical": "distributions",
    "Erlang": "distributions",
    "Exponential": "distributions",
    "Hyperexponential": "distributions",
    "Lognormal": "distributions",
    "Pareto": "distributions",
    "ScaledDistribution": "distributions",
    "ServiceDistribution": "distributions",
    "Weibull": "distributions",
    "SyntheticWorkload": "synthetic",
    "half_load_tail_fraction": "synthetic",
    "half_load_tail_fraction_dist": "synthetic",
    "autocorrelation": "stats",
    "index_of_dispersion": "stats",
    "scv": "stats",
    "trace_characterisation": "stats",
    "SWF_FIELDS": "traces",
    "Trace": "traces",
    "TraceStats": "traces",
    "read_swf": "traces",
    "write_swf": "traces",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
