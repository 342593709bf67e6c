"""Queueing analysis substrate: M/G/1, M/M/h, M/G/h, G/G/1, SITA.

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "GG1Metrics": "gg1",
    "erlang_arrival_scv": "gg1",
    "gg1_metrics": "gg1",
    "MG1Metrics": "mg1",
    "mg1_metrics": "mg1",
    "mg1_ps_mean_slowdown": "mg1",
    "utilisation": "mg1",
    "MGhMetrics": "mgh",
    "mgh_metrics": "mgh",
    "MMhMetrics": "mmh",
    "erlang_b": "mmh",
    "erlang_c": "mmh",
    "mmh_metrics": "mmh",
    "PolicyPrediction": "policies",
    "arrival_rate_for_load": "policies",
    "predict_grouped_sita": "policies",
    "predict_lwl": "policies",
    "predict_lwl_bursty": "policies",
    "predict_random": "policies",
    "predict_round_robin": "policies",
    "predict_sita": "policies",
    "predict_sita_bursty": "policies",
    "SITAAnalysis": "sita_analysis",
    "SITAHost": "sita_analysis",
    "analyze_sita": "sita_analysis",
    "sita_host_loads": "sita_analysis",
    "LaplaceEvaluator": "transforms",
    "mg1_waiting_cdf": "transforms",
    "mg1_waiting_slowdown_ccdf": "transforms",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
