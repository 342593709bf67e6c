"""Core contribution: task assignment policies, cutoff engines, fairness.

Public names resolve on first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "equal_load_cutoffs": "cutoffs",
    "fair_cutoff": "cutoffs",
    "fair_cutoffs_multi": "cutoffs",
    "feasible_cutoff_range": "cutoffs",
    "opt_cutoff": "cutoffs",
    "opt_cutoffs_multi": "cutoffs",
    "short_host_load_fraction": "cutoffs",
    "sim_fair_cutoff": "cutoffs",
    "sim_opt_cutoff": "cutoffs",
    "SimCutoffPair": "search",
    "analytic_cutoff_pair": "search",
    "candidate_cutoffs": "search",
    "sim_cutoff_pair": "search",
    "HistoryPredictor": "estimation",
    "misclassify": "estimation",
    "multiplicative_noise": "estimation",
    "SlowdownProfile": "fairness",
    "class_fairness_gap": "fairness",
    "fairness_gap": "fairness",
    "slowdown_profile": "fairness",
    "CentralQueuePolicy": "policies",
    "EstimatedLWLPolicy": "policies",
    "GroupedSITAPolicy": "policies",
    "LeastWorkLeftPolicy": "policies",
    "Policy": "policies",
    "RandomPolicy": "policies",
    "RoundRobinPolicy": "policies",
    "SITAPolicy": "policies",
    "ShortestQueuePolicy": "policies",
    "StatePolicy": "policies",
    "StaticPolicy": "policies",
    "TAGSPolicy": "policies",
    "validate_cutoffs": "policies",
    "rule_of_thumb_cutoff": "rules",
    "rule_of_thumb_fit": "rules",
    "rule_of_thumb_fraction": "rules",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
