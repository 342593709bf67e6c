"""repro — task assignment policies for supercomputing servers.

A full reproduction of Schroeder & Harchol-Balter, *"Evaluation of Task
Assignment Policies for Supercomputing Servers: The Case for Load
Unbalancing and Fairness"* (HPDC 2000 / Cluster Computing 7, 2004):

* a trace-driven discrete-event simulator of a distributed server
  (dispatcher + FCFS run-to-completion hosts), with vectorised fast paths
  (:mod:`repro.sim`);
* the task assignment policies — Random, Round-Robin, Shortest-Queue,
  Least-Work-Left, Central-Queue, SITA-E, and the paper's load-unbalancing
  SITA-U-opt / SITA-U-fair, plus TAGS (:mod:`repro.core`);
* the queueing analysis (M/G/1 Pollaczek–Khinchine, M/G/h, E_h/G/1,
  per-slice SITA analysis) used to derive cutoffs and validate the
  simulations (:mod:`repro.analysis`);
* calibrated synthetic supercomputing workloads, SWF trace I/O, arrival
  processes (:mod:`repro.workloads`);
* one experiment driver per paper table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import c90, simulate, SITAPolicy, fair_cutoff

    workload = c90()
    trace = workload.make_trace(load=0.7, n_hosts=2, n_jobs=50_000, rng=0)
    cutoff = fair_cutoff(0.7, workload.service_dist)
    result = simulate(trace, SITAPolicy([cutoff], name="sita-u-fair"), n_hosts=2)
    print(result.summary(warmup_fraction=0.05).mean_slowdown)
"""

# numpy loads ``numpy.random`` lazily; load it with the package so its
# import cost lands at start-up, not inside the first sweep or stream.
import numpy.random  # noqa: F401

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Public names resolve on first access, so a caller loads only the
# subpackages it uses (see :mod:`repro._lazy`).
_EXPORTS = {
    "analyze_sita": "analysis",
    "predict_grouped_sita": "analysis",
    "mg1_metrics": "analysis",
    "mgh_metrics": "analysis",
    "mmh_metrics": "analysis",
    "predict_lwl": "analysis",
    "predict_random": "analysis",
    "predict_round_robin": "analysis",
    "predict_sita": "analysis",
    "CentralQueuePolicy": "core",
    "EstimatedLWLPolicy": "core",
    "GroupedSITAPolicy": "core",
    "LeastWorkLeftPolicy": "core",
    "Policy": "core",
    "RandomPolicy": "core",
    "RoundRobinPolicy": "core",
    "SITAPolicy": "core",
    "ShortestQueuePolicy": "core",
    "TAGSPolicy": "core",
    "analytic_cutoff_pair": "core",
    "equal_load_cutoffs": "core",
    "fair_cutoff": "core",
    "fairness_gap": "core",
    "opt_cutoff": "core",
    "rule_of_thumb_cutoff": "core",
    "rule_of_thumb_fraction": "core",
    "sim_cutoff_pair": "core",
    "sim_fair_cutoff": "core",
    "sim_opt_cutoff": "core",
    "slowdown_profile": "core",
    "ExperimentConfig": "experiments",
    "ExperimentResult": "experiments",
    "list_experiments": "experiments",
    "run_experiment": "experiments",
    "DistributedServer": "sim",
    "SimulationResult": "sim",
    "Simulator": "sim",
    "Summary": "sim",
    "simulate": "sim",
    "simulate_fast": "sim",
    "BoundedPareto": "workloads",
    "Empirical": "workloads",
    "Exponential": "workloads",
    "PoissonArrivals": "workloads",
    "ServiceDistribution": "workloads",
    "SyntheticWorkload": "workloads",
    "Trace": "workloads",
    "c90": "workloads",
    "ctc": "workloads",
    "get_workload": "workloads",
    "j90": "workloads",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
