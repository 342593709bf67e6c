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

# numpy loads these two submodules lazily; load them with the package so
# their import cost lands at start-up, not inside the first sweep or
# stream (``np.percentile`` reaches ``numpy.ma`` through ``np.unique``).
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .analysis import (
    analyze_sita,
    predict_grouped_sita,
    mg1_metrics,
    mgh_metrics,
    mmh_metrics,
    predict_lwl,
    predict_random,
    predict_round_robin,
    predict_sita,
)
from .core import (
    CentralQueuePolicy,
    EstimatedLWLPolicy,
    GroupedSITAPolicy,
    LeastWorkLeftPolicy,
    Policy,
    RandomPolicy,
    RoundRobinPolicy,
    SITAPolicy,
    ShortestQueuePolicy,
    TAGSPolicy,
    analytic_cutoff_pair,
    equal_load_cutoffs,
    fair_cutoff,
    fairness_gap,
    opt_cutoff,
    rule_of_thumb_cutoff,
    rule_of_thumb_fraction,
    sim_cutoff_pair,
    sim_fair_cutoff,
    sim_opt_cutoff,
    slowdown_profile,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    list_experiments,
    run_experiment,
)
from .sim import (
    DistributedServer,
    SimulationResult,
    Simulator,
    Summary,
    simulate,
    simulate_fast,
)
from .workloads import (
    BoundedPareto,
    Empirical,
    Exponential,
    PoissonArrivals,
    ServiceDistribution,
    SyntheticWorkload,
    Trace,
    c90,
    ctc,
    get_workload,
    j90,
)

__version__ = "1.0.0"

__all__ = [
    "analyze_sita",
    "predict_grouped_sita",
    "mg1_metrics",
    "mgh_metrics",
    "mmh_metrics",
    "predict_lwl",
    "predict_random",
    "predict_round_robin",
    "predict_sita",
    "CentralQueuePolicy",
    "EstimatedLWLPolicy",
    "GroupedSITAPolicy",
    "LeastWorkLeftPolicy",
    "Policy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "SITAPolicy",
    "ShortestQueuePolicy",
    "TAGSPolicy",
    "analytic_cutoff_pair",
    "equal_load_cutoffs",
    "fair_cutoff",
    "fairness_gap",
    "opt_cutoff",
    "rule_of_thumb_cutoff",
    "rule_of_thumb_fraction",
    "sim_cutoff_pair",
    "sim_fair_cutoff",
    "sim_opt_cutoff",
    "slowdown_profile",
    "ExperimentConfig",
    "ExperimentResult",
    "list_experiments",
    "run_experiment",
    "DistributedServer",
    "SimulationResult",
    "Simulator",
    "Summary",
    "simulate",
    "simulate_fast",
    "BoundedPareto",
    "Empirical",
    "Exponential",
    "PoissonArrivals",
    "ServiceDistribution",
    "SyntheticWorkload",
    "Trace",
    "c90",
    "ctc",
    "get_workload",
    "j90",
    "__version__",
]
