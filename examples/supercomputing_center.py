"""Scenario: choosing a dispatch rule for a distributed Cray server.

You administer a PSC-style machine room: a handful of identical
multiprocessor hosts behind one batch queue (the paper's figure 1).  This
script walks the decision the paper equips you to make:

1. characterise the workload from a (synthetic or SWF) job log;
2. fit the SITA cutoffs on the first half of the log — the operational
   "training" period;
3. replay the second half under each candidate policy across the loads
   the machine actually sees;
4. print a recommendation table, including the duration cutoff you would
   publish to users ("jobs shorter than X go to host 1").

Run:  python examples/supercomputing_center.py [n_hosts]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import LeastWorkLeftPolicy, SITAPolicy, c90, simulate
from repro.core.policies import GroupedSITAPolicy
from repro.core.search import sim_cutoff_pair
from repro.workloads.distributions import Empirical


def pick_policies(train, load, n_hosts):
    """Fit cutoffs on the training half and build the candidate set."""
    # One simulation per candidate cutoff scores both searches (and the
    # golden-section refinement sharpens each winner).
    pair = sim_cutoff_pair(train, n_candidates=30)
    c_opt, c_fair = pair.opt, pair.fair
    dist = Empirical(train.service_times)
    candidates = [LeastWorkLeftPolicy()]
    if n_hosts == 2:
        candidates.append(SITAPolicy([c_opt], name="sita-u-opt"))
        candidates.append(SITAPolicy([c_fair], name="sita-u-fair"))
    else:
        # Section-5 grouping for larger machine rooms.
        for cutoff, name in ((c_opt, "sita-u-opt+lwl"), (c_fair, "sita-u-fair+lwl")):
            frac = dist.partial_moment(1.0, 0.0, cutoff) / dist.mean
            n_short = int(np.clip(round(n_hosts * frac), 1, n_hosts - 1))
            candidates.append(GroupedSITAPolicy(cutoff, n_short, name=name))
    return candidates, c_fair


def main() -> None:
    n_hosts = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    workload = c90()
    loads = (0.5, 0.7, 0.9)

    print(f"machine room: {n_hosts} hosts, workload {workload.name}\n")
    best_by_load = {}
    fair_cutoffs = {}
    for load in loads:
        trace = workload.make_trace(load=load, n_hosts=n_hosts, n_jobs=80_000, rng=7)
        train, test = trace.split(0.5)
        candidates, c_fair = pick_policies(train, load, n_hosts)
        fair_cutoffs[load] = c_fair
        print(f"system load {load:.1f} (fair cutoff fitted at {c_fair:,.0f} s):")
        scores = {}
        for policy in candidates:
            s = simulate(test, policy, n_hosts, rng=0).summary(warmup_fraction=0.05)
            scores[policy.name] = s
            print(
                f"  {policy.name:18s} mean slowdown {s.mean_slowdown:10.1f}   "
                f"var {s.var_slowdown:10.3g}   mean response {s.mean_response:9.0f}s"
            )
        best = min(scores, key=lambda k: scores[k].mean_slowdown)
        best_by_load[load] = best
        print(f"  -> best: {best}\n")

    print("recommendation")
    print("---------------")
    for load, best in best_by_load.items():
        hours = fair_cutoffs[load] / 3600.0
        print(
            f"at load {load:.1f}: run {best}; publish the short/long cutoff "
            f"as ~{hours:.1f} h"
        )
    print(
        "\nThe fair variant guarantees equal expected slowdown for short and "
        "long jobs,\nso no user community is starved (paper section 8)."
    )


if __name__ == "__main__":
    main()
