"""Size-Interval Task Assignment (SITA) policies.

A SITA policy partitions the job-size axis with ``h − 1`` cutoffs
``c_1 < c_2 < … < c_{h−1}``: jobs of (estimated) size in
``(c_{i−1}, c_i]`` go to host ``i``.  The *variance-reduction* effect —
each host sees only a narrow slice of the size distribution — is why SITA
dominates the load-balancing policies under heavy-tailed workloads
(paper section 3.3).

Where the cutoffs come from defines the variant:

* **SITA-E** — cutoffs equalise the *load* carried by each interval
  (:func:`repro.core.cutoffs.equal_load_cutoffs`);
* **SITA-U-opt** — cutoff chosen to *minimise mean slowdown*, which
  deliberately underloads the short-job host
  (:func:`repro.core.cutoffs.opt_cutoff`);
* **SITA-U-fair** — cutoff chosen so short and long jobs see the *same
  expected slowdown* (:func:`repro.core.cutoffs.fair_cutoff`).

This module only implements the dispatch mechanics; the
:class:`SITAPolicy` takes explicit cutoffs so the policy can be driven by
either the analytic or the simulation-based cutoff engines (the paper uses
both and finds they agree).

:class:`GroupedSITAPolicy` is the paper's section-5 modification for large
host counts: hosts are split into a short group and a long group using the
single 2-host cutoff, and jobs are scheduled *within* their group by
Least-Work-Left.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .base import StatePolicy, StaticPolicy, nearest_live_host

__all__ = ["SITAPolicy", "GroupedSITAPolicy", "validate_cutoffs"]


def validate_cutoffs(cutoffs: Sequence[float]) -> np.ndarray:
    """Check cutoffs are positive, finite and strictly increasing."""
    c = np.asarray(cutoffs, dtype=float)
    if c.ndim != 1:
        raise ValueError("cutoffs must be one-dimensional")
    if c.size and (np.any(c <= 0) or not np.all(np.isfinite(c))):
        raise ValueError(f"cutoffs must be positive and finite, got {c}")
    if np.any(np.diff(c) <= 0):
        raise ValueError(f"cutoffs must be strictly increasing, got {c}")
    return c


class SITAPolicy(StaticPolicy):
    """Dispatch by size interval: host ``i`` serves sizes in ``(c_{i-1}, c_i]``.

    Parameters
    ----------
    cutoffs:
        The ``h − 1`` interval boundaries.  Host 0 gets sizes ``<= c_1``
        (the shorts), the last host gets sizes ``> c_{h−1}`` (the longs).
    name:
        Label, e.g. ``"sita-e"`` or ``"sita-u-fair"``.
    """

    def __init__(self, cutoffs: Sequence[float], name: str = "sita") -> None:
        self.cutoffs = validate_cutoffs(cutoffs)
        self.name = name

    def reset(self, n_hosts: int, rng: np.random.Generator) -> None:
        super().reset(n_hosts, rng)
        if self.cutoffs.size != n_hosts - 1:
            raise ValueError(
                f"{self.name}: {self.cutoffs.size} cutoffs cannot drive "
                f"{n_hosts} hosts (need {n_hosts - 1})"
            )

    def host_for_size(self, size: float) -> int:
        """Host index for a job of (estimated) ``size``."""
        return int(np.searchsorted(self.cutoffs, size, side="left"))

    def choose_host(self, job, state) -> int:
        return self.host_for_size(job.size_estimate)

    def assign_batch(self, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # searchsorted(cutoffs, sizes, "left") as one faster pass per
        # cutoff, in blocks so that no temporary outgrows a block.
        sizes = np.asarray(sizes, dtype=float)
        hosts = np.zeros(sizes.shape, dtype=np.intp)
        step = 1 << 16
        for a in range(0, sizes.size, step):
            block, out = sizes[a : a + step], hosts[a : a + step]
            for c in self.cutoffs.tolist():
                out += ~(block <= c)
        return hosts


class GroupedSITAPolicy(StatePolicy):
    """Section-5 SITA for many hosts: 2 size groups, Least-Work-Left inside.

    Parameters
    ----------
    cutoff:
        The single 2-host size cutoff separating shorts from longs.
    n_short_hosts:
        How many of the hosts serve the short group; the remainder serve
        the long group.  The paper splits hosts evenly; cutoff engines may
        choose other splits.
    name:
        Label, e.g. ``"sita-e+lwl"``.
    """

    fast_hint = "grouped"

    def __init__(
        self, cutoff: float, n_short_hosts: int, name: str = "grouped-sita"
    ) -> None:
        if not (cutoff > 0 and math.isfinite(cutoff)):
            raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
        if n_short_hosts < 1:
            raise ValueError(f"n_short_hosts must be >= 1, got {n_short_hosts}")
        self.cutoff = float(cutoff)
        self.n_short_hosts = int(n_short_hosts)
        self.name = name

    def reset(self, n_hosts: int, rng: np.random.Generator) -> None:
        super().reset(n_hosts, rng)
        if self.n_short_hosts >= n_hosts:
            raise ValueError(
                f"{self.name}: n_short_hosts={self.n_short_hosts} leaves no "
                f"long host out of {n_hosts}"
            )

    def group_slice(self, short: bool) -> slice:
        """Host-index slice of the short (or long) group."""
        if short:
            return slice(0, self.n_short_hosts)
        return slice(self.n_short_hosts, self.n_hosts)

    def choose_host(self, job, state) -> int:
        grp = self.group_slice(job.size_estimate <= self.cutoff)
        work = state.work_left()[grp]
        return grp.start + int(np.argmin(work))

    def choose_live_host(self, job, state, up) -> int:
        # Least-Work-Left among the *live* hosts of the job's size group;
        # if the whole group is down, spill to the nearest live host
        # outside it (the plain-SITA spill rule).
        grp = self.group_slice(job.size_estimate <= self.cutoff)
        work = state.work_left()[grp]
        group_up = up[grp]
        if group_up.any():
            return grp.start + int(np.argmin(np.where(group_up, work, np.inf)))
        return nearest_live_host(grp.start + int(np.argmin(work)), up)
