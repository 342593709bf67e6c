"""Per-job results and summary statistics.

The paper evaluates three things (section 1.2): **mean slowdown** (the
headline metric — response time over service requirement), **variance in
slowdown** (predictability), and **mean response time**; plus **fairness**
— expected slowdown conditioned on job size.  :class:`SimulationResult`
holds the raw per-job arrays produced by either simulator and
:class:`Summary` condenses them, with optional warmup trimming and
batch-means confidence intervals for the steady-state means.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SimulationResult",
    "Summary",
    "array_digest",
    "batch_means_ci",
    "jain_fairness_index",
    "observe_result",
    "set_result_observer",
]


def jain_fairness_index(values: np.ndarray) -> float:
    """Jain's fairness index ``(Σv)² / (n·Σv²)`` over per-job metrics.

    The standard allocation-fairness scalar (Jain, Chiu & Hawe 1984):
    1 when every job experiences the same value, ``1/n`` when a single
    job absorbs everything.  Applied to per-job *slowdowns* it condenses
    the paper's fairness question — is expected slowdown flat in job
    size? — into one monitorable number, which is what the online
    dispatcher's status endpoint reports.  Returns ``nan`` for an empty
    input and for degenerate all-zero values.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return math.nan
    if np.any(v < 0):
        raise ValueError("Jain's index is defined for non-negative values")
    denom = v.size * float(np.sum(v * v))
    if denom == 0.0:
        return math.nan
    return float(np.sum(v)) ** 2 / denom


def _sorted_percentile(ranked: np.ndarray, q: float) -> float:
    """``np.percentile(ranked, q)`` of a non-empty ascending array, bit for bit:
    numpy's ``linear`` rule, down to its weight ``v + 1`` past the last
    index and its NaN result when a NaN (sorted last) is present."""
    n, last = ranked.size, float(ranked[-1])
    v = (n - 1) * (q / 100)
    if last != last or v >= n - 1:
        lo = hi = last
        g = v + 1
    else:
        i = math.floor(v)
        lo, hi, g = float(ranked[i]), float(ranked[i + 1]), v - i
    d = hi - lo
    return hi - d * (1 - g) if g >= 0.5 else lo + d * g


def array_digest(*arrays: np.ndarray | None, precision: int | None = None) -> str:
    """Order-sensitive 128-bit digest of one or more arrays.

    Folds dtype, shape and raw bytes of each array (in order) into a
    ``blake2b`` hash, so two runs agree iff they produced bit-identical
    arrays.  ``precision`` rounds floating arrays to that many decimals
    first (and collapses ``-0.0`` to ``0.0``), for comparisons that
    should tolerate last-bit float noise — e.g. across simulator
    backends whose summation orders legitimately differ.  ``None``
    entries fold as an explicit absence marker, so "no array" and "empty
    array" stay distinguishable.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        if arr is None:
            h.update(b"<absent>")
            continue
        a = np.asarray(arr)
        if precision is not None and np.issubdtype(a.dtype, np.floating):
            # rounding may produce -0.0; +0.0 normalises it so the byte
            # representation is unique per value
            a = np.round(a, precision) + 0.0
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: process-wide observer of finished simulation runs, installed by
#: ``repro audit`` to digest every result an experiment produces —
#: including the many interior runs of a cutoff search the experiment
#: driver never returns.
_RESULT_OBSERVER: Callable[["SimulationResult"], None] | None = None


def set_result_observer(
    observer: Callable[["SimulationResult"], None] | None,
) -> Callable[["SimulationResult"], None] | None:
    """Install ``observer(result)`` on every completed simulation run;
    return the previous observer so callers can restore it.

    Both backends (:func:`repro.sim.fast.simulate_fast` and
    :meth:`repro.sim.server.DistributedServer.run_trace`) report here
    exactly once per run.  Pass ``None`` to uninstall.  Not a public
    extension point; the supported consumer is the replay-divergence
    auditor.
    """
    global _RESULT_OBSERVER
    previous = _RESULT_OBSERVER
    _RESULT_OBSERVER = observer
    return previous


def observe_result(result: "SimulationResult") -> None:
    """Report a finished run to the installed observer (no-op if none)."""
    if _RESULT_OBSERVER is not None:
        _RESULT_OBSERVER(result)


def batch_means_ci(
    values: np.ndarray, n_batches: int = 20, z: float = 1.96
) -> tuple[float, float]:
    """Steady-state mean and CI half-width via the method of batch means.

    Per-job metrics from a queueing simulation are autocorrelated, so the
    naive i.i.d. CI is too narrow; batching into ``n_batches`` contiguous
    blocks and treating the block means as independent is the standard
    remedy.  Returns ``(mean, half_width)``.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2 * n_batches:
        raise ValueError(
            f"need at least {2 * n_batches} observations for {n_batches} batches"
        )
    usable = (v.size // n_batches) * n_batches
    batches = v[:usable].reshape(n_batches, -1).mean(axis=1)
    mean = float(batches.mean())
    half = float(z * batches.std(ddof=1) / math.sqrt(n_batches))
    return mean, half


@dataclass(frozen=True)
class Summary:
    """Condensed statistics over one simulation run; p95 and p99 come off
    one sorted copy of the slowdowns, bit for bit ``np.percentile``."""

    n_jobs: int
    mean_slowdown: float
    var_slowdown: float
    mean_waiting_slowdown: float
    mean_response: float
    var_response: float
    mean_wait: float
    max_slowdown: float
    #: 95th and 99th percentile of per-job slowdown (tail predictability).
    p95_slowdown: float
    p99_slowdown: float
    host_load_fraction: tuple[float, ...]
    host_job_fraction: tuple[float, ...]
    #: Jain's fairness index over per-job slowdowns (1 = perfectly flat);
    #: ``nan`` on summaries predating the field.
    jain_slowdown: float = math.nan

    def as_row(self) -> dict[str, float]:
        """Flatten for tabular reports."""
        row = {
            "n_jobs": self.n_jobs,
            "mean_slowdown": self.mean_slowdown,
            "var_slowdown": self.var_slowdown,
            "mean_response": self.mean_response,
            "var_response": self.var_response,
            "mean_wait": self.mean_wait,
        }
        # Folded in only when finite — historical rows stay byte-stable
        # (same precedent as the fault columns in result digests).
        if not math.isnan(self.jain_slowdown):
            row["jain_slowdown"] = self.jain_slowdown
        for i, f in enumerate(self.host_load_fraction):
            row[f"load_frac_host{i}"] = f
        return row


@dataclass(frozen=True)
class SimulationResult:
    """Raw per-job output of a simulation run.

    All arrays are indexed by job (in arrival order).  Derived metrics are
    computed lazily; slicing helpers implement warmup trimming and the
    paper's size-class conditioning.
    """

    policy_name: str
    n_hosts: int
    arrival_times: np.ndarray
    sizes: np.ndarray
    wait_times: np.ndarray
    host_assignments: np.ndarray
    wasted_work: np.ndarray | None = None
    #: time the job actually occupied its host; defaults to ``sizes``
    #: (unit-speed hosts).  Differs on heterogeneous-speed hosts, where a
    #: nominal size x runs for x/speed seconds.
    processing_times: np.ndarray | None = None
    #: jobs destroyed by host crashes ("lost" failure semantics); lost
    #: jobs never complete, so they appear in no per-job array.
    n_lost: int = 0
    #: host crashes injected during the run (0 without fault injection).
    n_failures: int = 0
    #: cumulative host down-time over the run, in simulated seconds.
    host_downtime: float = 0.0
    #: which simulator produced this result ("fast", "event" or
    #: "event-fallback" when the fast kernel failed and the run was
    #: gracefully retried on the event engine); "" when unrecorded.
    backend: str = ""

    def __post_init__(self) -> None:
        n = self.arrival_times.size
        for name in ("sizes", "wait_times", "host_assignments"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} length mismatch")
        if self.processing_times is not None:
            if self.processing_times.size != n:
                raise ValueError("processing_times length mismatch")
            if np.any(self.processing_times <= 0):
                raise ValueError("processing times must be positive")
        if np.any(self.wait_times < -1e-9):
            raise ValueError("negative wait time — simulator bug")

    # ------------------------------------------------------------------
    # derived per-job arrays
    # ------------------------------------------------------------------

    @property
    def n_jobs(self) -> int:
        return self.arrival_times.size

    def digest(self, precision: int | None = None) -> str:
        """128-bit fingerprint of this run, for replay auditing.

        Folds the policy name, host count and every per-job array; two
        replays with identical seeds must produce identical digests
        (``precision=None``, bit-exact) or the run is nondeterministic.
        A quantized digest (``precision=10`` or so) tolerates last-bit
        float differences for cross-backend comparisons.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(self.policy_name.encode())
        h.update(str(self.n_hosts).encode())
        h.update(
            array_digest(
                self.arrival_times,
                self.sizes,
                self.wait_times,
                self.host_assignments,
                self.wasted_work,
                self.processing_times,
                precision=precision,
            ).encode()
        )
        # Fault-free runs keep their historical digests; only runs that
        # actually saw failures fold the fault statistics in.
        if self.n_lost or self.n_failures:
            h.update(
                f"faults:{self.n_lost}:{self.n_failures}:"
                f"{self.host_downtime!r}".encode()
            )
        return h.hexdigest()

    @property
    def response_times(self) -> np.ndarray:
        if self.processing_times is not None:
            return self.wait_times + self.processing_times
        return self.wait_times + self.sizes

    @property
    def slowdowns(self) -> np.ndarray:
        """Response / size — the paper's headline per-job metric."""
        return self.response_times / self.sizes

    @property
    def waiting_slowdowns(self) -> np.ndarray:
        """Wait / size (the quantity in the paper's Theorem 1)."""
        return self.wait_times / self.sizes

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def trimmed(self, warmup_fraction: float = 0.0) -> "SimulationResult":
        """Drop the first ``warmup_fraction`` of jobs (transient removal)."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in [0,1), got {warmup_fraction}")
        start = int(self.n_jobs * warmup_fraction)
        if start == 0:
            return self
        return SimulationResult(
            policy_name=self.policy_name,
            n_hosts=self.n_hosts,
            arrival_times=self.arrival_times[start:],
            sizes=self.sizes[start:],
            wait_times=self.wait_times[start:],
            host_assignments=self.host_assignments[start:],
            wasted_work=None if self.wasted_work is None else self.wasted_work[start:],
            processing_times=None
            if self.processing_times is None
            else self.processing_times[start:],
            n_lost=self.n_lost,
            n_failures=self.n_failures,
            host_downtime=self.host_downtime,
            backend=self.backend,
        )

    def summary(self, warmup_fraction: float = 0.0) -> Summary:
        """Compute the paper's metrics, optionally after warmup trimming."""
        r = self.trimmed(warmup_fraction)
        sizes = r.sizes
        resp = r.response_times
        slow = resp / sizes
        # np.max first: an empty result raises ValueError.
        max_slowdown = float(np.max(slow))
        ranked = np.sort(slow)
        p95, p99 = (_sorted_percentile(ranked, q) for q in (95, 99))
        # Per-host work and job counts in one pass each.  The weighted
        # bincount sums each host's sizes sequentially rather than
        # pairwise, so the load fractions can differ from a per-host
        # ``np.sum`` in the last bits.
        hosts = r.host_assignments
        load = np.bincount(hosts, weights=sizes, minlength=r.n_hosts)
        counts = np.bincount(hosts, minlength=r.n_hosts)
        total_work = float(np.sum(sizes))
        n = r.n_jobs
        return Summary(
            n_jobs=n,
            mean_slowdown=float(np.mean(slow)),
            var_slowdown=float(np.var(slow)),
            mean_waiting_slowdown=float(np.mean(r.waiting_slowdowns)),
            mean_response=float(np.mean(resp)),
            var_response=float(np.var(resp)),
            mean_wait=float(np.mean(r.wait_times)),
            max_slowdown=max_slowdown,
            p95_slowdown=p95,
            p99_slowdown=p99,
            host_load_fraction=tuple(
                (load[: r.n_hosts] / total_work).tolist()
            ),
            host_job_fraction=tuple((counts[: r.n_hosts] / n).tolist()),
            jain_slowdown=jain_fairness_index(slow),
        )

    def class_mean_slowdowns(self, cutoff: float) -> tuple[float, float]:
        """Mean slowdown of (short, long) jobs split at ``cutoff``.

        SITA-U-fair is defined by these two numbers being equal.
        """
        short = self.sizes <= cutoff
        if not short.any() or short.all():
            raise ValueError(f"cutoff {cutoff} leaves an empty size class")
        slow = self.slowdowns
        return float(np.mean(slow[short])), float(np.mean(slow[~short]))

    def slowdown_ci(
        self, warmup_fraction: float = 0.0, n_batches: int = 20
    ) -> tuple[float, float]:
        """Batch-means CI for mean slowdown."""
        return batch_means_ci(self.trimmed(warmup_fraction).slowdowns, n_batches)
