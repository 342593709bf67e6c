"""Job traces and the Standard Workload Format (SWF).

The paper is a *trace-driven* study: job service requirements come from
logs of the PSC Cray C90/J90 and the Cornell Theory Center IBM SP2 (the
latter via Feitelson's Parallel Workloads Archive, which distributes logs
in the Standard Workload Format).  This module provides:

* :class:`Trace` — an immutable in-memory job log (arrival epochs +
  service requirements + processor counts), with the manipulation the
  paper performs: load scaling, train/test splitting ("the cutoff ... was
  determined ... using half of the trace data.  The algorithms were then
  evaluated on the other half"), processor-count filtering ("we used only
  those CTC jobs that require 8 processors"), and Table-1 style summary
  statistics;
* :func:`read_swf` / :func:`write_swf` — a reader and writer for the
  Parallel Workloads Archive's SWF so real logs can be dropped in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import Empirical

__all__ = ["Trace", "TraceStats", "read_swf", "write_swf", "SWF_FIELDS"]

#: The 18 standard SWF fields, in order.
SWF_FIELDS = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_processors",
    "average_cpu_time",
    "used_memory",
    "requested_processors",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue_number",
    "partition_number",
    "preceding_job",
    "think_time",
)


@dataclass(frozen=True)
class TraceStats:
    """Table-1 style characteristics of a job log."""

    n_jobs: int
    duration: float
    mean_service: float
    min_service: float
    max_service: float
    scv: float

    def as_row(self) -> dict[str, float]:
        """Return the statistics as a flat dict (one Table-1 row)."""
        return {
            "n_jobs": self.n_jobs,
            "duration": self.duration,
            "mean_service": self.mean_service,
            "min_service": self.min_service,
            "max_service": self.max_service,
            "scv": self.scv,
        }


class Trace:
    """An in-memory job log: arrival epochs and service requirements.

    Parameters
    ----------
    arrival_times:
        Non-decreasing job submission epochs (seconds).
    service_times:
        Positive CPU service requirements (seconds).
    processors:
        Optional per-job processor counts (defaults to 1); used only for
        the paper's CTC filtering step.
    name:
        Optional label carried through reports.
    """

    def __init__(
        self,
        arrival_times,
        service_times,
        processors=None,
        name: str = "trace",
    ) -> None:
        at = np.asarray(arrival_times, dtype=float)
        st = np.asarray(service_times, dtype=float)
        if at.ndim != 1 or st.ndim != 1 or at.size != st.size or at.size == 0:
            raise ValueError("arrival and service times must be equal-length 1-D")
        if np.any(np.diff(at) < 0):
            raise ValueError("arrival times must be non-decreasing")
        if np.any(st <= 0) or not np.all(np.isfinite(st)):
            raise ValueError("service times must be positive and finite")
        if processors is None:
            procs = np.ones(at.size, dtype=int)
        else:
            procs = np.asarray(processors, dtype=int)
            if procs.shape != at.shape:
                raise ValueError("processors must match the number of jobs")
        self.arrival_times = at
        self.service_times = st
        self.processors = procs
        self.name = name

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def n_jobs(self) -> int:
        return self.arrival_times.size

    @property
    def duration(self) -> float:
        """Span of the submission log (first to last arrival)."""
        return float(self.arrival_times[-1] - self.arrival_times[0])

    @property
    def interarrivals(self) -> np.ndarray:
        return np.diff(self.arrival_times)

    @property
    def mean_service(self) -> float:
        return float(np.mean(self.service_times))

    def offered_load(self, n_hosts: int) -> float:
        """System load ρ = λ·E[X]/h implied by the trace's own arrival rate."""
        if self.n_jobs < 2 or self.duration <= 0:
            raise ValueError("need a trace with a positive time span")
        lam = (self.n_jobs - 1) / self.duration
        return lam * self.mean_service / n_hosts

    def service_distribution(self) -> Empirical:
        """Empirical distribution of the service requirements."""
        return Empirical(self.service_times)

    def stats(self) -> TraceStats:
        """Table-1 characteristics of this trace."""
        st = self.service_times
        mean = float(np.mean(st))
        scv = float(np.var(st) / mean**2)
        return TraceStats(
            n_jobs=self.n_jobs,
            duration=self.duration,
            mean_service=mean,
            min_service=float(np.min(st)),
            max_service=float(np.max(st)),
            scv=scv,
        )

    # ------------------------------------------------------------------
    # paper manipulations
    # ------------------------------------------------------------------

    def scaled_to_load(self, load: float, n_hosts: int) -> "Trace":
        """Rescale interarrival times so the offered load is ``load``.

        This is the paper's section-6 procedure: keep the service times and
        the arrival *pattern*, multiply all gaps by a constant.
        """
        if load <= 0:
            raise ValueError(f"load must be positive, got {load}")
        factor = self.offered_load(n_hosts) / load
        at0 = self.arrival_times[0]
        new_at = at0 + (self.arrival_times - at0) * factor
        return Trace(new_at, self.service_times, self.processors, name=self.name)

    def split(self, fraction: float = 0.5) -> tuple["Trace", "Trace"]:
        """Split into (train, test) by job order.

        Mirrors the paper's protocol: fit cutoffs on the first half,
        evaluate on the second half.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0,1), got {fraction}")
        cut = max(1, min(self.n_jobs - 1, int(round(self.n_jobs * fraction))))
        return (
            self._slice(slice(None, cut), f"{self.name}[:{cut}]"),
            self._slice(slice(cut, None), f"{self.name}[{cut}:]"),
        )

    def _slice(self, jobs: slice, name: str) -> "Trace":
        """The jobs ``jobs`` as a trace sharing this one's arrays; a slice
        of a valid trace is valid, so only emptiness is checked."""
        view = object.__new__(Trace)
        view.arrival_times = self.arrival_times[jobs]
        if view.arrival_times.size == 0:
            raise ValueError("arrival and service times must be equal-length 1-D")
        view.service_times = self.service_times[jobs]
        view.processors = self.processors[jobs]
        view.name = name
        return view

    def filter_processors(self, n: int) -> "Trace":
        """Keep only jobs requesting exactly ``n`` processors (CTC step)."""
        mask = self.processors == n
        if not np.any(mask):
            raise ValueError(f"no jobs with {n} processors in {self.name}")
        return Trace(
            self.arrival_times[mask],
            self.service_times[mask],
            self.processors[mask],
            name=f"{self.name}(p={n})",
        )

    def head(self, n: int) -> "Trace":
        """First ``n`` jobs (cheap truncation for quick experiments)."""
        return self._slice(slice(None, min(n, self.n_jobs)), self.name)

    # ------------------------------------------------------------------
    # SWF I/O
    # ------------------------------------------------------------------

    @classmethod
    def from_swf(
        cls,
        path,
        name: str | None = None,
        min_runtime: float = 1e-9,
        on_error: str = "raise",
    ) -> "Trace":
        """Load a Standard Workload Format file (see :func:`read_swf`)."""
        return read_swf(path, name=name, min_runtime=min_runtime, on_error=on_error)

    def to_swf(self, path) -> None:
        """Write this trace as a minimal SWF file (see :func:`write_swf`)."""
        write_swf(self, path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.name!r}, n_jobs={self.n_jobs}, "
            f"mean_service={self.mean_service:.4g})"
        )


def read_swf(
    path,
    name: str | None = None,
    min_runtime: float = 1e-9,
    on_error: str = "raise",
) -> Trace:
    """Parse a Standard Workload Format file into a :class:`Trace`.

    Uses field 2 (submit time) as the arrival epoch, field 4 (run time) as
    the service requirement, and field 8 (requested processors, falling back
    to field 5, allocated) as the processor count.  Jobs with missing
    (``-1``) or non-positive runtimes are dropped, matching the standard
    cleaning step for archive logs.  Lines starting with ``;`` are header
    comments.

    ``on_error`` selects how *malformed* lines (too few fields, unparsable
    numbers) are handled: ``"raise"`` (default) aborts with the offending
    line and number; ``"skip"`` drops them and finishes with a single
    warning summarising how many lines were skipped and where the first
    few were — the lenient mode for real-world archive logs, which ship
    with truncated tails and stray text more often than one would hope.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    path = Path(path)
    arrivals: list[float] = []
    services: list[float] = []
    procs: list[int] = []
    skipped: list[int] = []

    def bad_line(lineno: int, reason: str) -> None:
        if on_error == "raise":
            raise ValueError(f"{path}:{lineno}: {reason}")
        skipped.append(lineno)

    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith(";"):
                continue
            parts = line.split()
            if len(parts) < 5:
                bad_line(lineno, "expected >= 5 SWF fields")
                continue
            try:
                submit = float(parts[1])
                runtime = float(parts[3])
                requested = int(float(parts[7])) if len(parts) > 7 else -1
                allocated = int(float(parts[4]))
            except ValueError:
                bad_line(lineno, f"unparsable SWF fields in {line!r}")
                continue
            if runtime < min_runtime:
                continue
            arrivals.append(submit)
            services.append(runtime)
            procs.append(requested if requested > 0 else max(allocated, 1))
    if skipped:
        head = ", ".join(map(str, skipped[:5]))
        more = f", … ({len(skipped) - 5} more)" if len(skipped) > 5 else ""
        warnings.warn(
            f"{path}: skipped {len(skipped)} malformed SWF line(s) "
            f"(lines {head}{more})",
            RuntimeWarning,
            stacklevel=2,
        )
    if not arrivals:
        raise ValueError(f"{path}: no usable jobs")
    order = np.argsort(arrivals, kind="stable")
    arrivals_arr = np.asarray(arrivals)[order]
    services_arr = np.asarray(services)[order]
    procs_arr = np.asarray(procs)[order]
    return Trace(arrivals_arr, services_arr, procs_arr, name=name or path.stem)


def write_swf(trace: Trace, path) -> None:
    """Write a :class:`Trace` as SWF with the 18 standard fields.

    Unknown fields are written as ``-1`` per the SWF convention.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"; SWF written by repro — trace {trace.name}\n")
        fh.write(f"; MaxJobs: {trace.n_jobs}\n")
        fh.write("; Note: only submit_time, run_time and processors are meaningful\n")
        for i in range(trace.n_jobs):
            fields = [-1] * len(SWF_FIELDS)
            fields[0] = i + 1
            fields[1] = trace.arrival_times[i]
            fields[2] = -1  # wait time unknown until simulated
            fields[3] = trace.service_times[i]
            fields[4] = trace.processors[i]
            fields[7] = trace.processors[i]
            fields[10] = 1  # status: completed
            fh.write(
                " ".join(
                    f"{v:.6f}" if isinstance(v, float) else str(int(v))
                    for v in fields
                )
                + "\n"
            )
