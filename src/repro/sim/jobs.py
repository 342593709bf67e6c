"""Job objects flowing through the simulated distributed server."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Job"]


@dataclass(slots=True)
class Job:
    """One batch job.

    ``size`` is the true CPU requirement; ``size_estimate`` is what the
    dispatcher believes (equal by default — section 7 of the paper discusses
    imperfect estimates, modelled in :mod:`repro.core.estimation`).
    """

    index: int
    arrival_time: float
    size: float
    size_estimate: float | None = None
    assigned_host: int | None = None
    start_time: float | None = None
    completion_time: float | None = None
    #: CPU time burned on hosts that later evicted the job (TAGS only).
    wasted_work: float = 0.0
    #: wall-clock time the job occupied its final host; ``None`` means the
    #: nominal ``size`` (unit-speed hosts).
    processing_time: float | None = None
    #: Number of times the job was killed and restarted (TAGS only).
    restarts: int = 0
    #: True once a host crash destroyed the job ("lost" failure semantics).
    lost: bool = False
    #: Number of host crashes that hit this job while in service
    #: (fault injection; counts both re-dispatches and resumed legs).
    interruptions: int = 0
    #: Per-host FCFS stamp assigned on submission — the strict-mode FCFS
    #: invariant orders queues by this, not by job index, because
    #: re-dispatch after a crash legitimately reorders indices.
    host_seq: int = -1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"job size must be positive, got {self.size}")
        if self.size_estimate is None:
            self.size_estimate = self.size

    @property
    def finished(self) -> bool:
        return self.completion_time is not None

    @property
    def wait_time(self) -> float:
        """Total time not receiving *useful* service.

        Response minus the time the job occupied its host (the nominal
        ``size`` on unit-speed hosts; ``size/speed`` otherwise).  Under
        TAGS the wasted partial runs count as waiting.
        """
        if self.completion_time is None:
            raise ValueError(f"job {self.index} has not completed")
        busy = self.processing_time if self.processing_time is not None else self.size
        return self.response_time - busy

    @property
    def response_time(self) -> float:
        """Arrival to completion."""
        if self.completion_time is None:
            raise ValueError(f"job {self.index} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        """Response time divided by service requirement (the paper's metric)."""
        return self.response_time / self.size
