"""Degraded-mode SITA cutoff management: online re-fit with fallback.

"Dispatching Odyssey" (PAPERS.md) makes the empirical case that real
cluster workloads are non-stationary: a SITA cutoff fitted to last
week's size distribution quietly stops unbalancing the right way.  The
online dispatcher therefore re-fits its cutoff from a **sliding window**
of recently admitted job sizes, through the same analytic search the
batch experiments use (:func:`repro.core.search.analytic_cutoff_pair`).
Each window becomes a short-lived
:class:`~repro.workloads.distributions.Empirical`, whose slice moments
come from its own power-sum table; the search's moment memo never holds
it, so a retired window is freed as soon as its fit returns.

A re-fit is *advice*, not gospel — the window can be too small, the
estimated load infeasible, the fitted cutoff degenerate, or the window
**fault-contaminated** (jobs admitted while hosts were crashing carry a
censored size mix: the re-dispatch churn re-samples large jobs).  Every
re-fit is validated, and on any failure the manager falls back to the
**last-known-good** cutoff and says so in its status — the server keeps
dispatching with yesterday's cutoff rather than today's garbage.
"""

from __future__ import annotations

import warnings
from collections import deque

import numpy as np

from ..core.search import analytic_cutoff_pair
from ..workloads.distributions import Empirical

__all__ = ["CutoffManager", "RefitRejected"]


class RefitRejected(ValueError):
    """A fitted cutoff failed validation (reason in ``args[0]``)."""


class CutoffManager:
    """Sliding-window cutoff re-fit with a last-known-good fallback.

    Parameters
    ----------
    initial_cutoff:
        The offline-fitted cutoff the server starts (and falls back) on.
    n_hosts:
        Host count, used to turn the window's arrival rate into a load.
    window:
        Sliding-window length (number of admitted jobs).
    refit_every:
        Attempt a re-fit every this many observations (after the window
        has filled once).
    load_bounds:
        The estimated load is clipped into this open interval before the
        analytic search (which requires ``0 < load < 1``).
    min_split_fraction:
        A fitted cutoff must leave at least this fraction of the window
        on *each* side — a cutoff below every observed size (or above)
        routes everything to one host, which is no SITA at all.
    """

    def __init__(
        self,
        initial_cutoff: float,
        n_hosts: int,
        window: int = 2048,
        refit_every: int = 512,
        load_bounds: tuple[float, float] = (0.05, 0.95),
        min_split_fraction: float = 0.02,
    ) -> None:
        if not (initial_cutoff > 0 and np.isfinite(initial_cutoff)):
            raise ValueError(
                f"initial cutoff must be positive and finite, got {initial_cutoff}"
            )
        if window < 8:
            raise ValueError(f"window must be >= 8, got {window}")
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        self.n_hosts = int(n_hosts)
        self.window = int(window)
        self.refit_every = int(refit_every)
        self.load_bounds = load_bounds
        self.min_split_fraction = float(min_split_fraction)
        self._sizes: deque[float] = deque(maxlen=window)
        self._arrivals: deque[float] = deque(maxlen=window)
        self._since_refit = 0
        #: observations still needed before a contaminated window is
        #: considered fully turned over (0 = clean).
        self._contaminated_for = 0
        self.cutoff = float(initial_cutoff)
        self.last_known_good = float(initial_cutoff)
        self.mode = "initial"
        self.n_refits = 0
        self.n_fallbacks = 0
        self.last_error: str | None = None

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------

    def observe(self, size: float, now: float) -> bool:
        """Record one admitted job; returns True when a re-fit is due."""
        self._sizes.append(float(size))
        self._arrivals.append(float(now))
        self._since_refit += 1
        if self._contaminated_for > 0:
            self._contaminated_for -= 1
        if len(self._sizes) < self.window:
            return False
        if self._since_refit < self.refit_every:
            return False
        return True

    def mark_contaminated(self) -> None:
        """A crash touched the stream: distrust the window until it turns
        over completely (every contaminated sample has slid out)."""
        self._contaminated_for = self.window

    @property
    def contaminated(self) -> bool:
        return self._contaminated_for > 0

    # ------------------------------------------------------------------
    # re-fit
    # ------------------------------------------------------------------

    def _estimate_load(self) -> float:
        arrivals = self._arrivals
        span = arrivals[-1] - arrivals[0]
        if span <= 0:
            raise RefitRejected("window spans zero simulated time")
        lam = (len(arrivals) - 1) / span
        rho = lam * float(np.mean(self._sizes)) / self.n_hosts
        lo, hi = self.load_bounds
        return min(max(rho, lo), hi)

    def _validate(self, cutoff: float, sizes: np.ndarray) -> None:
        if not (np.isfinite(cutoff) and cutoff > 0):
            raise RefitRejected(f"fitted cutoff {cutoff!r} is not positive finite")
        short = float(np.mean(sizes <= cutoff))
        if not self.min_split_fraction <= short <= 1.0 - self.min_split_fraction:
            raise RefitRejected(
                f"fitted cutoff {cutoff:.6g} leaves a degenerate split "
                f"({short:.1%} of the window below it)"
            )

    def refit(self) -> bool:
        """Attempt one re-fit; True if the cutoff was updated.

        Never raises: every failure path (contaminated window, infeasible
        load, degenerate cutoff) falls back to the last-known-good cutoff
        and records why in :attr:`last_error`.
        """
        self._since_refit = 0
        if self.contaminated:
            self._fall_back(
                f"window fault-contaminated for another "
                f"{self._contaminated_for} observations"
            )
            return False
        sizes = np.asarray(self._sizes, dtype=float)
        try:
            load = self._estimate_load()
            dist = Empirical(sizes)
            with warnings.catch_warnings():
                # The scalar optimiser probes a jagged empirical
                # objective; its internal NaN chatter is not actionable
                # and must not spam a long-running server's stderr.
                warnings.simplefilter("ignore", RuntimeWarning)
                fitted = analytic_cutoff_pair(load, dist, want=("opt",))["opt"]
            self._validate(fitted, sizes)
        except (ValueError, ArithmeticError) as exc:
            self._fall_back(str(exc))
            return False
        self.cutoff = float(fitted)
        self.last_known_good = self.cutoff
        self.mode = "fitted"
        self.last_error = None
        self.n_refits += 1
        return True

    def _fall_back(self, reason: str) -> None:
        self.cutoff = self.last_known_good
        self.mode = "fallback"
        self.last_error = reason
        self.n_fallbacks += 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def status(self) -> dict:
        return {
            "mode": self.mode,
            "cutoff": self.cutoff,
            "last_known_good": self.last_known_good,
            "refits": self.n_refits,
            "fallbacks": self.n_fallbacks,
            "window_fill": len(self._sizes),
            "contaminated": self.contaminated,
            "last_error": self.last_error,
        }
