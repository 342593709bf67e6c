"""Vectorised / tight-loop simulation kernels for large parameter sweeps.

The event-driven engine (:mod:`repro.sim.engine`) is the legible reference
implementation; this module is the optimised path, exploiting two facts
about the paper's architectural model (FCFS, run-to-completion, one job at
a time per host):

1. **A host is one number.**  The entire state of a FCFS run-to-completion
   host is its virtual completion time ``V``; remaining work at time ``t``
   is ``max(0, V − t)``.

2. **Static policies decouple the hosts.**  Once Random/Round-Robin/SITA
   assignments are fixed, each host is an independent FCFS queue and the
   per-job waits follow the Lindley recursion, which vectorises exactly:
   with ``U_m = s_m − (t_{m+1} − t_m)`` and prefix sums ``P``, the wait of
   job ``j`` is ``P_{j−1} − min(P_0, …, P_{j−1})`` (:func:`fcfs_waits`).

3. **Least-Work-Left is the central queue.**  The paper (section 3.1,
   citing [11]) notes LWL ≡ Central-Queue; both reduce to an ``h``-server
   Kiefer–Wolfowitz recursion, implemented here as an ``O(n log h)`` heap
   of virtual completion times (:func:`lwl_waits`).

Every kernel is cross-validated against the event engine in
``tests/sim/test_fast_vs_engine.py`` — per-job waiting times must agree to
floating-point accuracy.  (Host *identities* may differ on exact ties,
e.g. among simultaneously idle hosts; waits are unaffected.)
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..workloads.distributions import _as_rng
from ..workloads.traces import Trace
from .contract import kernel_contract
from .engine import InvariantViolation
from .metrics import SimulationResult, observe_result

__all__ = [
    "fcfs_waits",
    "lwl_waits",
    "estimated_lwl_waits",
    "shortest_queue_waits",
    "tags_waits",
    "simulate_fast",
    "SitaScanKernel",
    "SitaScanResult",
    "sita_scan",
    "SERVE_DISPATCH_MODES",
    "serve_dispatch_batch",
]


def _check_kernel_output(policy_name: str, waits: np.ndarray) -> None:
    """Sanity-check a kernel's waits before they become a result.

    The vectorised kernels trade legibility for speed; if one ever
    produces a non-finite or materially negative wait (a kernel bug or a
    pathological input), raise
    :class:`~repro.sim.engine.InvariantViolation` so callers can fall
    back to the reference event engine for that point instead of
    aborting a multi-hour sweep (see ``repro.sim.runner.simulate``'s
    ``on_kernel_failure``).
    """
    if not np.all(np.isfinite(waits)):
        raise InvariantViolation(
            f"fast kernel produced non-finite waits for {policy_name}"
        )
    if waits.size and float(np.min(waits)) < -1e-6:
        raise InvariantViolation(
            f"fast kernel produced negative waits for {policy_name} "
            f"(min {float(np.min(waits)):.3e})"
        )


@kernel_contract(
    shapes={"arrival_times": ("n",), "sizes": ("n",), "return": ("n",)},
    dtypes={"arrival_times": "float64", "sizes": "float64", "return": "float64"},
    writes=(),
    contiguous=("arrival_times", "sizes"),
)
def fcfs_waits(arrival_times: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Waiting times of one FCFS single-server queue (vectorised Lindley).

    ``W_1 = 0`` and ``W_{j+1} = max(0, W_j + s_j − (t_{j+1} − t_j))``;
    unrolled, ``W_j = P_{j−1} − min_{k ≤ j−1} P_k`` with
    ``P_j = Σ_{m ≤ j} (s_m − gap_m)``, computed with ``cumsum`` +
    ``minimum.accumulate`` — no Python loop.
    """
    t = np.asarray(arrival_times, dtype=float)
    s = np.asarray(sizes, dtype=float)
    if t.shape != s.shape or t.ndim != 1:
        raise ValueError("arrival_times and sizes must be equal-length 1-D")
    n = t.size
    if n == 0:
        return np.empty(0)
    # Two fresh arrays: the gaps, ``u`` and the prefix sums all live in
    # ``prefix`` (each step is the same IEEE operation as the textbook
    # ``s[:-1] - np.diff(t)`` / ``cumsum`` form, written in place), and
    # the running minimum becomes the output.  Every fresh n-element
    # temporary costs page faults on first touch.
    prefix = np.empty(n)
    prefix[0] = 0.0
    u = np.subtract(t[1:], t[:-1], out=prefix[1:])
    np.subtract(s[:-1], u, out=u)
    np.cumsum(u, out=u)
    waits = np.minimum.accumulate(prefix)
    return np.subtract(prefix, waits, out=waits)


@kernel_contract(
    shapes={
        "arrival_times": ("n",),
        "sizes": ("n",),
        "host_speeds": ("h",),
        "return[0]": ("n",),
        "return[1]": ("n",),
    },
    dtypes={
        "arrival_times": "float64",
        "sizes": "float64",
        "host_speeds": "float64",
        "return[0]": "float64",
        "return[1]": "int64",
    },
    writes=(),
    contiguous=("arrival_times", "sizes"),
)
def lwl_waits(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    n_hosts: int,
    host_speeds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Waits and host assignments under Least-Work-Left / Central-Queue.

    Kiefer–Wolfowitz via a min-heap of per-host virtual completion times:
    each job is matched with the earliest-free host, ``O(n log h)``.
    With ``host_speeds`` the popped host's duration is ``size/speed`` —
    LWL's choice (min remaining work, i.e. min V) is unchanged, so the
    heap remains exact.  (The LWL ≡ Central-Queue equivalence holds only
    for identical hosts.)

    Returns ``(waits, hosts)``.  On identical hosts each job goes to the
    host with the smallest ``(V, host index)`` pair — the earliest
    virtual completion time, the lowest index among equal ``V``.  Among
    several idle hosts this is the one that went idle first, not the
    lowest index; waits are identical either way.  With unequal speeds
    the rule is the policy's own: least work left, lowest index on ties.
    """
    t = np.asarray(arrival_times, dtype=float)
    s = np.asarray(sizes, dtype=float)
    if t.shape != s.shape or t.ndim != 1:
        raise ValueError("arrival_times and sizes must be equal-length 1-D")
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    speeds = np.ones(n_hosts) if host_speeds is None else np.asarray(host_speeds, float)
    n = t.size
    if np.all(speeds == 1.0):
        # Identical hosts: tie-breaks cannot affect waits, so the
        # O(n log h) earliest-free heap is exact.  The loop runs on
        # plain Python floats (``tolist``) with the heap function bound
        # locally: indexing a NumPy array in a tight loop boxes a fresh
        # np.float64 per access and re-resolves attributes, roughly
        # doubling the cost of the recursion (timings in
        # docs/PERFORMANCE.md).  Float arithmetic is IEEE-754 either
        # way, so the waits are bit-identical.  The heap holds one
        # ``[V, host]`` entry per host.  The pairs are unique, so the
        # root is their lexicographic minimum: the job's host.  Its entry
        # is updated in place and one ``heapreplace`` sifts it back down,
        # which picks the same hosts as ``heappop`` + ``heappush`` of a
        # fresh tuple without allocating one per job.
        waits_list: list[float] = []
        hosts_list: list[int] = []
        push_wait, push_host = waits_list.append, hosts_list.append
        heapreplace = heapq.heapreplace
        free: list[list] = [[0.0, i] for i in range(n_hosts)]  # a valid heap
        for tj, sj in zip(t.tolist(), s.tolist()):
            root = free[0]
            v, i = root
            push_host(i)
            if v < tj:
                push_wait(0.0)
                root[0] = tj + sj
            else:
                push_wait(v - tj)
                root[0] = v + sj
            heapreplace(free, root)
        return np.fromiter(waits_list, float, n), np.fromiter(hosts_list, int, n)
    waits = np.empty(n)
    hosts = np.empty(n, dtype=int)
    # Heterogeneous speeds: which of several idle hosts is chosen now
    # changes the job's duration and every later wait, so replicate the
    # policy's exact rule — argmin of work-left, lowest index on ties.
    v = np.zeros(n_hosts)
    for j in range(n):
        tj = t[j]
        i = int(np.argmin(np.maximum(v - tj, 0.0)))
        wait = v[i] - tj
        if wait < 0.0:
            wait = 0.0
        waits[j] = wait
        hosts[j] = i
        v[i] = tj + wait + s[j] / speeds[i]
    return waits, hosts


@kernel_contract(
    shapes={
        "arrival_times": ("n",),
        "sizes": ("n",),
        "host_speeds": ("h",),
        "return[0]": ("n",),
        "return[1]": ("n",),
    },
    dtypes={
        "arrival_times": "float64",
        "sizes": "float64",
        "host_speeds": "float64",
        "return[0]": "float64",
        "return[1]": "int64",
    },
    writes=(),
    contiguous=("arrival_times", "sizes"),
)
def shortest_queue_waits(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    n_hosts: int,
    host_speeds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Waits and assignments under Shortest-Queue (fewest jobs in system).

    Per host we keep the virtual completion time and a FIFO of departure
    epochs (monotone, so expiry is an amortised O(1) pop).  Ties go to the
    lowest host index, matching :class:`ShortestQueuePolicy`.
    """
    t = np.asarray(arrival_times, dtype=float)
    s = np.asarray(sizes, dtype=float)
    if t.shape != s.shape or t.ndim != 1:
        raise ValueError("arrival_times and sizes must be equal-length 1-D")
    speeds = np.ones(n_hosts) if host_speeds is None else np.asarray(host_speeds, float)
    n = t.size
    # Python-float loop state throughout (see the identical-host branch
    # of :func:`lwl_waits`): pre-extracted lists avoid per-iteration
    # np.float64 boxing, ``enumerate`` over the deque list avoids an
    # index lookup per host, and the per-host expiry loop pops on a
    # locally bound deque.  Values are bit-identical to the NumPy
    # indexing version.
    t_list = t.tolist()
    s_list = s.tolist()
    speeds_list = speeds.tolist()
    waits_list = [0.0] * n
    hosts_list = [0] * n
    v = [0.0] * n_hosts
    departures: list[deque[float]] = [deque() for _ in range(n_hosts)]
    for j in range(n):
        tj = t_list[j]
        best = 0
        best_count = -1
        for i, d in enumerate(departures):
            while d and d[0] <= tj:
                d.popleft()
            count = len(d)
            if best_count < 0 or count < best_count:
                best, best_count = i, count
        wait = v[best] - tj
        if wait < 0.0:
            wait = 0.0
        waits_list[j] = wait
        hosts_list[j] = best
        done = tj + wait + s_list[j] / speeds_list[best]
        v[best] = done
        departures[best].append(done)
    return np.asarray(waits_list), np.asarray(hosts_list, dtype=int)


@kernel_contract(
    shapes={
        "arrival_times": ("n",),
        "sizes": ("n",),
        "estimates": ("n",),
        "return[0]": ("n",),
        "return[1]": ("n",),
    },
    dtypes={
        "arrival_times": "float64",
        "sizes": "float64",
        "estimates": "float64",
        "return[0]": "float64",
        "return[1]": "int64",
    },
    writes=(),
    contiguous=("arrival_times", "sizes", "estimates"),
)
def estimated_lwl_waits(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    estimates: np.ndarray,
    n_hosts: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Waits and assignments under estimate-driven LWL (paper §1.2 practice).

    Routing uses a believed per-host backlog maintained from the size
    *estimates*; the realised waits use the true sizes.  With
    ``estimates == sizes`` this is exactly :func:`lwl_waits` up to
    tie-breaks (ties go to the lowest host index here).
    """
    t = np.asarray(arrival_times, dtype=float)
    s = np.asarray(sizes, dtype=float)
    e = np.asarray(estimates, dtype=float)
    if not (t.shape == s.shape == e.shape) or t.ndim != 1:
        raise ValueError("arrival_times, sizes and estimates must match")
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    n = t.size
    waits = np.empty(n)
    hosts = np.empty(n, dtype=int)
    believed = np.zeros(n_hosts)
    true_v = np.zeros(n_hosts)
    for j in range(n):
        tj = t[j]
        # argmin of believed work-left; np.argmin takes the lowest index
        # on ties, matching EstimatedLWLPolicy.choose_host.
        i = int(np.argmin(np.maximum(believed - tj, 0.0)))
        believed[i] = max(believed[i], tj) + e[j]
        wait = true_v[i] - tj
        if wait < 0.0:
            wait = 0.0
        waits[j] = wait
        hosts[j] = i
        true_v[i] = tj + wait + s[j]
    return waits, hosts


@kernel_contract(
    shapes={
        "arrival_times": ("n",),
        "sizes": ("n",),
        "return[0]": ("n",),
        "return[1]": ("n",),
        "return[2]": ("n",),
    },
    dtypes={
        "arrival_times": "float64",
        "sizes": "float64",
        "return[0]": "float64",
        "return[1]": "int64",
        "return[2]": "float64",
    },
    writes=(),
    contiguous=("arrival_times", "sizes"),
)
def tags_waits(
    arrival_times: np.ndarray, sizes: np.ndarray, cutoffs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Responses under TAGS as a cascade of Lindley recursions.

    Host ``i`` serves, FCFS, everything still alive there, for at most
    ``cutoffs[i]`` seconds per job.  Because FCFS completions leave a host
    in arrival order, the evicted jobs arrive at the next host already
    time-sorted, so each level is one vectorised :func:`fcfs_waits` pass —
    no event engine needed.

    Returns ``(response_times, final_hosts, wasted_work)``, all indexed by
    the original job order.
    """
    t = np.asarray(arrival_times, dtype=float)
    s = np.asarray(sizes, dtype=float)
    if t.shape != s.shape or t.ndim != 1:
        raise ValueError("arrival_times and sizes must be equal-length 1-D")
    limits = list(np.asarray(cutoffs, dtype=float)) + [np.inf]
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise ValueError(f"cutoffs must be strictly increasing, got {cutoffs}")
    n = t.size
    idx = np.arange(n)
    level_arrivals = t
    completion = np.empty(n)
    final_host = np.empty(n, dtype=int)
    wasted = np.zeros(n)
    for host, limit in enumerate(limits):
        service_here = np.minimum(s[idx], limit)
        waits = fcfs_waits(level_arrivals, service_here)
        done_at = level_arrivals + waits + service_here
        finished = s[idx] <= limit
        completion[idx[finished]] = done_at[finished]
        final_host[idx[finished]] = host
        wasted[idx[~finished]] += limit
        idx = idx[~finished]
        level_arrivals = done_at[~finished]
        if idx.size == 0:
            break
    assert idx.size == 0, "last TAGS host must be unlimited"
    return completion - t, final_host, wasted


def _static_waits(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    assignment: np.ndarray,
    n_hosts: int,
    speeds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Waits and durations given a fixed host assignment (Lindley per host).

    Each host's jobs are gathered once through an index array.  When
    every speed is 1 a job's duration is its size, so no division is
    done and ``durations`` is ``None``.
    """
    waits = np.empty(arrival_times.size)
    durations = None if np.all(speeds == 1.0) else np.empty(arrival_times.size)
    for i in range(n_hosts):
        idx = np.flatnonzero(assignment == i)
        if idx.size:
            dur = sizes[idx]
            if durations is not None:
                dur /= speeds[i]
                durations[idx] = dur
            waits[idx] = fcfs_waits(arrival_times[idx], dur)
    return waits, durations


def simulate_fast(
    trace: Trace,
    policy,
    n_hosts: int,
    rng: np.random.Generator | int | None = None,
    size_estimates: np.ndarray | None = None,
    host_speeds=None,
) -> SimulationResult:
    """Run ``trace`` through ``policy`` on ``n_hosts`` hosts, fast.

    Drop-in equivalent of
    ``DistributedServer(n_hosts, policy, rng).run_trace(trace)`` for every
    policy except the SJF central queue (whose reordering needs the event
    engine — use :func:`repro.sim.runner.simulate`, which routes
    automatically).

    ``host_speeds`` enables heterogeneous hosts (a job of size x occupies
    a speed-v host for x/v seconds) for the static, LWL, Shortest-Queue
    and grouped-SITA kernels; the central queue loses its LWL equivalence
    on unequal speeds and TAGS keeps its identical-host semantics — both
    reject speeds here.
    """
    rng = _as_rng(rng)
    policy.reset(n_hosts, rng)
    t = trace.arrival_times - trace.arrival_times[0]
    s = trace.service_times
    if size_estimates is not None:
        est = np.asarray(size_estimates, dtype=float)
        if est.shape != s.shape:
            raise ValueError("size_estimates must match the trace length")
    else:
        est = s
    if host_speeds is None:
        speeds = np.ones(n_hosts)
    else:
        speeds = np.asarray(host_speeds, dtype=float)
        if speeds.shape != (n_hosts,):
            raise ValueError(f"host_speeds must have {n_hosts} entries")
        if np.any(speeds <= 0):
            raise ValueError("host speeds must be positive")
    uniform = bool(np.all(speeds == 1.0))

    kind = getattr(policy, "kind", None)
    hint = getattr(policy, "fast_hint", None)
    if kind == "central" and getattr(policy, "discipline", "fcfs") != "fcfs":
        raise ValueError(
            "only the FCFS central queue reduces to the LWL recursion; "
            "use repro.sim.runner.simulate for other disciplines"
        )
    if not uniform and (
        kind in ("central", "tags") or hint == "lwl-est"
    ):
        raise ValueError(
            "host_speeds are not supported for this policy: the central "
            "queue's LWL equivalence and TAGS' cutoff semantics assume "
            "identical hosts, and estimate-driven LWL has no speed model"
        )
    durations = None
    if kind == "static":
        assignment = np.asarray(policy.assign_batch(est, rng), dtype=int)
        if assignment.shape != s.shape:
            raise ValueError("assign_batch returned wrong-length assignment")
        if assignment.min() < 0 or assignment.max() >= n_hosts:
            raise ValueError("assign_batch returned out-of-range host index")
        waits, durations = _static_waits(t, s, assignment, n_hosts, speeds)
    elif kind == "central" or hint == "lwl":
        waits, assignment = lwl_waits(t, s, n_hosts, host_speeds=speeds)
        durations = s / speeds[assignment]
    elif hint == "sq":
        waits, assignment = shortest_queue_waits(t, s, n_hosts, host_speeds=speeds)
        durations = s / speeds[assignment]
    elif hint == "lwl-est":
        waits, assignment = estimated_lwl_waits(t, s, est, n_hosts)
    elif hint == "grouped":
        waits = np.empty(s.size)
        assignment = np.empty(s.size, dtype=int)
        short = est <= policy.cutoff
        n_short = policy.n_short_hosts
        for mask, group_hosts, offset in (
            (short, n_short, 0),
            (~short, n_hosts - n_short, n_short),
        ):
            if np.any(mask):
                w, h = lwl_waits(
                    t[mask], s[mask], group_hosts,
                    host_speeds=speeds[offset : offset + group_hosts],
                )
                waits[mask] = w
                assignment[mask] = h + offset
        durations = s / speeds[assignment]
    elif kind == "tags":
        responses, assignment, wasted = tags_waits(t, s, policy.cutoffs)
        # response − size cancels to float noise for zero-wait jobs on
        # long horizons; clamp (real violations would be far larger).
        tags_w = np.maximum(responses - s, 0.0)
        _check_kernel_output(getattr(policy, "name", type(policy).__name__), tags_w)
        result = SimulationResult(
            policy_name=getattr(policy, "name", type(policy).__name__),
            n_hosts=n_hosts,
            arrival_times=t,
            sizes=s,
            wait_times=tags_w,
            host_assignments=assignment,
            wasted_work=wasted,
            backend="fast",
        )
        observe_result(result)
        return result
    else:
        raise ValueError(f"unsupported policy kind={kind!r}, fast_hint={hint!r}")

    _check_kernel_output(getattr(policy, "name", type(policy).__name__), waits)
    result = SimulationResult(
        policy_name=getattr(policy, "name", type(policy).__name__),
        n_hosts=n_hosts,
        arrival_times=t,
        sizes=s,
        wait_times=waits,
        host_assignments=assignment,
        processing_times=None if uniform else durations,
        backend="fast",
    )
    observe_result(result)
    return result


# ----------------------------------------------------------------------
# batched SITA cutoff scan (the cutoff-search engine's simulation kernel)
# ----------------------------------------------------------------------

#: Summary metrics :class:`SitaScanKernel` can score candidates by.  Any
#: other ``Summary`` field still needs the full per-candidate
#: ``simulate_fast`` path (see ``repro.core.cutoffs.sim_opt_cutoff``).
SCAN_METRICS = (
    "mean_slowdown",
    "mean_response",
    "mean_wait",
    "mean_waiting_slowdown",
)

#: (metric value, short_slowdown, long_slowdown, gap, n_short) for one
#: cutoff.
_ScanRow = tuple[float, float, float, float, int]


@kernel_contract(
    shapes={
        "t": ("n",),
        "s": ("n",),
        "out": ("n_out",),
        "work1": ("n_w1",),
        "work2": ("n_w2",),
        "return": ("n",),
    },
    dtypes={
        "t": "float64",
        "s": "float64",
        "out": "float64",
        "work1": "float64",
        "work2": "float64",
        "return": "float64",
    },
    writes=("out", "work1", "work2"),
    contiguous=("t", "s", "out", "work1", "work2"),
)
def _fcfs_waits_into(
    t: np.ndarray,
    s: np.ndarray,
    out: np.ndarray,
    work1: np.ndarray,
    work2: np.ndarray,
) -> np.ndarray:
    """:func:`fcfs_waits` into caller-provided storage.

    Bit-identical to ``fcfs_waits(t, s)`` — every intermediate is the
    same elementwise expression, only written into reusable workspaces
    instead of fresh allocations (the scan kernel runs this twice per
    candidate, where allocation churn would dominate).  ``out``/``work2``
    must hold ``t.size`` elements and ``work1`` one fewer; ``t`` and
    ``s`` must not alias the workspaces.
    """
    n = t.size
    if n == 0:
        return out[:0]
    d = np.subtract(t[1:], t[:-1], out=work1[: n - 1])  # np.diff(t)
    u = np.subtract(s[: n - 1], d, out=d)
    prefix = work2[:n]
    prefix[0] = 0.0
    np.cumsum(u, out=prefix[1:])
    m = np.minimum.accumulate(prefix, out=out[:n])
    return np.subtract(prefix, m, out=m)


@dataclass(frozen=True)
class SitaScanResult:
    """Per-candidate scores from one batched SITA cutoff scan.

    Every array is indexed by candidate.  ``values`` is bit-identical to
    ``getattr(simulate_fast(...).summary(warmup_fraction), metric)`` for
    a 2-host :class:`~repro.core.policies.sita.SITAPolicy` at that
    cutoff (non-finite values mapped to ``inf``, as the per-candidate
    loop did); ``short_slowdown``/``long_slowdown``/``gap`` are
    bit-identical to ``result.trimmed(...).class_mean_slowdowns(cutoff)``
    and the fair search's ``abs(log(s_short/s_long))`` score.  Degenerate
    candidates (one size class empty after warmup) carry NaN class
    slowdowns and an infinite ``gap``, mirroring the loop's skip.
    """

    #: the ``Summary`` field ``values`` holds (one of ``SCAN_METRICS``).
    metric: str
    candidates: np.ndarray
    #: number of jobs routed short (``size <= cutoff``) per candidate.
    n_short: np.ndarray
    values: np.ndarray
    short_slowdown: np.ndarray
    long_slowdown: np.ndarray
    #: ``abs(log(short_slowdown / long_slowdown))`` — the fair objective.
    gap: np.ndarray


class SitaScanKernel:
    """Shared state for scoring many 2-host SITA cutoffs on one trace.

    The per-candidate search loop used to pay a full ``simulate_fast``
    pass per cutoff — policy construction, assignment, Lindley, a
    :class:`SimulationResult` and a percentile-heavy ``Summary`` — twice
    over for an opt+fair pair.  This kernel sorts the job sizes **once**;
    each cutoff then maps to its size rank ``k`` via ``searchsorted``,
    the short/long classes follow directly, and only the two subset
    Lindley recursions (:func:`fcfs_waits` arithmetic) plus a handful of
    means run per candidate, all through preallocated scratch buffers.
    Because any two cutoffs falling between the same adjacent observed
    sizes induce the *same* partition, rows are memoised by ``k`` — a
    golden-section refinement that revisits a flat step of the
    (piecewise-constant) objective costs nothing.

    All arithmetic replicates the ``simulate_fast`` static path op for op
    (same shifted arrival axis, same reduce order), so the scores — and
    therefore any argmin over them — are bit-identical to the
    per-candidate loop.  The scratch buffers make a kernel instance
    stateful: share one per search, not across threads.
    """

    def __init__(
        self,
        trace: Trace,
        metric: str = "mean_slowdown",
        warmup_fraction: float = 0.0,
    ) -> None:
        if metric not in SCAN_METRICS:
            raise ValueError(
                f"metric {metric!r} is not scan-supported; expected one of "
                f"{SCAN_METRICS}"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0,1), got {warmup_fraction}"
            )
        self._metric = metric
        self._t = trace.arrival_times - trace.arrival_times[0]
        self._s = trace.service_times
        self._sorted_sizes = np.sort(self._s)
        self._start = int(self._s.size * warmup_fraction)
        self._rows: dict[int, _ScanRow] = {}
        n = self._s.size
        self._short = np.empty(n, dtype=bool)
        self._long = np.empty(n, dtype=bool)
        #: interleaved-order scatter target for the metric mean.
        self._full = np.empty(n)
        # short/long subset arrival times, sizes and waits.
        self._sub_t0 = np.empty(n)
        self._sub_s0 = np.empty(n)
        self._sub_w0 = np.empty(n)
        self._sub_t1 = np.empty(n)
        self._sub_s1 = np.empty(n)
        self._sub_w1 = np.empty(n)
        # Lindley workspaces, reused as class-slowdown buffers afterwards.
        self._scr0 = np.empty(n)
        self._scr1 = np.empty(n)
        # per-metric subset scratch (response / waiting-slowdown values).
        self._cls0 = np.empty(n)
        self._cls1 = np.empty(n)

    @property
    def metric(self) -> str:
        return self._metric

    @property
    def n_jobs(self) -> int:
        return self._s.size

    def cutoff_rank(self, cutoff: float) -> int:
        """Number of jobs with ``size <= cutoff`` (the partition key)."""
        return int(np.searchsorted(self._sorted_sizes, cutoff, side="right"))

    def evaluate(self, cutoff: float) -> _ScanRow:
        """Score one cutoff (memoised by its size rank)."""
        if not (math.isfinite(cutoff) and cutoff > 0.0):
            raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
        k = self.cutoff_rank(cutoff)
        row = self._rows.get(k)
        if row is None:
            row = self._evaluate_rank(k)
            self._rows[k] = row
        return row

    def _evaluate_rank(self, k: int) -> _ScanRow:
        t, s = self._t, self._s
        n = s.size
        start = self._start
        short, long_mask = self._short, self._long
        if k <= 0:
            short.fill(False)
        else:
            # Same membership as ``sizes <= cutoff`` for every cutoff of
            # rank k: boolean-mask selection preserves arrival order, so
            # the subset Lindley inputs match _static_waits exactly.
            np.less_equal(s, self._sorted_sizes[k - 1], out=short)
        np.logical_not(short, out=long_mask)
        ss = ws = self._sub_s0[:0]
        sl = wl = self._sub_s1[:0]
        if k > 0:
            ts = np.compress(short, t, out=self._sub_t0[:k])
            ss = np.compress(short, s, out=self._sub_s0[:k])
            ws = _fcfs_waits_into(ts, ss, self._sub_w0, self._scr0, self._scr1)
            _check_kernel_output("sita-search", ws)
        if k < n:
            tl = np.compress(long_mask, t, out=self._sub_t1[: n - k])
            sl = np.compress(long_mask, s, out=self._sub_s1[: n - k])
            wl = _fcfs_waits_into(tl, sl, self._sub_w1, self._scr0, self._scr1)
            _check_kernel_output("sita-search", wl)
        # Per-job slowdowns, computed subset-side: each job's
        # ``(wait + size) / size`` uses the same operands whether the
        # waits sit in subset or scattered order, so the values — and the
        # class means over them — match the ``simulate_fast`` path bit
        # for bit.  Only the *system* mean needs the interleaved arrival
        # order (``np.mean`` is pairwise, so summation order matters);
        # exactly one array is scattered back for it.
        cs = np.add(ws, ss, out=self._scr0[:k])
        np.divide(cs, ss, out=cs)
        cl = np.add(wl, sl, out=self._scr1[: n - k])
        np.divide(cl, sl, out=cl)
        full = self._full
        if self._metric == "mean_slowdown":
            full[short] = cs
            full[long_mask] = cl
        elif self._metric == "mean_response":
            full[short] = np.add(ws, ss, out=self._cls0[:k])
            full[long_mask] = np.add(wl, sl, out=self._cls1[: n - k])
        elif self._metric == "mean_wait":
            full[short] = ws
            full[long_mask] = wl
        else:  # mean_waiting_slowdown
            full[short] = np.divide(ws, ss, out=self._cls0[:k])
            full[long_mask] = np.divide(wl, sl, out=self._cls1[: n - k])
        value = float(np.mean(full[start:]))
        # Class mean slowdowns: the trimmed short class is the short
        # subset minus its first k0 (warmup) jobs, in the same arrival
        # order as the scattered ``slow[start:][mask]`` selection.
        k0 = int(np.count_nonzero(short[:start]))
        l0 = start - k0
        if k0 < k and l0 < n - k:
            s_short = float(np.mean(cs[k0:]))
            s_long = float(np.mean(cl[l0:]))
            gap = abs(math.log(s_short / s_long))
        else:
            s_short = s_long = math.nan
            gap = math.inf
        return (
            value if math.isfinite(value) else math.inf,
            s_short,
            s_long,
            gap,
            k,
        )

    @kernel_contract(
        shapes={"return": ("n",)},
        dtypes={"return": "float64"},
        writes=(),
        contiguous=("return",),
    )
    def waits_for_cutoff(self, cutoff: float) -> np.ndarray:
        """Untrimmed per-job waits at ``cutoff``, in a fresh array.

        The equivalence-test entry point (scratch-free, unmemoised):
        compares directly against ``simulate_fast(...).wait_times``.
        """
        k = self.cutoff_rank(cutoff)
        n = self._s.size
        if k <= 0:
            short = np.zeros(n, dtype=bool)
        else:
            short = self._s <= self._sorted_sizes[k - 1]
        waits = np.empty(n)
        if k > 0:
            waits[short] = fcfs_waits(self._t[short], self._s[short])
        if k < n:
            long_mask = ~short
            waits[long_mask] = fcfs_waits(self._t[long_mask], self._s[long_mask])
        return waits

    def scan(self, candidates) -> SitaScanResult:
        """Score every candidate cutoff in one pass over the sorted sizes."""
        c_arr = np.asarray(candidates, dtype=float)
        if c_arr.ndim != 1 or c_arr.size == 0:
            raise ValueError("candidates must be a non-empty 1-D array")
        if not np.all(np.isfinite(c_arr)) or np.any(c_arr <= 0):
            raise ValueError("candidate cutoffs must be positive and finite")
        rows = np.asarray([self.evaluate(float(c)) for c in c_arr], dtype=float)
        return SitaScanResult(
            metric=self._metric,
            candidates=c_arr,
            n_short=rows[:, 4].astype(int),
            values=rows[:, 0],
            short_slowdown=rows[:, 1],
            long_slowdown=rows[:, 2],
            gap=rows[:, 3],
        )


@kernel_contract(
    shapes={"candidates": ("m",)},
    dtypes={"candidates": ("float64", "int64")},
    writes=(),
)
def sita_scan(
    trace: Trace,
    candidates,
    metric: str = "mean_slowdown",
    warmup_fraction: float = 0.0,
) -> SitaScanResult:
    """Batched 2-host SITA cutoff scan over ``candidates`` on ``trace``.

    One-shot convenience over :class:`SitaScanKernel`; searches that also
    refine (``repro.core.search.sim_cutoff_pair``) hold on to the kernel
    so refinement evaluations share its sorted sizes and rank memo.
    """
    kernel = SitaScanKernel(trace, metric=metric, warmup_fraction=warmup_fraction)
    return kernel.scan(candidates)


#: host-selection modes of :func:`serve_dispatch_batch`.
SERVE_DISPATCH_MODES = {"lwl": 0, "fixed": 1}


@kernel_contract(
    shapes={
        "arrival_times": ("n",),
        "sizes": ("n",),
        "host_speeds": ("h",),
        "v": ("h",),
        "hosts": ("n",),
        "starts": ("n",),
    },
    dtypes={
        "arrival_times": "float64",
        "sizes": "float64",
        "host_speeds": "float64",
        "v": "float64",
        "hosts": "int64",
        "starts": "float64",
    },
    writes=("v", "hosts", "starts"),
    contiguous=(
        "arrival_times",
        "sizes",
        "host_speeds",
        "v",
        "hosts",
        "starts",
    ),
)
def serve_dispatch_batch(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    host_speeds: np.ndarray,
    v: np.ndarray,
    hosts: np.ndarray,
    starts: np.ndarray,
    mode: int,
) -> None:
    """Route one arrival batch through incremental O(1) host updates.

    The online dispatcher's fault-free fast path (see
    :mod:`repro.serve.fastpath`): instead of scheduling an event per
    job, each job advances a single per-host scalar — the virtual
    completion time ``v`` — by the event engine's own float expressions
    (``start = max(v[h], t)``, ``v[h] = start + size/speed``), so the
    produced start epochs (written into ``starts``) and the implied
    completions ``starts + sizes/speeds[hosts]`` are bit-identical to
    the engine path.

    ``mode`` selects the host rule — ``0``: Least-Work-Left, a
    first-minimum scan of ``max(0, v - t)`` matching ``np.argmin``
    tie-breaking; ``1``: ``hosts`` arrives pre-filled (SITA's
    ``searchsorted`` over the batch, or Random/Round-Robin, whose draws
    must advance the policy's RNG or pointer one job at a time in
    Python).  Chosen hosts are written back into ``hosts`` in every
    mode.
    """
    n = arrival_times.shape[0]
    if n == 0:
        return
    # Plain-float loops (tolist) with the engine's IEEE-754 arithmetic
    # — see lwl_waits on why this beats ndarray indexing in a tight
    # loop.
    t_list = arrival_times.tolist()
    s_list = sizes.tolist()
    v_list = v.tolist()
    sp_list = host_speeds.tolist()
    n_hosts = len(v_list)
    hosts_out = [0] * n
    starts_out = [0.0] * n
    if mode == 0:
        for j in range(n):
            tj = t_list[j]
            best = 0
            best_key = v_list[0] - tj
            if best_key < 0.0:
                best_key = 0.0
            for i in range(1, n_hosts):
                key = v_list[i] - tj
                if key < 0.0:
                    key = 0.0
                if key < best_key:
                    best = i
                    best_key = key
            vb = v_list[best]
            start = tj if vb < tj else vb
            starts_out[j] = start
            hosts_out[j] = best
            v_list[best] = start + s_list[j] / sp_list[best]
    elif mode == 1:
        h_list = hosts.tolist()
        for j in range(n):
            tj = t_list[j]
            best = h_list[j]
            vb = v_list[best]
            start = tj if vb < tj else vb
            starts_out[j] = start
            hosts_out[j] = best
            v_list[best] = start + s_list[j] / sp_list[best]
    else:
        raise ValueError(f"unknown dispatch mode {mode!r}")
    hosts[:] = hosts_out
    starts[:] = starts_out
    v[:] = v_list
