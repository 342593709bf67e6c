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
   of bare virtual completion times (:func:`lwl_waits`).  The heap pops
   completions in ascending order, so the hosts follow afterwards from
   one sort of the completions and pointer jumping, in bulk.  The heap
   loop walks the stream in fixed chunks of ``_LWL_CHUNK`` jobs, the
   heap carried across, so its Python floats stay one chunk's worth
   however long the trace; every operation and its order are those of
   one unchunked walk.

4. **State-reading policies resume from the host state.**  Unequal
   speeds, Shortest-Queue and estimate-driven LWL route through two
   resumable kernels, :func:`least_work_dispatch` and
   :func:`shortest_queue_dispatch`, which the serve fast path runs too.

These two and the entry points built on them are ``==`` the event
engine on start epochs and hosts: they use its float expressions
(``start = t if v < t else v``, ``v = start + size/speed``), and
``tests/sim/test_fast.py`` holds them to ``DistributedServer.run_trace``
on continuous-time streams (on an exact completion/arrival tie
``run_trace`` takes the arrival first, the shortest-queue kernel the
completion).  :func:`fcfs_starts` is the engine's per-host recursion,
exactly.  :func:`fcfs_waits` and what is built on it (the static path
and :func:`tags_waits`) and the identical-host :func:`lwl_waits` heap,
whose hosts may differ on exact ties, agree on waits to floating-point
accuracy (``tests/sim/test_fast_vs_engine.py``).

Array inputs are checked by plain code, not a declared ABI: the kernels
coerce them with ``np.asarray(..., dtype=float)`` and raise
``ValueError`` when per-job inputs differ in length.  No kernel writes
into its inputs; only the dispatch kernels update the host state they
are handed.  ``tests/sim/test_fast.py`` holds every kernel to that on
read-only, float32 and strided inputs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from ..workloads.distributions import _as_host_speeds, _as_rng
from ..workloads.traces import Trace
from .engine import InvariantViolation
from .metrics import SimulationResult, observe_result

__all__ = [
    "fcfs_waits",
    "lwl_waits",
    "estimated_lwl_waits",
    "shortest_queue_waits",
    "tags_waits",
    "simulate_fast",
    "fcfs_starts",
    "least_work_dispatch",
    "shortest_queue_dispatch",
]


#: jobs per chunk of the identical-host :func:`lwl_waits` heap loop.  Its
#: plain-float lists cost about 96 B per job, so chunking bounds them at
#: about 6 MB whatever the stream's length.
_LWL_CHUNK = 65_536


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


def lwl_waits(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    n_hosts: int,
    host_speeds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Waits and host assignments under Least-Work-Left / Central-Queue.

    Kiefer–Wolfowitz via a min-heap of per-host virtual completion times:
    each job is matched with the earliest-free host, ``O(n log h)``.
    With ``host_speeds`` the choice among idle hosts changes every later
    wait, so :func:`least_work_dispatch` routes job by job.  (The LWL ≡
    Central-Queue equivalence holds only for identical hosts.)

    Returns ``(waits, hosts)``.  On identical hosts each job goes to the
    host with the smallest ``(V, host index)`` pair — the earliest
    virtual completion time, the lowest index among equal ``V``.  Among
    several idle hosts this is the one that went idle first, not the
    lowest index; waits are identical either way (the heap holds bare
    ``V`` floats, and :func:`_lwl_hosts` recovers the hosts in bulk).
    With unequal speeds the rule is the policy's own: least work left,
    lowest index on ties.
    """
    t = np.asarray(arrival_times, dtype=float)
    s = np.asarray(sizes, dtype=float)
    if t.shape != s.shape or t.ndim != 1:
        raise ValueError("arrival_times and sizes must be equal-length 1-D")
    speeds = _as_host_speeds(host_speeds, n_hosts)
    n = t.size
    if np.all(speeds == 1.0):
        # Identical hosts: tie-breaks cannot affect waits, so the
        # O(n log h) earliest-free heap is exact.  The loop runs on
        # plain Python floats (``tolist``) with the heap function bound
        # locally: indexing a NumPy array in a tight loop boxes a fresh
        # np.float64 per access and re-resolves attributes, roughly
        # doubling the cost of the recursion (timings in
        # docs/PERFORMANCE.md).  ``start − t`` and ``start + s`` are
        # the IEEE operations of a per-job ``max(V, t)`` form.  The
        # heap ``free`` carries across chunks.
        start = np.empty(n)
        heapreplace = heapq.heapreplace
        free = [0.0] * n_hosts  # a valid heap
        for lo in range(0, n, _LWL_CHUNK):
            hi = lo + _LWL_CHUNK
            starts: list[float] = []
            push = starts.append
            for tj, sj in zip(t[lo:hi].tolist(), s[lo:hi].tolist()):
                v = free[0]
                if v < tj:
                    v = tj
                push(v)
                heapreplace(free, v + sj)
            start[lo:hi] = starts
        waits = np.subtract(start, t)
        done = np.add(start, s, out=start)
        hosts = _lwl_hosts(t, s, done, n_hosts)
    else:
        hosts, start = least_work_dispatch(t, s, speeds, [0.0] * n_hosts)
        waits = np.subtract(start, t)
        done = np.add(start, s / speeds[hosts], out=start)
    # A non-finite completion hidden from every wait drops its host silently.
    if not np.isfinite(done).all() and np.isfinite(waits).all():
        raise InvariantViolation("least-work-left kernel produced a non-finite completion")
    return waits, hosts


def _dispatch_columns(arrival_times, sizes, host_speeds, v: list[float]):
    """The job columns and speeds as checked plain-float lists (no boxing in the loops)."""
    t = np.asarray(arrival_times, dtype=float)
    s = np.asarray(sizes, dtype=float)
    speeds = np.asarray(host_speeds, dtype=float)
    if t.shape != s.shape or t.ndim != 1 or speeds.shape != (len(v),):
        raise ValueError("need equal-length 1-D arrival_times and sizes, one v per speed")
    return t.tolist(), s.tolist(), speeds.tolist()


def least_work_dispatch(
    arrival_times: np.ndarray, sizes: np.ndarray, host_speeds: np.ndarray, v: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Route jobs by Least-Work-Left from the hosts' state, exactly.

    ``v`` lists the hosts' virtual completion times and is updated in
    place, so calls chain.  Each job goes to the host with the least
    work left, ``max(0, v − t)``, lowest index on ties, and advances it
    by the engine's ``start = t if v < t else v``, ``v = start +
    size/speed``.  Returns ``(hosts, starts)``.
    """
    hosts, starts = _least_work_loop(*_dispatch_columns(arrival_times, sizes, host_speeds, v), v)
    return np.array(hosts, dtype=np.int64), np.array(starts, dtype=float)


def _least_work_loop(
    t_list: list[float], s_list: list[float], sp: list[float], v: list[float]
) -> tuple[list[int], list[float]]:
    """:func:`least_work_dispatch`'s loop, on plain lists of floats; the
    serve fast path calls it directly, with no array conversions."""
    n_hosts = len(v)
    hosts = [0] * len(t_list)
    starts = [0.0] * len(t_list)
    for j, tj in enumerate(t_list):
        # Strict ``<``: the first idle host cannot be beaten.
        i = 0
        work = v[0] - tj
        for k in range(1, n_hosts):
            if work <= 0.0:
                break
            w = v[k] - tj
            if w < work:
                i, work = k, w
        vi = v[i]
        start = tj if vi < tj else vi
        hosts[j] = i
        starts[j] = start
        v[i] = start + s_list[j] / sp[i]
    return hosts, starts


def shortest_queue_dispatch(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    host_speeds: np.ndarray,
    v: list[float],
    in_system: list[deque[float]],
) -> tuple[np.ndarray, np.ndarray]:
    """Route jobs by Shortest-Queue from the hosts' state, exactly.

    As :func:`least_work_dispatch`, but each job goes to the host with
    the fewest jobs in system, lowest index on ties.  ``in_system[i]``
    holds host ``i``'s completion epochs in order; one ``<= t`` is gone.
    ``v`` and ``in_system`` are updated in place.
    """
    columns = _dispatch_columns(arrival_times, sizes, host_speeds, v)
    if len(in_system) != len(v):
        raise ValueError("in_system must have one deque per host")
    hosts, starts = _shortest_queue_loop(*columns, v, in_system)
    return np.array(hosts, dtype=np.int64), np.array(starts, dtype=float)


def _shortest_queue_loop(
    t_list: list[float],
    s_list: list[float],
    sp: list[float],
    v: list[float],
    in_system: list[deque[float]],
) -> tuple[list[int], list[float]]:
    """:func:`shortest_queue_dispatch`'s loop, on plain lists of floats."""
    hosts = [0] * len(t_list)
    starts = [0.0] * len(t_list)
    for j, tj in enumerate(t_list):
        i = 0
        fewest = -1
        for k, d in enumerate(in_system):
            while d and d[0] <= tj:
                d.popleft()
            if fewest < 0 or len(d) < fewest:
                i, fewest = k, len(d)
        vi = v[i]
        start = tj if vi < tj else vi
        done = start + s_list[j] / sp[i]
        hosts[j] = i
        starts[j] = start
        v[i] = done
        in_system[i].append(done)
    return hosts, starts


def _lwl_hosts(t: np.ndarray, s: np.ndarray, done: np.ndarray, n_hosts: int) -> np.ndarray:
    """Hosts of the identical-host LWL heap, from the jobs' completions.

    Every size is positive, so each job's completion exceeds the value
    it popped and the heap pops completions in ascending order: the
    first ``h`` jobs take hosts ``0..h−1`` and job ``j ≥ h`` takes the
    host of the job whose completion is the ``(j − h)``-th smallest.
    The labels follow by pointer jumping over that parent array.  The
    rule needs distinct finite completions and ``parent[j] < j``; any
    input that breaks it (an exact tie, a size ≤ 0, a non-finite value)
    gets its hosts from the labelled ``[V, host]`` heap loop instead.
    The jumping rounds reuse two n-element buffers.
    """
    n = done.size
    m = min(n_hosts, n)
    if n == 0 or not s.min() > 0.0:
        return _labelled_lwl_hosts(t, s, n_hosts)
    order = np.argsort(done, kind="stable")
    if not np.all(order[: n - m] < np.arange(m, n)):
        return _labelled_lwl_hosts(t, s, n_hosts)
    # The completions in ascending order, in the hosts buffer's memory.
    hosts = np.empty(n, dtype=np.int64)
    ranked = np.take(done, order, out=hosts.view(np.float64), mode="clip")
    if not (math.isfinite(ranked[-1]) and np.all(ranked[1:] > ranked[:-1])):
        return _labelled_lwl_hosts(t, s, n_hosts)
    hosts[:m] = np.arange(m)
    hosts[m:] = order[: n - m]
    spare = order
    while hosts.max() >= n_hosts:
        np.take(hosts, hosts, out=spare, mode="clip")
        hosts, spare = spare, hosts
    return hosts


def _labelled_lwl_hosts(t: np.ndarray, s: np.ndarray, n_hosts: int) -> np.ndarray:
    """Hosts of the identical-host LWL heap, run with unique ``[V, host]`` labels:
    the root, their lexicographic minimum, is the job's host."""
    hosts: list[int] = []
    push = hosts.append
    heapreplace = heapq.heapreplace
    free: list[list] = [[0.0, i] for i in range(n_hosts)]  # a valid heap
    for tj, sj in zip(t.tolist(), s.tolist()):
        root = free[0]
        v, i = root
        push(i)
        root[0] = (tj if v < tj else v) + sj
        heapreplace(free, root)
    return np.fromiter(hosts, np.int64, t.size)


def shortest_queue_waits(
    arrival_times: np.ndarray,
    sizes: np.ndarray,
    n_hosts: int,
    host_speeds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Waits and assignments under Shortest-Queue (fewest jobs in system).

    :func:`shortest_queue_dispatch` from empty hosts: per host, the
    virtual completion time and a FIFO of departure epochs (monotone, so
    expiry is an amortised O(1) pop).  Ties go to the lowest host index,
    matching :class:`ShortestQueuePolicy`.
    """
    speeds = _as_host_speeds(host_speeds, n_hosts)
    hosts, starts = shortest_queue_dispatch(
        arrival_times, sizes, speeds, [0.0] * n_hosts, [deque() for _ in range(n_hosts)]
    )
    return np.subtract(starts, arrival_times, out=starts), hosts


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
    # Least believed work left, matching EstimatedLWLPolicy.choose_host
    # (its ``max(V̂, t) + ŝ`` is the kernel's expression at speed 1), then
    # each host's FCFS recursion over the true sizes.
    hosts, starts = least_work_dispatch(t, e, _as_host_speeds(None, n_hosts), [0.0] * n_hosts)
    for i in range(n_hosts):
        idx = np.flatnonzero(hosts == i)
        if idx.size:
            starts[idx], _ = fcfs_starts(t[idx], s[idx], 0.0)
    return np.subtract(starts, t, out=starts), hosts


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
    speeds = _as_host_speeds(host_speeds, n_hosts)
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
    elif kind == "central" or hint in ("lwl", "sq"):
        kernel = shortest_queue_waits if hint == "sq" else lwl_waits
        waits, assignment = kernel(t, s, n_hosts, host_speeds=speeds)
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


#: refinement rounds :func:`fcfs_starts` runs before its scalar loop
#: finishes the suffix (streams of ulp-level near-ties settle in 2–4).
_FCFS_START_ROUNDS = 8

#: shortest suffix :func:`fcfs_starts` vectorises; below it the scalar
#: loop is cheaper than the vector path's fixed cost (about 0.1 ms).
_FCFS_VECTOR_FROM = 512


def _fold_busy_periods(
    t: np.ndarray, d: np.ndarray, first: np.ndarray, v0: float
) -> np.ndarray:
    """Start epochs of one FCFS host for given busy-period flags.

    ``starts[0] = t[0] if v0 < t[0] else v0``; for ``j >= 1``,
    ``starts[j] = t[j]`` where ``first[j]`` (``j`` opens a busy period)
    and ``starts[j-1] + d[j-1]`` elsewhere.  ``first[0]`` is not read.
    Each busy period is summed left to right by ``np.add.accumulate``
    — the same IEEE additions, in the same order, as the scalar
    recursion.  Periods of length in ``(2^(k-1), 2^k]`` are the rows of
    one ``2^k``-wide block, so the blocks hold under ``2m`` cells; a
    row's padding reads and writes the sentinel slot ``x[m]``, reset
    to zero after every block, so it never touches another period.
    """
    m = t.shape[0]
    x = np.empty(m + 1)
    x[1:m] = d[:-1]
    heads = np.flatnonzero(first[1:])
    heads += 1
    x[heads] = t[heads]
    x[0] = t[0] if v0 < t[0] else v0
    x[m] = 0.0
    ends = np.append(heads, m)
    lengths = ends - np.insert(heads, 0, 0)
    runs = np.flatnonzero(lengths > 1)
    if runs.size:
        lengths = lengths[runs]
        heads = ends[runs] - lengths
        # ceil(log2(length)): the block width exponent.
        keys = np.frexp(lengths - 1)[1].astype(np.int8)
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys).tolist()
        cols = np.arange(1 << (len(counts) - 1))
        lo = 0
        for k, c in enumerate(counts):
            if not c:
                continue
            rows = order[lo : lo + c]
            lo += c
            w = cols[: 1 << k]
            idx = heads[rows][:, None] + w
            idx[w >= lengths[rows][:, None]] = m
            block = x[idx]
            np.add.accumulate(block, axis=1, out=block)
            x[idx] = block
            x[m] = 0.0
    return x[:m]


def fcfs_starts(
    arrival_times: np.ndarray, durations: np.ndarray, v0: float
) -> tuple[np.ndarray, float]:
    """Start epochs of one FCFS host resuming from backlog ``v0``, exactly.

    Bit-identical to the scalar recursion the event engine runs
    (``start = t if v < t else v``; ``v = start + d``, starting from
    ``v = v0``) and returns ``(starts, v)`` with ``v`` the host's
    virtual completion time after the last job, so calls chain: feed
    the ``v`` of one call to the next.  The serve fast path settles its
    fixed-host records through this (see :mod:`repro.serve.fastpath`),
    and :func:`estimated_lwl_waits` times each host's jobs with it.

    Three steps, vectorised:

    1. Guess each busy period's first job from the approximate
       :func:`fcfs_waits` (a zero wait), with the inherited backlog as a
       pseudo-job ahead of the stream.
    2. Sum each guessed busy period exactly (:func:`_fold_busy_periods`).
    3. Re-derive the flags from those sums (``start + d < t`` of the
       next job) until they agree with the ones summed.

    A fixpoint satisfies the recursion at every job, so it *is* the
    loop's output.  Each round keeps every flag before the first
    disagreement and fixes that one (its predecessors' sums are exact),
    so the first wrong flag moves strictly right; rounds refold only
    the suffix from there.  After ``_FCFS_START_ROUNDS`` rounds, or
    once the suffix is shorter than ``_FCFS_VECTOR_FROM`` jobs, a plain
    loop finishes it, so the worst case stays O(m).
    """
    t = arrival_times
    d = durations
    if t.shape != d.shape:
        raise ValueError("arrival_times and durations must be equal-length")
    m = t.shape[0]
    v = float(v0)
    starts = np.empty(m)
    lo = 0
    if m >= _FCFS_VECTOR_FROM:
        t0 = float(t[0])
        backlog = np.array([v - t0 if v > t0 else 0.0])
        waits = fcfs_waits(
            np.concatenate((t[:1], t)), np.concatenate((backlog, d))
        )
        first = waits[1:] <= 0.0
        for _ in range(_FCFS_START_ROUNDS):
            s = _fold_busy_periods(t[lo:], d[lo:], first[lo:], v)
            starts[lo:] = s
            ends = s[:-1] + d[lo : m - 1]
            implied = ends < t[lo + 1 :]
            wrong = np.flatnonzero(implied != first[lo + 1 :])
            if not wrong.size:
                return starts, float(s[-1] + d[m - 1])
            k = int(wrong[0])
            first[lo + 1 + k :] = implied[k:]
            v = float(ends[k])
            lo += 1 + k
            if m - lo < _FCFS_VECTOR_FROM:
                break
    t_list = t[lo:].tolist()
    d_list = d[lo:].tolist()
    tail = [0.0] * len(t_list)
    for j, tj in enumerate(t_list):
        start = tj if v < tj else v
        tail[j] = start
        v = start + d_list[j]
    starts[lo:] = tail
    return starts, v
