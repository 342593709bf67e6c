"""The benchmark's metric catalog and the statistics it reports.

Three roles:

``e2e``
    What a user waits for or pays, reported by every workload and gated
    by a bound (the share of the parent's median by which it may worsen
    before a change counts as a regression).  ``BENCHMARK.json`` lists
    exactly these under ``end_to_end``.
``report``
    The same costs under the names a workload's user knows them by
    (``sweep_s``, ``decisions_per_s``, ``socket_rps`` ...).  They exist
    on some workloads only, so they are printed and written to ``--out``
    and compared by ``compare``, but the single-line result carries the
    ``e2e`` set.
``layer``
    Per-layer numbers from the traced repeat, never gated.
    ``BENCHMARK.json`` lists them under ``per_layer``.  A layer that a
    workload never calls reports 0.  The socket latencies are measured
    on every repeat but filed here because only one workload has them.

The time bounds are 25%, the widest bound ``BENCHMARK.json`` may carry,
because the 2-vCPU machine the benchmark was calibrated on swings in
speed by far more than 10% over seconds to minutes (README.md, "Noise").
Paired runs (``pairs``) see much less of that swing than two separate
sets of runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

__all__ = ["CATALOG", "Metric", "by_role", "summarize"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    role: str  # "e2e", "report" or "layer"
    #: worsening allowed as a share of the baseline median; 0.0 means
    #: "no increase" and None means the metric is not gated.
    bound: float | None = None


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, "layer")


CATALOG: tuple[Metric, ...] = (
    # -- end to end ---------------------------------------------------
    Metric("setup_s", "s", "lower", "e2e", 0.25),
    Metric("work_s", "s", "lower", "e2e", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "e2e", 0.10),
    # -- the same costs, by workload ----------------------------------
    Metric("sweep_s", "s", "lower", "report", 0.25),
    Metric("decisions_per_s", "1/s", "higher", "report", 0.25),
    Metric("mem_growth_mb", "MB", "lower", "report", 0.10),
    Metric("socket_rps", "1/s", "higher", "report", 0.25),
    Metric("error_rate", "fraction", "lower", "report", 0.0),
    # -- sweep layers -------------------------------------------------
    _layer("workloads.make_split_trace.s", "s"),
    _layer("core.search.fit_sita_cutoffs.s", "s"),
    _layer("core.search.fit_sita_cutoffs.calls", "count"),
    _layer("core.cutoffs.equal_load_cutoffs.s", "s"),
    _layer("sim.runner.simulate.self_s", "s"),
    _layer("sim.fast.lwl_waits.s", "s"),
    _layer("sim.fast.lwl_waits.jobs_per_s", "1/s", "higher"),
    _layer("sim.fast.fcfs_waits.s", "s"),
    _layer("sim.fast.fcfs_waits.jobs_per_s", "1/s", "higher"),
    _layer("sim.metrics.summary.s", "s"),
    # -- serve layers -------------------------------------------------
    _layer("serve.server.submit_batch.self_s", "s"),
    _layer("serve.fastpath.route_batch.s", "s"),
    _layer("serve.fastpath.route_batch.decisions_per_s", "1/s", "higher"),
    _layer("serve.fastpath.materialize_completed.s", "s"),
    _layer("serve.server.drain.self_s", "s"),
    _layer("serve.server.status.s", "s"),
    _layer("serve.server.submit.self_s", "s"),
    _layer("serve.server.submit.calls", "count"),
    _layer("serve.fastpath.route_one.s", "s"),
    _layer("sim.engine.run.s", "s"),
    _layer("sim.engine.run.calls", "count"),
    _layer("serve.health.up_mask.s", "s"),
    _layer("serve.health.up_mask.calls", "count"),
    _layer("serve.health.probe.s", "s"),
    _layer("serve.health.probe.calls", "count"),
    _layer("serve.retries_per_decision", "ratio"),
    _layer("serve.handoff_failures_per_decision", "ratio"),
    # -- socket front end and load generator --------------------------
    _layer("serve.frontend.server_cpu_us_per_req", "us"),
    _layer("serve.protocol.decode_line.s", "s"),
    _layer("serve.protocol.encode.s", "s"),
    _layer("serve.frontend.unattributed_s", "s"),
    _layer("socket_p50_ms_15k", "ms"),
    _layer("socket_p50_ms_30k", "ms"),
    _layer("socket_p99_ms_15k", "ms"),
    _layer("socket_p99_ms_15k.samples", "count"),
    _layer("socket_p99_ms_30k", "ms"),
    _layer("socket_p99_ms_30k.samples", "count"),
    _layer("loadgen.cpu_us_per_req", "us"),
    _layer("loadgen.late_p99_ms", "ms"),
    _layer("loadgen.late_max_ms", "ms"),
    _layer("loadgen.late_p99_ms.samples", "count"),
    # -- the traced root ----------------------------------------------
    _layer("root.wall_s", "s"),
    _layer("root.unattributed_s", "s"),
    _layer("root.trace_overhead_pct", "%"),
)

BY_NAME = {m.name: m for m in CATALOG}


def by_role(role: str) -> list[Metric]:
    return [m for m in CATALOG if m.role == role]


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count, as ``statistics.quantiles`` gives them."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples to summarize")
    med = statistics.median(vals)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals), "samples": vals}
