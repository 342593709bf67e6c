"""Tests for the shared-computation cutoff-search engine.

The scan-vs-loop class runs under ``REPRO_SIM_STRICT=1`` in CI — the
kernel routes every subset Lindley pass through the same invariant
checks as ``simulate_fast``.
"""

from __future__ import annotations

import gc
import math
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.mg1 import mg1_metrics
from repro.analysis.sita_analysis import _interval_moments, analyze_sita
from repro.core.cutoffs import sim_fair_cutoff, sim_opt_cutoff
from repro.core.search import (
    analytic_cutoff_pair,
    candidate_cutoffs,
    sim_cutoff_pair,
    sim_pair_reference,
)
from repro.core.policies.sita import SITAPolicy
from repro.sim.fast import SitaScanKernel, simulate_fast
from repro.workloads.catalog import c90
from repro.workloads.distributions import BoundedPareto, Empirical, Lognormal
from repro.workloads.traces import Trace


@pytest.fixture(scope="module")
def train() -> Trace:
    trace = c90().make_trace(load=0.7, n_hosts=2, n_jobs=6_000, rng=2024)
    half = trace.n_jobs // 2
    return Trace(
        trace.arrival_times[:half], trace.service_times[:half], name="train"
    )


@pytest.fixture(scope="module")
def empirical(train) -> Empirical:
    return Empirical(train.service_times)


@dataclass
class _StubTrace:
    """Bare trace stand-in: real ``Trace`` validates sizes at build time,
    so the degenerate-grid guards need a looser object."""

    service_times: np.ndarray
    name: str = "stub"


class TestCandidateCutoffs:
    def test_matches_historical_grid(self, train):
        s = train.service_times
        lo, hi = float(np.min(s)), float(np.max(s))
        expected = np.exp(
            np.linspace(math.log(lo * 1.001), math.log(hi * 0.999), 40)
        )
        np.testing.assert_array_equal(candidate_cutoffs(train, 40), expected)

    def test_rejects_nonpositive_min_size(self):
        stub = _StubTrace(np.array([0.0, 1.0, 10.0]))
        with pytest.raises(ValueError, match="non-positive minimum service time"):
            candidate_cutoffs(stub, 10)

    def test_rejects_negative_min_size(self):
        stub = _StubTrace(np.array([-3.0, 1.0, 10.0]))
        with pytest.raises(ValueError, match="non-positive minimum"):
            candidate_cutoffs(stub, 10)

    def test_rejects_all_equal_sizes(self):
        stub = _StubTrace(np.full(50, 7.5), name="constant")
        with pytest.raises(ValueError, match="zero width"):
            candidate_cutoffs(stub, 10)
        with pytest.raises(ValueError, match="'constant'"):
            candidate_cutoffs(stub, 10)

    def test_rejects_too_few_candidates(self, train):
        with pytest.raises(ValueError, match="at least 2 candidates"):
            candidate_cutoffs(train, 1)


class TestScanVsLoop:
    """The batched scan must reproduce the per-candidate loop exactly."""

    def test_waits_bit_identical_to_simulate_fast(self, train):
        kernel = SitaScanKernel(train)
        for c in candidate_cutoffs(train, 12)[::3]:
            expected = simulate_fast(
                train, SITAPolicy([float(c)], name="sita-search"), 2, rng=0
            ).wait_times
            np.testing.assert_array_equal(
                kernel.waits_for_cutoff(float(c)), expected
            )

    @pytest.mark.parametrize(
        "metric",
        ["mean_slowdown", "mean_response", "mean_wait", "mean_waiting_slowdown"],
    )
    def test_values_bit_identical_to_summary(self, train, metric):
        candidates = candidate_cutoffs(train, 10)
        kernel = SitaScanKernel(train, metric=metric, warmup_fraction=0.05)
        result = kernel.scan(candidates)
        for i, c in enumerate(candidates):
            summ = simulate_fast(
                train, SITAPolicy([float(c)], name="sita-search"), 2, rng=0
            ).summary(warmup_fraction=0.05)
            expected = getattr(summ, metric)
            if not math.isfinite(expected):
                expected = math.inf
            assert result.values[i] == expected

    def test_class_slowdowns_bit_identical_to_trimmed(self, train):
        candidates = candidate_cutoffs(train, 10)
        result = SitaScanKernel(train, warmup_fraction=0.05).scan(candidates)
        for i, c in enumerate(candidates):
            trimmed = simulate_fast(
                train, SITAPolicy([float(c)], name="sita-search"), 2, rng=0
            ).trimmed(0.05)
            try:
                s_short, s_long = trimmed.class_mean_slowdowns(float(c))
            except ValueError:
                assert math.isnan(result.short_slowdown[i])
                assert math.isinf(result.gap[i])
                continue
            assert result.short_slowdown[i] == s_short
            assert result.long_slowdown[i] == s_long
            assert result.gap[i] == abs(math.log(s_short / s_long))

    def test_grid_argmins_bit_identical_to_reference_loop(self, train):
        pair = sim_cutoff_pair(train, refine=False)
        ref_opt, ref_fair = sim_pair_reference(train)
        assert pair.opt == ref_opt
        assert pair.fair == ref_fair

    def test_wrappers_match_pair(self, train):
        pair = sim_cutoff_pair(train, n_candidates=25, refine=False)
        assert sim_opt_cutoff(train, n_candidates=25) == pair.opt
        assert sim_fair_cutoff(train, n_candidates=25) == pair.fair

    def test_refinement_never_worse_than_grid(self, train):
        grid = sim_cutoff_pair(train, refine=False)
        refined = sim_cutoff_pair(train, refine=True)
        assert refined.opt_metric <= grid.opt_metric
        assert refined.fair_gap <= grid.fair_gap
        # refined winners stay inside the winning grid brackets
        cands = grid.candidates
        lo = cands[max(0, grid.opt_index - 1)]
        hi = cands[min(len(cands) - 1, grid.opt_index + 1)]
        assert lo <= refined.opt <= hi

    def test_kernel_memoises_partition_revisits(self, train):
        kernel = SitaScanKernel(train)
        c = float(candidate_cutoffs(train, 10)[5])
        row = kernel.evaluate(c)
        # Same partition rank via a nearby cutoff -> same cached row object.
        assert kernel.evaluate(c * (1.0 + 1e-12)) is row

    def test_kernel_input_validation(self, train):
        with pytest.raises(ValueError, match="not scan-supported"):
            SitaScanKernel(train, metric="p99_slowdown")
        with pytest.raises(ValueError, match="warmup_fraction"):
            SitaScanKernel(train, warmup_fraction=1.0)
        kernel = SitaScanKernel(train)
        with pytest.raises(ValueError, match="positive and finite"):
            kernel.evaluate(-1.0)
        with pytest.raises(ValueError, match="candidates"):
            kernel.scan(np.array([]))


class TestSliceMoments:
    @staticmethod
    def generic_slices(dist, cutoffs):
        """The per-slice path: prob_interval, conditional and
        partial_moment, each ranking its own slice."""
        edges = [0.0, *cutoffs, math.inf]
        return [_interval_moments(dist, lo, hi) for lo, hi in zip(edges, edges[1:])]

    def test_cutoffs_between_adjacent_sizes_analyse_equal(self, empirical):
        """Cutoffs between the same adjacent observed sizes give the same
        partition, so bit-equal analyses."""
        lam = 2.0 * 0.7 / empirical.mean
        v = empirical.values
        k = int(0.98 * v.size)
        c_lo, c_hi = float(v[k - 1]), float(v[k])
        assert c_hi > c_lo
        a = analyze_sita(lam, empirical, [c_lo])
        b = analyze_sita(lam, empirical, [0.5 * (c_lo + c_hi)])
        assert a.mean_slowdown == b.mean_slowdown
        assert a.var_slowdown == b.var_slowdown
        assert a.class_mean_slowdowns() == b.class_mean_slowdowns()

    @pytest.mark.parametrize("view", [False, True])
    def test_rank_once_slices_equal_generic_path(self, empirical, view):
        dist = empirical
        if view:  # a conditional view: nonzero offset, its own n
            v = empirical.values
            dist = empirical.conditional(float(v[100]), float(v[-50]))
            assert dist._offset == 101 and dist.n == v.size - 150
        v = dist.values
        between = (v[:-1] + v[1:]) / 2
        cutoffs = np.concatenate([
            v, between[between > v[:-1]],
            [v[0] / 2, v[-1] * 2, 0.0, math.inf, -1.0, math.nan],
        ])
        for c in cutoffs.tolist():
            got = dist.cutoff_moments([c])
            assert got == self.generic_slices(dist, [c]), c
        assert dist.cutoff_moments([v[0] / 2])[0] is None
        assert dist.cutoff_moments([v[-1]])[1] is None
        # h = 3 and 4 hosts: increasing draws, repeats (an empty middle
        # slice) and the special values above included.
        rng = np.random.default_rng(7)
        for n_cut in (2, 3):
            for _ in range(400):
                cut = np.sort(rng.choice(cutoffs, n_cut)).tolist()
                got = dist.cutoff_moments(cut)
                assert len(got) == n_cut + 1
                assert got == self.generic_slices(dist, cut), cut

    @pytest.mark.parametrize("cutoffs", [[3_000.0], [300.0, 3_000.0], [60.0, 900.0, 9_000.0]])
    @pytest.mark.parametrize("speeds", [None, "mixed"])
    def test_analysis_equals_generic_path(self, empirical, monkeypatch, cutoffs, speeds):
        """analyze_sita on an Empirical reads every slice off one rank per
        cutoff; feeding it the per-slice moments instead changes no bit."""
        h = len(cutoffs) + 1
        host_speeds = None if speeds is None else [0.5, 2.0, 1.5, 3.0][:h]
        lam = 0.3 * h / empirical.mean
        rank_once = analyze_sita(lam, empirical, cutoffs, host_speeds)
        monkeypatch.setattr(Empirical, "cutoff_moments", self.generic_slices)
        assert analyze_sita(lam, empirical, cutoffs, host_speeds) == rank_once

    @pytest.mark.parametrize(
        "dist", [BoundedPareto(1.0, 1e5, 1.1), Lognormal(7.0, 2.0)], ids=["bp", "lognormal"]
    )
    def test_scaled_hosts_equal_scaled_distribution(self, dist):
        """A speed-v host is an M/G/1 on ScaledDistribution(cond, 1/v)."""
        speeds = [0.5, 3.0]
        c = float(dist.ppf(0.9))
        lam = 2.0 * 0.4 / dist.mean
        a = analyze_sita(lam, dist, [c], host_speeds=speeds)
        for host, (lo, hi), v in zip(a.hosts, [(0.0, c), (c, math.inf)], speeds):
            p = dist.prob_interval(lo, hi)
            assert host.mg1 == mg1_metrics(lam * p, dist.conditional(lo, hi).scaled(1.0 / v))

    @pytest.mark.parametrize("c", [30.0, 300.0, 3_000.0, 40_000.0, 1e9])
    @pytest.mark.parametrize("load", [0.5, 0.95])
    def test_infeasible_message_equals_direct(self, empirical, c, load):
        lam = 2.0 * load / empirical.mean
        rhos = [lam * s[0] * s[2] if s else 0.0 for s in self.generic_slices(empirical, [c])]
        bad = [i for i, rho in enumerate(rhos) if rho >= 1.0]
        if not bad:
            a = analyze_sita(lam, empirical, [c])
            assert [h.utilisation for h in a.hosts] == rhos
            return
        with pytest.raises(ValueError) as err:
            analyze_sita(lam, empirical, [c])
        assert str(err.value) == (
            f"infeasible cutoffs {np.array([c])}: host {bad[0]} "
            f"utilisation {rhos[bad[0]]:.4f} >= 1"
        )
        assert str(err.value).startswith("infeasible cutoffs [")

    def test_non_positive_rate_message_equals_direct(self, empirical):
        p = self.generic_slices(empirical, [300.0])[0][0]
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError) as err:
                analyze_sita(lam, empirical, [300.0])
            assert str(err.value) == f"arrival rate must be positive, got {lam * p}"


class TestAnalyticPair:
    def test_matches_wrappers(self, empirical):
        from repro.core.cutoffs import fair_cutoff, opt_cutoff

        pair = analytic_cutoff_pair(0.7, empirical)
        assert pair["opt"] == opt_cutoff(0.7, empirical)
        assert pair["fair"] == fair_cutoff(0.7, empirical)

    def test_fair_equalises_class_slowdowns(self, empirical):
        # On an Empirical the gap is piecewise-constant in the cutoff, so
        # exact equality is unreachable — the root lands on the step whose
        # residual is the sample's discretisation floor.
        pair = analytic_cutoff_pair(0.7, empirical, want=("fair",))
        lam = 2.0 * 0.7 / empirical.mean
        s_short, s_long = analyze_sita(
            lam, empirical, [pair["fair"]]
        ).class_mean_slowdowns()
        assert abs(math.log(s_short / s_long)) < 0.05

    def test_opt_beats_grid_neighbourhood(self, empirical):
        pair = analytic_cutoff_pair(0.7, empirical, want=("opt",))
        lam = 2.0 * 0.7 / empirical.mean
        best = analyze_sita(lam, empirical, [pair["opt"]]).mean_slowdown
        for factor in (0.9, 1.1):
            other = analyze_sita(
                lam, empirical, [pair["opt"] * factor]
            ).mean_slowdown
            assert best <= other

    def test_validates_inputs(self, empirical):
        with pytest.raises(ValueError, match="load"):
            analytic_cutoff_pair(1.0, empirical)
        with pytest.raises(ValueError, match="at least one"):
            analytic_cutoff_pair(0.7, empirical, want=())
        with pytest.raises(ValueError, match="unknown cutoff target"):
            analytic_cutoff_pair(0.7, empirical, want=("opt", "median"))

    @pytest.mark.parametrize("speeds", [[1.0, math.nan], [1.0, -1.0], [1.0, 2.0, 3.0]])
    @pytest.mark.parametrize("entry", ["analytic_cutoff_pair", "opt_cutoff", "fair_cutoff"])
    def test_rejects_bad_host_speeds(self, entry, speeds):
        """Bad speeds are the caller's input error, reported as such and
        not as an infeasible grid."""
        from repro.core import cutoffs, search

        search_fn = getattr(search, entry, None) or getattr(cutoffs, entry)
        with pytest.raises(ValueError, match="positive and finite|must have 2 entries"):
            search_fn(0.5, c90().service_dist, host_speeds=speeds)

    def test_search_frees_empirical_without_gc(self, train):
        """A fitted Empirical dies on its last reference, not at the next
        full GC: no solver objective closes over it (brentq's self-referencing wrapper would keep the closure
        alive in a reference cycle)."""
        from repro.core.cutoffs import equal_load_cutoffs

        gc.collect()
        gc.disable()
        try:
            dist = Empirical(train.service_times)
            analytic_cutoff_pair(0.7, dist)
            equal_load_cutoffs(dist, 2)
            ref = weakref.ref(dist)
            del dist
            assert ref() is None
        finally:
            gc.enable()
