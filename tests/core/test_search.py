"""Tests for the shared-computation cutoff-search engine.

The scan-vs-loop class runs under ``REPRO_SIM_STRICT=1`` in CI — the
kernel routes every subset Lindley pass through the same invariant
checks as ``simulate_fast``.
"""

from __future__ import annotations

import gc
import math
import weakref
from dataclasses import astuple, dataclass

import numpy as np
import pytest

from repro.analysis.sita_analysis import analyze_sita
from repro.core.cutoffs import sim_fair_cutoff, sim_opt_cutoff
from repro.core.search import (
    MomentMemo,
    _interval_moments,
    analytic_cutoff_pair,
    analyze_sita_cached,
    candidate_cutoffs,
    clear_search_memo,
    search_memo_stats,
    sim_cutoff_pair,
    sim_pair_reference,
)
from repro.core.policies.sita import SITAPolicy
from repro.sim.fast import SitaScanKernel, simulate_fast, sita_scan
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
        result = sita_scan(train, candidates, metric=metric, warmup_fraction=0.05)
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
        result = sita_scan(train, candidates, warmup_fraction=0.05)
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


class TestMomentMemo:
    def test_cached_analysis_bit_identical_to_direct(self, empirical):
        lam = 2.0 * 0.7 / empirical.mean
        memo = MomentMemo()
        for c in (300.0, 15_000.0, 40_000.0):
            try:
                direct = analyze_sita(lam, empirical, [c])
            except ValueError as err:
                with pytest.raises(ValueError, match="infeasible"):
                    analyze_sita_cached(lam, empirical, c, memo=memo)
                assert "infeasible" in str(err)
                continue
            for _ in range(2):  # miss path, then hit path
                cached = analyze_sita_cached(lam, empirical, c, memo=memo)
                assert cached.mean_slowdown == direct.mean_slowdown
                assert cached.mean_response == direct.mean_response
                assert cached.mean_wait == direct.mean_wait
                assert cached.var_slowdown == direct.var_slowdown
                assert (
                    cached.class_mean_slowdowns()
                    == direct.class_mean_slowdowns()
                )

    def test_agreement_across_loads_and_distributions(self):
        from repro.core.cutoffs import feasible_cutoff_range

        memo = MomentMemo()
        for dist in (BoundedPareto(1.0, 1e5, 1.1), Lognormal(7.0, 2.0)):
            # feasible at the heaviest load -> feasible at the lighter ones
            c_min, c_max = feasible_cutoff_range(0.9, dist)
            cutoff = float(math.sqrt(c_min * c_max))
            for load in (0.5, 0.7, 0.9):
                lam = 2.0 * load / dist.mean
                direct = analyze_sita(lam, dist, [cutoff])
                cached = analyze_sita_cached(lam, dist, cutoff, memo=memo)
                assert cached.mean_slowdown == pytest.approx(
                    direct.mean_slowdown, rel=1e-12
                )
        # one cutoff entry per distribution serves every load
        assert memo.stats()["n_dists"] == 2
        assert memo.stats()["n_cutoffs"] == 2

    def test_empirical_bypasses_memo(self, empirical):
        """An Empirical's slice moments are table lookups: the memo
        neither stores nor counts them, and cutoffs between the same
        adjacent observed sizes still give bit-equal analyses."""
        lam = 2.0 * 0.7 / empirical.mean
        v = empirical.values
        k = int(0.98 * v.size)
        c_lo, c_hi = float(v[k - 1]), float(v[k])
        assert c_hi > c_lo
        memo = MomentMemo()
        before = memo.stats()
        a = analyze_sita_cached(lam, empirical, c_lo, memo=memo)
        b = analyze_sita_cached(
            lam, empirical, 0.5 * (c_lo + c_hi), memo=memo
        )
        assert memo.stats() == before
        assert a.mean_slowdown == b.mean_slowdown
        assert a.var_slowdown == b.var_slowdown
        assert a.class_mean_slowdowns() == b.class_mean_slowdowns()

    @staticmethod
    def generic_slices(dist, c):
        """The per-slice path: prob_interval, conditional and
        partial_moment, each ranking its own slice."""
        return tuple(
            None if im is None else astuple(im)
            for im in (_interval_moments(dist, 0.0, c), _interval_moments(dist, c, math.inf))
        )

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
            got = dist.cutoff_moments(c)
            assert got == self.generic_slices(dist, c), c
        assert dist.cutoff_moments(v[0] / 2)[0] is None
        assert dist.cutoff_moments(v[-1])[1] is None

    @pytest.mark.parametrize("c", [30.0, 300.0, 3_000.0, 40_000.0, 1e9])
    @pytest.mark.parametrize("load", [0.5, 0.95])
    def test_infeasible_message_equals_direct(self, empirical, c, load):
        lam = 2.0 * load / empirical.mean
        try:
            direct = analyze_sita(lam, empirical, [c])
        except ValueError as err:
            with pytest.raises(ValueError) as cached:
                analyze_sita_cached(lam, empirical, c)
            assert str(cached.value) == str(err)
            assert str(err).startswith("infeasible cutoffs [")
        else:
            assert analyze_sita_cached(lam, empirical, c) == direct

    def test_non_positive_rate_message_equals_direct(self, empirical):
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError) as direct:
                analyze_sita(lam, empirical, [300.0])
            with pytest.raises(ValueError) as cached:
                analyze_sita_cached(lam, empirical, 300.0)
            assert str(cached.value) == str(direct.value)

    def test_bounded_size_and_lru_eviction(self):
        from repro.core.cutoffs import feasible_cutoff_range

        dist = BoundedPareto(1.0, 1e5, 1.1)
        lam = 2.0 * 0.7 / dist.mean
        memo = MomentMemo(max_cutoffs=4)
        c_min, c_max = feasible_cutoff_range(0.7, dist)
        feasible = [
            float(c)
            for c in np.exp(
                np.linspace(math.log(c_min * 1.01), math.log(c_max * 0.99), 8)
            )
        ]
        for c in feasible:
            analyze_sita_cached(lam, dist, c, memo=memo)
        assert memo.stats()["n_cutoffs"] == 4  # bounded despite 8 inserts
        # The oldest entry was evicted: revisiting it is a miss again.
        misses = memo.stats()["misses"]
        analyze_sita_cached(lam, dist, feasible[0], memo=memo)
        assert memo.stats()["misses"] == misses + 1
        # The freshest entry is still a hit.
        hits = memo.stats()["hits"]
        analyze_sita_cached(lam, dist, feasible[-1], memo=memo)
        assert memo.stats()["hits"] == hits + 1

    def test_dist_bound(self):
        memo = MomentMemo(max_dists=2)
        dists = [BoundedPareto(1.0, 1e5, a) for a in (1.1, 1.3, 1.5)]
        for d in dists:
            analyze_sita_cached(2.0 * 0.5 / d.mean, d, 1_000.0, memo=memo)
        assert memo.stats()["n_dists"] == 2

    def test_global_memo_clear_and_stats(self):
        clear_search_memo()
        assert search_memo_stats()["n_cutoffs"] == 0
        analytic_cutoff_pair(0.7, Lognormal(7.0, 2.0))
        stats = search_memo_stats()
        assert stats["n_cutoffs"] > 0
        assert stats["hits"] > 0  # opt and fair share the axis evaluations
        clear_search_memo()
        assert search_memo_stats()["n_cutoffs"] == 0


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

    def test_search_frees_empirical_without_gc(self, train):
        """A fitted Empirical dies on its last reference, not at the next
        full GC: the memo does not hold it, and no solver objective closes
        over it (brentq's self-referencing wrapper would keep the closure
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
