"""Tests for the shared-computation cutoff-search engine."""

from __future__ import annotations

import gc
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.analysis.mg1 import mg1_metrics
from repro.analysis.sita_analysis import _interval_moments, analyze_sita
from repro.core import search
from repro.core.cutoffs import sim_fair_cutoff, sim_opt_cutoff
from repro.core.search import analytic_cutoff_pair, candidate_cutoffs, sim_cutoff_pair
from repro.sim.fast import simulate_fast
from repro.sim.metrics import SimulationResult
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


#: ``sim_cutoff_pair(train, metric, refine=refine)``'s (opt, fair,
#: opt_index, fair_index, opt_metric, fair_gap) on the ``train`` fixture,
#: as recorded from the batched scan kernel this search replaced.
PAIR_PINS = {
    ("mean_slowdown", False): (6037.380789882734, 12292.032787120212, 26, 28, 15.667823059965944, 0.3915407542391818),
    ("mean_slowdown", True): (7577.948771104651, 10762.376277244879, 26, 28, 13.113189346133815, 0.013783763512252335),
    ("mean_response", False): (17539.260591736238, 12292.032787120212, 29, 28, 18182.248571292414, 0.3915407542391818),
    ("mean_response", True): (19916.649742756872, 10762.376277244879, 29, 28, 16194.932639896082, 0.013783763512252335),
    ("mean_wait", False): (17539.260591736238, 12292.032787120212, 29, 28, 13481.205088723593, 0.3915407542391818),
    ("mean_wait", True): (19916.649742756872, 10762.376277244879, 29, 28, 11493.889157327265, 0.013783763512252335),
    ("mean_waiting_slowdown", False): (6037.380789882734, 12292.032787120212, 26, 28, 14.667823059965944, 0.3915407542391818),
    ("mean_waiting_slowdown", True): (7577.948771104651, 10762.376277244879, 26, 28, 12.113189346133815, 0.013783763512252335),
}


class TestSimSearch:
    """The simulation search: one ``simulate_fast`` run per size rank."""

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("metric", sorted({m for m, _ in PAIR_PINS}))
    def test_pair_is_pinned(self, train, metric, refine):
        pair = sim_cutoff_pair(train, metric=metric, refine=refine)
        got = (pair.opt, pair.fair, pair.opt_index, pair.fair_index, pair.opt_metric, pair.fair_gap)
        assert got == PAIR_PINS[metric, refine]

    def test_wrappers_are_pinned(self, train):
        assert sim_opt_cutoff(train, metric="p95_slowdown") == 8614.620282842907
        assert sim_opt_cutoff(train) == 6037.380789882734
        assert sim_fair_cutoff(train) == 12292.032787120212

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

    def test_one_run_per_size_rank(self, train, monkeypatch):
        cutoffs = []

        def counting(trace, policy, *args, **kwargs):
            cutoffs.append(float(policy.cutoffs[0]))
            return simulate_fast(trace, policy, *args, **kwargs)

        monkeypatch.setattr(search, "simulate_fast", counting)
        sim_cutoff_pair(train)
        ranks = np.searchsorted(np.sort(train.service_times), cutoffs, side="right")
        assert len(set(ranks.tolist())) == len(cutoffs) > 0

    def test_memo_by_size_rank_is_exact(self, train):
        """Cutoffs between the same adjacent observed sizes score alike."""
        v = np.unique(train.service_times)
        for k in (1, v.size // 2, v.size - 2):
            lo, mid = float(v[k]), float((v[k] + v[k + 1]) / 2)
            fresh = [search._sim_scorer(train, "mean_slowdown", 0.05) for _ in "ab"]
            assert fresh[0](lo) == fresh[1](mid)

    def test_opt_ignores_gaps_and_fair_raises_on_them(self):
        # Once the first half is trimmed, every job kept has size 10, so
        # each grid cutoff leaves one size class empty.
        trace = Trace(np.arange(8.0) * 20.0, np.array([1.0, 100.0, 3.0, 50.0] + [10.0] * 4))
        assert math.isfinite(sim_opt_cutoff(trace, n_candidates=6, warmup_fraction=0.5))
        for search_fn in (sim_fair_cutoff, sim_cutoff_pair):
            with pytest.raises(ValueError, match="two non-empty classes"):
                search_fn(trace, n_candidates=6, warmup_fraction=0.5)

    def test_opt_raises_without_a_finite_metric(self, train, monkeypatch):
        real = SimulationResult.summary
        monkeypatch.setattr(
            SimulationResult, "summary",
            lambda self, w=0.0: replace(real(self, w), mean_slowdown=math.nan),
        )
        for search_fn in (sim_opt_cutoff, sim_cutoff_pair):
            with pytest.raises(ValueError, match="no candidate cutoff produced a finite metric"):
                search_fn(train, n_candidates=4)
        assert sim_fair_cutoff(train, n_candidates=4) > 0.0

    @pytest.mark.parametrize(
        "bad, match",
        [({"warmup_fraction": w}, "warmup_fraction") for w in (-0.1, 1.0, math.nan)]
        + [({"metric": m}, "metric must be one of") for m in ("p50_slowdown", "host_load_fraction")],
    )
    def test_rejects_bad_arguments_at_entry(self, bad, match, monkeypatch):
        monkeypatch.setattr(search, "simulate_fast", None)  # never reached
        stub = _StubTrace(np.array([1.0, 10.0]))
        entries = [sim_cutoff_pair, sim_opt_cutoff]
        if "metric" not in bad:  # the fair search takes no metric
            entries.append(sim_fair_cutoff)
        for search_fn in entries:
            with pytest.raises(ValueError, match=match):
                search_fn(stub, **bad)


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
