"""Tests for the shared experiment machinery."""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from repro.analysis.sita_analysis import _interval_moments
from repro.experiments.base import ExperimentConfig
from repro.experiments.common import (
    aggregate_cells,
    aggregate_replications,
    fit_sita_cutoffs,
    grouped_sita,
    make_split_trace,
    point_seed,
)
from repro.workloads.catalog import c90, get_workload
from repro.workloads.distributions import Empirical


class TestPointSeed:
    def test_deterministic(self):
        cfg = ExperimentConfig()
        assert point_seed(cfg, "fig2", 0.5) == point_seed(cfg, "fig2", 0.5)

    def test_distinct_coordinates(self):
        cfg = ExperimentConfig()
        seeds = {
            point_seed(cfg, "fig2", load, h)
            for load in (0.1, 0.5, 0.9)
            for h in (2, 4)
        }
        assert len(seeds) == 6

    def test_depends_on_base_seed(self):
        a = point_seed(ExperimentConfig(seed=1), "x")
        b = point_seed(ExperimentConfig(seed=2), "x")
        assert a != b


class TestMakeSplitTrace:
    def test_halves(self):
        train, test = make_split_trace(c90(), 0.5, 2, 4000, seed=1)
        assert train.n_jobs == 2000 and test.n_jobs == 2000

    def test_reproducible(self):
        t1, _ = make_split_trace(c90(), 0.5, 2, 1000, seed=9)
        t2, _ = make_split_trace(c90(), 0.5, 2, 1000, seed=9)
        np.testing.assert_array_equal(t1.service_times, t2.service_times)

    def test_nothing_outlives_the_caller(self):
        # A serial sweep holds only the point it is computing: once the
        # caller drops a split, no cache keeps its trace alive.
        train, test = make_split_trace(c90(), 0.5, 2, 1000, seed=9)
        refs = [weakref.ref(train), weakref.ref(test)]
        del train, test
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestFitSitaCutoffs:
    @pytest.fixture(scope="class")
    def train(self):
        return c90().make_trace(load=0.7, n_hosts=2, n_jobs=20_000, rng=4)

    def test_all_variants(self, train):
        cuts = fit_sita_cutoffs(train, 0.7)
        assert set(cuts) == {"e", "opt", "fair"}
        assert all(c > 0 for c in cuts.values())
        # opt underloads relative to equal-load: smaller cutoff.
        assert cuts["opt"] < cuts["e"]

    def test_unknown_variant(self, train):
        with pytest.raises(ValueError):
            fit_sita_cutoffs(train, 0.7, variants=("magic",))

    def test_paper_fits_read_one_rank_per_cutoff(self, monkeypatch):
        """The SITA-U fits of the paper's sweeps read every slice of a
        cutoff off one rank of the training sample; the per-slice path
        (each slice ranked on its own) must give every cutoff bit for bit."""

        def fits():
            cfg = ExperimentConfig(scale=0.2)
            out = {}
            for name in ("c90", "j90", "ctc"):
                w = get_workload(name)
                n_jobs = cfg.jobs(max(w.n_jobs, 30_000))
                for load in cfg.sweep_loads():
                    train, _ = make_split_trace(w, load, 2, n_jobs, cfg.seed)
                    out[name, load] = fit_sita_cutoffs(train, load)
            return out

        def per_slice(dist, cutoffs):
            edges = [0.0, *cutoffs, math.inf]
            return [_interval_moments(dist, lo, hi) for lo, hi in zip(edges, edges[1:])]

        shipped = fits()
        monkeypatch.setattr(Empirical, "cutoff_moments", per_slice)
        generic = fits()
        assert len(shipped) == 24
        assert shipped == generic, [k for k in shipped if shipped[k] != generic[k]]


class TestGroupedSitaHelper:
    def test_with_load_optimises_split(self):
        d = c90().service_dist
        from repro.core.cutoffs import fair_cutoff, optimal_group_split

        cut = fair_cutoff(0.7, d)
        p = grouped_sita(cut, 4, d, "g", load=0.7)
        assert p.n_short_hosts == optimal_group_split(0.7, d, 4, cut)

    def test_without_load_uses_proportional(self):
        d = c90().service_dist
        cut = d.ppf(0.99)
        p = grouped_sita(cut, 10, d, "g")
        f = d.partial_moment(1.0, 0.0, cut) / d.mean
        assert p.n_short_hosts == int(np.clip(round(10 * f), 1, 9))


class TestAggregateReplications:
    def test_single_row_passthrough(self):
        row = {"policy": "x", "load": 0.5, "mean_slowdown": 10.0}
        out = aggregate_replications([row])
        assert out["mean_slowdown"] == 10.0
        assert out["n_reps"] == 1

    def test_averaging_and_ci(self):
        rows = [
            {"policy": "x", "load": 0.5, "mean_slowdown": 10.0},
            {"policy": "x", "load": 0.5, "mean_slowdown": 20.0},
            {"policy": "x", "load": 0.5, "mean_slowdown": 30.0},
        ]
        out = aggregate_replications(rows)
        assert out["mean_slowdown"] == pytest.approx(20.0)
        assert out["load"] == 0.5  # exact, not float-averaged
        assert out["n_reps"] == 3
        assert out["ci_mean_slowdown"] > 0

    def test_disagreeing_labels_rejected(self):
        rows = [
            {"policy": "x", "mean_slowdown": 1.0},
            {"policy": "y", "mean_slowdown": 2.0},
        ]
        with pytest.raises(ValueError, match="disagree"):
            aggregate_replications(rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_replications([])

    def test_cells_aggregate_per_coordinate_in_policy_order(self):
        def row(policy, load, slowdown):
            return {"policy": policy, "load": load, "mean_slowdown": slowdown}

        cells = [
            [row("a", 0.5, 1.0), row("b", 0.5, 10.0)],
            [row("a", 0.5, 3.0), row("b", 0.5, 30.0)],
            [row("a", 0.7, 5.0), row("b", 0.7, 50.0)],
            [row("a", 0.7, 7.0), row("b", 0.7, 70.0)],
        ]
        out = aggregate_cells(cells, 2)
        assert [(r["policy"], r["load"], r["mean_slowdown"]) for r in out] == [
            ("a", 0.5, 2.0),
            ("b", 0.5, 20.0),
            ("a", 0.7, 6.0),
            ("b", 0.7, 60.0),
        ]
        assert all(r["n_reps"] == 2 for r in out)

    def test_replications_through_driver(self):
        from repro.experiments import run_experiment

        cfg = ExperimentConfig(scale=0.05, loads=(0.5,), replications=2)
        res = run_experiment("fig2", cfg)
        for row in res.rows:
            assert row["n_reps"] == 2
            assert "ci_mean_slowdown" in row
