"""Pinned rows of the SITA-U sweeps (figures 4, 5 and 10).

Each fingerprint is a sha256 over ``json.dumps(rows, sort_keys=True)``
of ``run_experiment(..., ExperimentConfig(scale=0.05, seed=S))``; JSON
writes every float with ``repr``, so the digest moves if any bit of any
column moves.  These sweeps fit their SITA-U-opt and SITA-U-fair
cutoffs with the analytic search on the training half's empirical
distribution, so the pins hold the slice moments, the infeasible-point
handling, SITA routing, the trace split and the summaries to the rows
recorded before the search read one rank per cutoff.  Re-record them
only for a change meant to alter the sweeps' output.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.base import ExperimentConfig, run_experiment

ROW_PINS = {
    ("fig4", 20000731): "d9d201ceb2c5adfe5d8ba33bc62dcfa730c6ab0311b28f1e74c4c5206ab62233",
    ("fig5", 20000731): "0f5ad06391d25c1fdccf4c8a4a06178e3f49043a9c77604ba3162ef86a597ff0",
    ("fig10", 20000731): "14f3a4248a27810966c80e3b9cc7c154f675d042ea5839d2489144b16571179e",
    ("fig4", 11): "ebd5ac70a51bb54878597366eb7628fddae21832921ac1f6b3db62a5d2e69e0a",
    ("fig5", 11): "6808d92235faa9e884c6eeb1e07e02e7bfd6cc461c8fa73fa102c7be74a54c85",
    ("fig10", 11): "b038d8c3dcdfb181201fd97da739cbca30d60555f2e7383d59189377d23c78cc",
}


def rows_digest(experiment_id: str, seed: int) -> str:
    result = run_experiment(experiment_id, ExperimentConfig(scale=0.05, seed=seed))
    assert result.rows
    return hashlib.sha256(json.dumps(result.rows, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("experiment_id, seed", sorted(ROW_PINS))
def test_sita_sweep_rows_are_pinned(experiment_id, seed):
    assert rows_digest(experiment_id, seed) == ROW_PINS[(experiment_id, seed)]
