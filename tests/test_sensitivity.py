"""Smoke tests for the E6 sensitivity harness (miniature sizes)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, sensitivity
from repro.experiments.sensitivity import (
    BETAS,
    LAMBDAS,
    run_beta_sweep,
    run_gamma_sweep,
    run_lambda_sweep,
)
from repro.matching.zeroth_order import ZeroOrderConfig
from repro.methods import MFCPConfig
from repro.predictors.training import TrainConfig

TINY = ExperimentConfig(
    pool_size=30,
    eval_rounds=2,
    seeds=(0,),
    mfcp=MFCPConfig(epochs=3, pretrain=TrainConfig(epochs=30),
                    zero_order=ZeroOrderConfig(samples=2, delta=0.05, warm_start_iters=20)),
    supervised=TrainConfig(epochs=30),
)


@pytest.mark.parametrize("runner,values", [
    (run_gamma_sweep, (0.2, 0.8)),
    (run_beta_sweep, BETAS),
    (run_lambda_sweep, LAMBDAS),
], ids=["run_gamma_sweep-values0", "run_beta_sweep-values1", "run_lambda_sweep-values2"])
def test_sweeps_produce_reports(runner, values, monkeypatch):
    monkeypatch.setattr(sensitivity, "GAMMA_QUANTILES", (0.2, 0.8))
    results = runner(TINY)
    assert set(results) == set(values)
    for reports in results.values():
        assert set(reports) == {"TSM", "MFCP-AD"}
        for report in reports.values():
            assert np.isfinite(report.regret[0])
            assert 0.0 <= report.reliability[0] <= 1.0


def test_gamma_changes_threshold_behaviour(monkeypatch):
    monkeypatch.setattr(sensitivity, "GAMMA_QUANTILES", (0.1, 0.9))
    results = run_gamma_sweep(TINY)
    # Tighter γ should not make assignments *less* reliable.
    lo = results[0.1]["MFCP-AD"].reliability[0]
    hi = results[0.9]["MFCP-AD"].reliability[0]
    assert hi >= lo - 0.05
