"""Tests for the DFL-literature baselines (SPO+, DBB, DPO)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.matching.zeroth_order import ZeroOrderConfig
from repro.methods import (
    MFCP,
    BlackboxDiff,
    FitContext,
    MatchSpec,
    MFCPConfig,
    PerturbedOpt,
    SPOPlus,
    make_dfl_methods,
)
from repro.predictors.training import TrainConfig
from repro.workloads import TaskPool

FAST = MFCPConfig(
    epochs=6, pretrain=TrainConfig(epochs=40),
    zero_order=ZeroOrderConfig(samples=4, delta=0.05, warm_start_iters=30),
)


def _fresh_ctx():
    pool = TaskPool(30, rng=41)
    clusters = make_setting("A")
    train, _ = pool.split(0.7, rng=1)
    return FitContext.build(clusters, train, MatchSpec(), rng=2)


@pytest.fixture(scope="module")
def ctx():
    return _fresh_ctx()


@pytest.fixture(scope="module")
def eval_round(ctx):
    pool = TaskPool(30, rng=41)
    _, test = pool.split(0.7, rng=1)
    tasks = test[:5]
    T = np.stack([c.true_times(tasks) for c in ctx.clusters])
    A = np.stack([c.true_reliabilities(tasks) for c in ctx.clusters])
    return tasks, ctx.spec.build_problem(T, A)


@pytest.mark.parametrize("cls,name", [
    (SPOPlus, "SPO+"),
    (BlackboxDiff, "DBB"),
    (PerturbedOpt, "DPO"),
])
class TestDFLBaselines:
    def test_fit_and_decide(self, ctx, eval_round, cls, name):
        tasks, problem = eval_round
        m = cls(FAST).fit(ctx)
        assert m.name == name
        X = m.decide(problem, tasks)
        assert set(np.unique(X)) <= {0.0, 1.0}
        np.testing.assert_allclose(X.sum(axis=0), np.ones(5))

    def test_loss_history_finite(self, ctx, eval_round, cls, name):
        m = cls(FAST).fit(ctx)
        assert len(m.loss_history) > 0
        assert all(np.isfinite(v) for v in m.loss_history)

    def test_predictions_stay_sane(self, ctx, eval_round, cls, name):
        tasks, problem = eval_round
        m = cls(FAST).fit(ctx)
        T_hat, A_hat = m.predict(tasks)
        assert np.all(T_hat > 0)
        assert np.all((A_hat >= 0) & (A_hat <= 1))
        ratio = T_hat / np.array(problem.T)
        assert np.all(ratio > 0.02) and np.all(ratio < 50.0)


@pytest.mark.parametrize("cls", [SPOPlus, BlackboxDiff, PerturbedOpt])
def test_baseline_trains_through_its_own_round(cls, monkeypatch):
    """With nothing but the defaults chosen (setting A is a program MFCP
    fuses), every epoch goes through the baseline's own round and the fit
    lands on other weights than MFCP's."""
    cfg = replace(MFCPConfig(), epochs=4, pretrain=TrainConfig(epochs=10))
    calls = []
    own = cls._round
    monkeypatch.setattr(cls, "_round", lambda self, *a: calls.append(1) or own(self, *a))
    baseline = cls(cfg).fit(_fresh_ctx())
    assert len(calls) == cfg.epochs
    mfcp = MFCP(baseline.gradient, cfg).fit(_fresh_ctx())
    for head in ("time", "reliability"):
        assert any(
            not np.array_equal(a, b)
            for p, q in zip(baseline._pairs, mfcp._pairs)
            for a, b in zip(getattr(p, head).state_dict().values(),
                            getattr(q, head).state_dict().values()))


class TestConstruction:
    def test_lineup(self):
        names = [m.name for m in make_dfl_methods(FAST)]
        assert names == ["SPO+", "DBB", "DPO", "MFCP-AD", "MFCP-FG"]
