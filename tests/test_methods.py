"""Tests for the five methods and the Table 1 ablation variants.

Uses one module-scoped fitted context so the (deliberately small) training
runs happen once; individual tests probe interface contracts, prediction
sanity, and decision quality.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.matching import makespan, reliability_value
from repro.matching.speedup import ExponentialDecaySpeedup
from repro.matching.zeroth_order import ZeroOrderConfig
from repro.methods import (
    MFCP,
    MFCPConfig,
    MFCPHardPenalty,
    MFCPLinearLoss,
    MatchSpec,
    FitContext,
    TAM,
    TSM,
    UCB,
    make_table1_methods,
)
from repro.predictors.training import TrainConfig
from repro.methods import ucb as ucb_module
from repro.workloads import TaskPool

FAST_TRAIN = TrainConfig(epochs=60)
FAST_MFCP = MFCPConfig(
    epochs=10, pretrain=TrainConfig(epochs=60),
    zero_order=ZeroOrderConfig(samples=4, delta=0.05, warm_start_iters=40),
)


@pytest.fixture(scope="module")
def ctx():
    pool = TaskPool(40, rng=21)
    clusters = make_setting("A")
    train, _ = pool.split(0.7, rng=1)
    return FitContext.build(clusters, train, MatchSpec(), rng=2)


@pytest.fixture(scope="module")
def eval_round(ctx):
    pool = TaskPool(40, rng=21)
    _, test = pool.split(0.7, rng=1)
    tasks = test[:5]
    T = np.stack([c.true_times(tasks) for c in ctx.clusters])
    A = np.stack([c.true_reliabilities(tasks) for c in ctx.clusters])
    return tasks, ctx.spec.build_problem(T, A)


def fitted(method, ctx):
    return method.fit(ctx)


class TestInterfaceContracts:
    def test_decide_before_fit_raises(self, eval_round):
        tasks, problem = eval_round
        with pytest.raises(RuntimeError):
            TAM().decide(problem, tasks)

    @pytest.mark.parametrize("method_factory", [
        TAM,
        lambda: TSM(train_config=FAST_TRAIN),
        lambda: MFCP("analytic", FAST_MFCP),
    ])
    def test_predict_shapes_and_ranges(self, ctx, eval_round, method_factory):
        tasks, _ = eval_round
        m = fitted(method_factory(), ctx)
        T_hat, A_hat = m.predict(tasks)
        assert T_hat.shape == A_hat.shape == (3, 5)
        assert np.all(T_hat > 0)
        assert np.all((A_hat >= 0) & (A_hat <= 1))

    def test_decide_returns_valid_matching(self, ctx, eval_round):
        tasks, problem = eval_round
        m = fitted(TSM(train_config=FAST_TRAIN), ctx)
        X = m.decide(problem, tasks)
        assert set(np.unique(X)) <= {0.0, 1.0}
        np.testing.assert_allclose(X.sum(axis=0), np.ones(5))


class TestTAM:
    def test_constant_rows(self, ctx, eval_round):
        tasks, _ = eval_round
        m = fitted(TAM(), ctx)
        T_hat, A_hat = m.predict(tasks)
        assert np.all(T_hat == T_hat[:, :1])
        assert np.all(A_hat == A_hat[:, :1])

    def test_deterministic_decisions(self, ctx, eval_round):
        """Table 2 shows ±0.000 std for TAM: repeated decides are identical."""
        tasks, problem = eval_round
        m = fitted(TAM(), ctx)
        X1, X2 = m.decide(problem, tasks), m.decide(problem, tasks)
        np.testing.assert_array_equal(X1, X2)


class TestTSM:
    def test_better_than_tam_predictions(self, ctx, eval_round):
        """TSM models task variation; its time predictions must correlate
        with the true per-task times far better than TAM's constants."""
        tasks, problem = eval_round
        tsm = fitted(TSM(train_config=FAST_TRAIN), ctx)
        T_hat, _ = tsm.predict(tasks)
        T_true = np.array(problem.T)
        corr = np.corrcoef(np.log(T_hat.ravel()), np.log(T_true.ravel()))[0, 1]
        assert corr > 0.5

    def test_pairs_exposed(self, ctx):
        tsm = fitted(TSM(train_config=FAST_TRAIN), ctx)
        assert len(tsm.pairs) == 3


class TestUCB:
    def test_pessimism_direction(self, ctx, eval_round, monkeypatch):
        """UCB predicts inflated times and deflated reliabilities versus a
        zero-kappa twin sharing the same ensembles."""
        tasks, _ = eval_round
        ucb = fitted(UCB(ensemble_size=2, train_config=TrainConfig(epochs=40)), ctx)
        T1, A1 = ucb.predict(tasks)
        monkeypatch.setattr(ucb_module, "KAPPA", 0.0)
        T0, A0 = ucb.predict(tasks)
        assert np.all(T1 >= T0 - 1e-12)
        assert np.all(A1 <= A0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            UCB(ensemble_size=1)


class TestMFCP:
    def test_rejects_unknown_gradient(self):
        with pytest.raises(ValueError):
            MFCP("secant")

    def test_names(self):
        assert MFCP("analytic").name == "MFCP-AD"
        assert MFCP("forward").name == "MFCP-FG"

    def test_ad_rejects_parallel_spec(self, ctx):
        spec = replace(ctx.spec, speedup=(ExponentialDecaySpeedup(),))
        pctx = replace(ctx, spec=spec)
        with pytest.raises(ValueError):
            MFCP("analytic", FAST_MFCP).fit(pctx)

    def test_fg_trains_on_parallel_spec(self, ctx, eval_round):
        tasks, problem = eval_round
        spec = replace(ctx.spec, speedup=(ExponentialDecaySpeedup(),))
        pctx = replace(ctx, spec=spec)
        m = MFCP("forward", FAST_MFCP).fit(pctx)
        pproblem = replace(problem, speedup=(ExponentialDecaySpeedup(),))
        X = m.decide(pproblem, tasks)
        np.testing.assert_allclose(X.sum(axis=0), np.ones(5))

    def test_loss_history_recorded(self, ctx):
        m = MFCP("analytic", FAST_MFCP).fit(ctx)
        assert len(m.loss_history) > 0
        assert all(np.isfinite(v) for v in m.loss_history)

    def test_regret_training_does_not_destroy_predictions(self, ctx, eval_round):
        """After regret training, predictions must remain same-order-of-
        magnitude correct (MFCP trades MSE for decisions, not for garbage)."""
        tasks, problem = eval_round
        m = MFCP("analytic", FAST_MFCP).fit(ctx)
        T_hat, _ = m.predict(tasks)
        ratio = T_hat / np.array(problem.T)
        assert np.all(ratio > 0.05) and np.all(ratio < 20.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MFCPConfig(epochs=0)
        with pytest.raises(ValueError):
            MFCPConfig(lr=-1)


class TestAblations:
    def test_table1_lineup(self):
        methods = make_table1_methods(FAST_MFCP)
        names = [m.name for m in methods]
        assert names == [
            "MFCP (linear loss)", "MFCP (hard penalty)", "MFCP-FG", "MFCP-AD",
        ]

    def test_linear_loss_decision_problem(self, ctx, eval_round):
        tasks, problem = eval_round
        m = MFCPLinearLoss("analytic", FAST_MFCP).fit(ctx)
        dp = m._decision_problem(problem)
        assert dp.cost == "linear"

    def test_hard_penalty_decision_problem(self, ctx, eval_round):
        tasks, problem = eval_round
        m = MFCPHardPenalty("analytic", FAST_MFCP).fit(ctx)
        dp = m._decision_problem(problem)
        assert dp.penalty == "hinge"
        assert dp.lam > problem.lam

    def test_linear_loss_concentrates_load(self, ctx, eval_round):
        """The linear cost ignores balance: it must put (weakly) more tasks
        on the per-task-fastest clusters than the makespan objective does."""
        from repro.metrics import cluster_utilization

        tasks, problem = eval_round
        lin = MFCPLinearLoss("analytic", FAST_MFCP).fit(ctx)
        full = MFCP("analytic", FAST_MFCP).fit(ctx)
        u_lin = cluster_utilization(lin.decide(problem, tasks), problem)
        u_full = cluster_utilization(full.decide(problem, tasks), problem)
        assert u_lin <= u_full + 0.15
