"""Cross-module integration tests.

These tie the layers together the way the paper's system does:
predictors → matching solver → rounding → metrics → simulator, plus the
bilevel gradient chain of Eq. (7) verified end-to-end by finite
differences through the *entire* prediction-to-regret pipeline.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.matching import (
    MatchingProblem,
    SolverConfig,
    feasible_gamma,
    kkt_vjp,
    makespan,
    solve_relaxed,
)
from repro.matching.objectives import barrier_gradient, barrier_value
from repro.methods import FitContext, MFCP, MFCPConfig, MatchSpec, TSM
from repro.matching.zeroth_order import ZeroOrderConfig
from repro.metrics import cluster_utilization, mean_assigned_reliability
from repro.predictors.training import TrainConfig
from repro.sim import ExecutionConfig, simulate_matching
from repro.workloads import TaskPool

TIGHT = SolverConfig(max_iters=3000, tol=1e-14, patience=40, lr=0.3)


class TestBilevelGradientChain:
    """Verify Eq. (7): dL/dω = dL/dX* · dX*/dt̂ · dt̂/dω, end to end."""

    def test_full_chain_matches_finite_differences(self, rng):
        # One tiny predictor: t̂_0j = exp(w · z_j); ground truth fixed.
        m, n, d = 3, 4, 3
        Z = rng.normal(size=(n, d))
        T = rng.uniform(0.5, 2.0, size=(m, n))
        A = rng.uniform(0.7, 0.99, size=(m, n))
        true_problem = MatchingProblem(
            T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.3), entropy=0.08
        )
        w0 = rng.normal(scale=0.1, size=d)

        def forward_loss(w: np.ndarray) -> float:
            t_hat = np.exp(Z @ w)
            T_hat = T.copy()
            T_hat[0] = t_hat
            pred = true_problem.with_predictions(T_hat, A)
            sol = solve_relaxed(pred, TIGHT)
            return barrier_value(sol.X, true_problem) / n

        # Analytic chain.
        t_hat = np.exp(Z @ w0)
        T_hat = T.copy()
        T_hat[0] = t_hat
        pred = true_problem.with_predictions(T_hat, A)
        sol = solve_relaxed(pred, TIGHT)
        g_X = barrier_gradient(sol.X, true_problem) / n  # dL/dX*
        kg = kkt_vjp(sol.X, pred, g_X)  # dL/dt̂ for every row
        # dt̂/dw of t̂ = exp(Z w), pulled back by hand: Zᵀ (g ⊙ t̂).
        grad_analytic = Z.T @ (kg.dT[0] * t_hat)

        # Finite differences through the whole pipeline.
        eps = 1e-5
        grad_fd = np.zeros(d)
        for k in range(d):
            wp, wm = w0.copy(), w0.copy()
            wp[k] += eps
            wm[k] -= eps
            grad_fd[k] = (forward_loss(wp) - forward_loss(wm)) / (2 * eps)

        cos = grad_analytic @ grad_fd / (
            np.linalg.norm(grad_analytic) * np.linalg.norm(grad_fd) + 1e-12
        )
        assert cos > 0.99
        np.testing.assert_allclose(grad_analytic, grad_fd, rtol=0.05, atol=1e-4)


class TestPipelineConsistency:
    @pytest.fixture(scope="class")
    def trained(self):
        pool = TaskPool(60, rng=31)
        clusters = make_setting("B")
        train, test = pool.split(0.7, rng=3)
        spec = MatchSpec()
        ctx = FitContext.build(clusters, train, spec, rng=4)
        cfg = MFCPConfig(
            epochs=40, pretrain=TrainConfig(epochs=100),
            zero_order=ZeroOrderConfig(samples=4, delta=0.05, warm_start_iters=40),
        )
        tsm = TSM(train_config=TrainConfig(epochs=80)).fit(ctx)
        mfcp = MFCP("analytic", cfg).fit(ctx)
        return clusters, test, spec, tsm, mfcp

    def _round(self, clusters, tasks, spec):
        T = np.stack([c.true_times(tasks) for c in clusters])
        A = np.stack([c.true_reliabilities(tasks) for c in clusters])
        return spec.build_problem(T, A)

    def test_decisions_execute_on_simulator(self, trained):
        """A method's matching must run to completion on the DES with the
        analytically-predicted makespan (deterministic mode)."""
        clusters, test, spec, tsm, _ = trained
        tasks = test[:6]
        problem = self._round(clusters, tasks, spec)
        X = tsm.decide(problem, tasks)
        res = simulate_matching(clusters, tasks, X)
        assert res.makespan == pytest.approx(makespan(X, problem))
        assert res.utilization == pytest.approx(cluster_utilization(X, problem))

    def test_simulated_reliability_tracks_metric(self, trained):
        clusters, test, spec, tsm, _ = trained
        tasks = test[:6]
        problem = self._round(clusters, tasks, spec)
        X = tsm.decide(problem, tasks)
        A = np.stack([c.true_reliabilities(tasks) for c in clusters])
        analytic = mean_assigned_reliability(X, A)
        rates = [
            simulate_matching(clusters, tasks, X, ExecutionConfig(failures=True),
                              rng=s).success_rate
            for s in range(60)
        ]
        assert float(np.mean(rates)) == pytest.approx(analytic, abs=0.08)

    def test_mfcp_decisions_competitive_with_tsm(self, trained):
        """The headline claim, in miniature: over several test rounds the
        regret-trained predictor's matchings are no worse on average than
        the MSE two-stage pipeline's (usually strictly better)."""
        clusters, test, spec, tsm, mfcp = trained
        rng = np.random.default_rng(11)
        diffs = []
        for _ in range(12):
            idx = rng.choice(len(test), size=5, replace=False)
            tasks = [test[int(i)] for i in idx]
            problem = self._round(clusters, tasks, spec)
            cost_tsm = makespan(tsm.decide(problem, tasks), problem)
            cost_mfcp = makespan(mfcp.decide(problem, tasks), problem)
            diffs.append(cost_tsm - cost_mfcp)
        assert float(np.mean(diffs)) > -0.02  # MFCP no worse (tolerance for noise)

    def test_all_methods_respect_predicted_constraint(self, trained):
        """Every decision must satisfy the reliability constraint under the
        method's own predictions (the contract of problem (2))."""
        clusters, test, spec, tsm, mfcp = trained
        tasks = test[:5]
        problem = self._round(clusters, tasks, spec)
        for method in (tsm, mfcp):
            T_hat, A_hat = method.predict(tasks)
            pred = problem.with_predictions(T_hat, A_hat)
            X = method.decide(problem, tasks)
            # Allow tiny numerical slack; rounding repairs to feasibility.
            assert pred.reliability_slack(X) >= -5e-3
