"""Decision-focused-learning baselines from the literature the paper surveys.

§5 of the paper organizes prior DFL work into three directions; we
implement one representative of each, adapted to the cluster–task matching
problem, so the repository can compare MFCP against the broader DFL
landscape (extension experiment E5 in DESIGN.md):

1. **Surrogate losses** — :class:`SPOPlus` (Elmachtoub & Grigas, "Smart
   Predict-then-Optimize").  SPO+ is defined for linear objectives, so it
   trains the time predictor against the *linear-cost* matching surrogate
   (sum of cluster times — cᵀx with c = vec(T)); the reliability head is
   trained by MSE.  Decisions at deployment use the full makespan
   objective, isolating the effect of the training loss.

2. **Black-box differentiation** — :class:`BlackboxDiff` (Vlastelica et
   al., "Differentiation of Blackbox Combinatorial Solvers").  The solver
   is treated as a black box; the backward pass re-solves a *perturbed*
   instance ``T̂ + λ_int · dL/dX`` and returns the finite difference
   ``(X*(T̂) − X*_perturbed) / λ_int`` as the gradient of the loss w.r.t.
   the prediction.

3. **Perturbed optimizers** — :class:`PerturbedOpt` (Berthet et al.,
   "Learning with Differentiable Perturbed Optimizers").  Predictions are
   perturbed with Gaussian noise; the score-function (REINFORCE) estimator

       d E[L(X*(t̂ + σZ))] / dt̂ ≈ (1/S) Σ_s L_s · Z_s / σ

   with a mean baseline gives the gradient.

All three share MFCP's warm-start pretraining, its training-round sampler
and its update and validation code (inherited from
:class:`~repro.methods.mfcp.MFCP`), and override the one hook its fit calls
per epoch, :meth:`~repro.methods.mfcp.MFCP._round` — they differ only in
how the regret signal reaches the predictor, an apples-to-apples comparison
of the differentiation strategy itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.matching.objectives import linear_cost, smooth_cost
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import solve_relaxed
from repro.methods.base import FitContext
from repro.methods.mfcp import MFCP, SLACK_FLOOR, MFCPConfig
from repro.metrics.regret import deployment_matching
from repro.utils.rng import spawn

__all__ = ["SPOPlus", "BlackboxDiff", "PerturbedOpt", "make_dfl_methods"]

#: DBB's interpolation strength ``λ_int``.
INTERPOLATION = 5.0
#: DPO's perturbation scale σ and its number of samples S per cluster.
SIGMA = 0.05
SAMPLES = 8


class SPOPlus(MFCP):
    """SPO+ surrogate loss on the linear-cost matching surrogate.

    For a linear objective ``min_x cᵀx`` over a fixed feasible set, the
    SPO+ subgradient w.r.t. the predicted cost ĉ is

        ∂ℓ_SPO+ / ∂ĉ = 2 (x*(c) − x*(2ĉ − c))

    where ``x*(·)`` is the solver oracle and ``c`` the true cost.  Here
    ``c = vec(T)`` restricted to the trained cluster's row (other rows are
    ground truth, exactly like MFCP's Algorithm-2 line 3 protocol).
    """

    _clip_reliability = False  # plain MSE-anchor step

    def __init__(self, config: MFCPConfig | None = None) -> None:
        super().__init__("analytic", config)
        self.name = "SPO+"

    def _round(self, ctx: FitContext, Z, t_hat, a_hat, true_problem):
        M, N = true_problem.M, true_problem.N
        T_true = np.array(true_problem.T)
        A_true = np.array(true_problem.A)
        # SPO+'s oracle works on the linear surrogate.
        lin_problem = replace(true_problem, cost="linear")
        X_star_true = self._oracle(lin_problem)
        total_loss = 0.0
        grad_t = np.empty((M, N))

        for i in range(M):
            # SPO+ subgradient on cluster i's cost row.
            T_spo = T_true.copy()
            T_spo[i] = 2.0 * t_hat[i] - T_true[i]
            X_spo = self._oracle(lin_problem.with_predictions(T_spo, A_true))
            grad_t[i] = 2.0 * (X_star_true[i] - X_spo[i])

            total_loss += float(
                linear_cost(X_spo, lin_problem) - linear_cost(X_star_true, lin_problem)
            ) / N
        # Reliability head keeps its MSE anchor (SPO+ has no
        # constraint-side theory); a_true serves as the target.
        return total_loss / M, grad_t, 2.0 * (a_hat - A_true) / N

    def _oracle(self, problem: MatchingProblem) -> np.ndarray:
        return deployment_matching(
            problem, solver_config=self._spec.solver if self._spec else None)


class BlackboxDiff(MFCP):
    """Vlastelica et al.'s black-box solver differentiation (DBB).

    Backward pass: with upstream gradient ``g = dL/dX*`` and interpolation
    strength ``λ_int``, re-solve at ``T̂' = T̂ + λ_int · g_row`` and return

        dL/dt̂ᵢ ≈ (X*(T̂)ᵢ − X*(T̂')ᵢ) · scale / λ_int

    a linear interpolation of the piecewise-constant solver map.  Only the
    time head receives a decision gradient (DBB differentiates through the
    objective's cost vector); the reliability head keeps an MSE anchor.
    """

    _clip_reliability = False  # plain MSE-anchor step

    def __init__(self, config: MFCPConfig | None = None) -> None:
        super().__init__("forward", config)
        self.name = "DBB"

    def _round(self, ctx: FitContext, Z, t_hat, a_hat, true_problem):
        M, N = true_problem.M, true_problem.N
        T_true = np.array(true_problem.T)
        A_true = np.array(true_problem.A)
        oracle_sol = solve_relaxed(true_problem, ctx.spec.solver)
        total_loss = 0.0
        grad_t = np.empty((M, N))

        for i in range(M):
            T_hat = T_true.copy()
            A_hat = A_true.copy()
            T_hat[i] = t_hat[i]
            A_hat[i] = a_hat[i]
            pred_problem = true_problem.with_predictions(T_hat, A_hat)
            sol = solve_relaxed(pred_problem, ctx.spec.solver, x0=oracle_sol.X)
            g_X = self._upstream_gradient(sol.X, true_problem)
            total_loss += self._regret_proxy(sol.X, oracle_sol.X, true_problem)

            # DBB backward: one extra solve at the gradient-informed point.
            lam = INTERPOLATION
            T_pert = T_hat.copy()
            T_pert[i] = np.maximum(T_hat[i] + lam * g_X[i] * N, 1e-4)
            sol_pert = solve_relaxed(
                pred_problem.with_predictions(T_pert, A_hat),
                ctx.spec.solver, x0=sol.X,
            )
            grad_t[i] = -(sol_pert.X[i] - sol.X[i]) / lam
        return total_loss / M, grad_t, 2.0 * (a_hat - A_true) / N


class PerturbedOpt(MFCP):
    """Berthet et al.'s perturbed optimizer with a score-function gradient.

    The loss of the *perturbed* decision is differentiated by REINFORCE:

        dE[L]/dt̂ ≈ (1/S) Σ_s (L_s − L̄) Z_s / σ

    where ``L_s = F(X*(t̂ + σZ_s), T, A)/N`` and L̄ is the mean baseline.
    Perturbing both heads gives the reliability head a decision gradient
    too — unlike SPO+/DBB, this estimator handles constraint variables.
    """

    def __init__(self, config: MFCPConfig | None = None) -> None:
        super().__init__("forward", config)
        self.name = "DPO"

    def _round(self, ctx: FitContext, Z, t_hat, a_hat, true_problem):
        M, N = true_problem.M, true_problem.N
        T_true = np.array(true_problem.T)
        A_true = np.array(true_problem.A)
        oracle_sol = solve_relaxed(true_problem, ctx.spec.solver)
        oracle_cost = smooth_cost(oracle_sol.X, true_problem)
        rng = spawn(ctx.rng)
        total_loss = 0.0
        grad_t, grad_a = np.empty((M, N)), np.empty((M, N))

        for i in range(M):
            losses = np.empty(SAMPLES)
            Zt = rng.normal(size=(SAMPLES, N))
            Za = rng.normal(size=(SAMPLES, N))
            for s in range(SAMPLES):
                T_hat = T_true.copy()
                A_hat = A_true.copy()
                T_hat[i] = np.maximum(t_hat[i] + SIGMA * Zt[s], 1e-4)
                A_hat[i] = np.clip(a_hat[i] + SIGMA * Za[s], 0.0, 1.0)
                pred = true_problem.with_predictions(T_hat, A_hat)
                sol = solve_relaxed(pred, ctx.spec.solver, x0=oracle_sol.X)
                # Loss of the perturbed decision under the truth; the slack
                # floor mirrors MFCP's infeasibility handling.
                losses[s] = self._perturbed_loss(sol.X, true_problem, oracle_cost)
            baseline = losses.mean()
            total_loss += baseline
            grad_t[i] = ((losses - baseline)[:, None] * Zt).mean(axis=0) / SIGMA
            grad_a[i] = ((losses - baseline)[:, None] * Za).mean(axis=0) / SIGMA
        return total_loss / M, grad_t, grad_a

    def _perturbed_loss(
        self, X: np.ndarray, true_problem: MatchingProblem, oracle_cost: float
    ) -> float:
        slack = true_problem.reliability_slack(X)
        problem = true_problem
        if slack < SLACK_FLOOR:
            problem = replace(true_problem, gamma=true_problem.gamma - (SLACK_FLOOR - slack))
        from repro.matching.objectives import barrier_value

        return (barrier_value(X, problem) - oracle_cost) / true_problem.N


def make_dfl_methods(config: MFCPConfig | None = None) -> list[MFCP]:
    """The DFL-landscape lineup of extension experiment E5:
    SPO+ / DBB / DPO / MFCP-AD / MFCP-FG."""
    return [
        SPOPlus(config),
        BlackboxDiff(config),
        PerturbedOpt(config),
        MFCP("analytic", config),
        MFCP("forward", config),
    ]
