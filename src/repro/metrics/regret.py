"""The regret metric (paper Eq. 6 / §4.1.3).

Regret is the makespan excess of the prediction-driven matching over the
ground-truth-driven matching, with *both* matchings evaluated on the true
execution times:

    Regret = (1/N) [ f(X*(T̂, Â), T) − f(X*(T, A), T) ]

Both argmins are produced by the same relax-and-round deployment pipeline
(§3.2), so regret isolates the effect of prediction error on decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.objectives import makespan
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import SolverConfig, solve_relaxed
from repro.matching.rounding import round_assignment

__all__ = ["deployment_matching", "regret", "RegretBreakdown", "regret_breakdown"]


def deployment_matching(
    problem: MatchingProblem,
    *,
    solver_config: SolverConfig | None = None,
) -> np.ndarray:
    """The paper's deployment pipeline: relaxed solve, then rounding."""
    sol = solve_relaxed(problem, solver_config)
    return round_assignment(sol.X, problem)


def regret(true_problem: MatchingProblem, T_hat: np.ndarray, A_hat: np.ndarray) -> float:
    """Eq. (6) on one allocation round.

    Parameters
    ----------
    true_problem:
        Instance carrying the ground-truth T and A.
    T_hat, A_hat:
        Predicted matrices (same shape).
    """
    return regret_breakdown(true_problem, T_hat, A_hat).regret


@dataclass(frozen=True)
class RegretBreakdown:
    """Regret plus the underlying matchings and costs (for reporting)."""

    regret: float
    cost_predicted: float  # f(X*(T̂,Â), T)
    cost_oracle: float  # f(X*(T,A), T)
    X_predicted: np.ndarray
    X_oracle: np.ndarray


def regret_breakdown(
    true_problem: MatchingProblem, T_hat: np.ndarray, A_hat: np.ndarray
) -> RegretBreakdown:
    """Full Eq. (6) evaluation with both matchings exposed."""
    X_pred = deployment_matching(true_problem.with_predictions(T_hat, A_hat))
    X_true = deployment_matching(true_problem)
    cost_pred = makespan(X_pred, true_problem)
    cost_true = makespan(X_true, true_problem)
    n = true_problem.N
    return RegretBreakdown(
        regret=(cost_pred - cost_true) / n,
        cost_predicted=cost_pred,
        cost_oracle=cost_true,
        X_predicted=X_pred,
        X_oracle=X_true,
    )
