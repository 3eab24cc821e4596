"""Cross-validation of our solvers against scipy's LP machinery.

The linear-cost variant of the relaxed matching (cost="linear", tiny
barrier weight) is an LP over the product of per-task simplices; scipy's
``linprog`` solves it exactly.  Agreement here independently validates the
objective assembly, the mirror-descent solver, and the rounding pipeline
against a reference implementation we did not write.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    FrankWolfeConfig,
    MatchingProblem,
    SolverConfig,
    feasible_gamma,
    linear_cost,
    round_assignment,
    solve_frank_wolfe,
    solve_relaxed,
)
from repro.matching import frank_wolfe


def _linprog_reference(problem: MatchingProblem) -> tuple[np.ndarray, float]:
    """Solve min Σ x∘T s.t. per-task simplex + reliability ≥ γ via scipy."""
    M, N = problem.M, problem.N
    c = problem.T.ravel()
    # Equality: each task's column sums to 1.
    A_eq = np.zeros((N, M * N))
    for i in range(M):
        A_eq[np.arange(N), i * N + np.arange(N)] = 1.0
    b_eq = np.ones(N)
    # Inequality: −Σ x·a / (MN) ≤ −γ.
    A_ub = -problem.A.ravel()[None, :] / (M * N)
    b_ub = np.array([-problem.gamma])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0.0, 1.0),
        method="highs",
    )
    assert res.success, res.message
    return res.x.reshape(M, N), float(res.fun)


@settings(max_examples=20)
@given(st.integers(0, 100_000))
def test_linear_cost_solver_matches_scipy_lp(seed):
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.1, 4.0, (3, 5))
    A = rng.uniform(0.55, 0.999, (3, 5))
    # Only instances whose LP optimum leaves the reliability constraint
    # strictly inactive are comparable: on active-face optima a fixed-λ
    # interior method cannot (and should not) reach the exact LP value.
    # An inactive constraint makes the LP optimum the unconstrained one
    # (every task on its fastest cluster), so cap γ below that matching's
    # reliability and every draw qualifies — no `assume` filtering.
    fastest = float(A[T.argmin(axis=0), np.arange(5)].sum() / (3 * 5))
    problem = MatchingProblem(
        T=T, A=A, gamma=min(feasible_gamma(T, A, quantile=0.3), fastest - 2e-3),
        cost="linear", lam=1e-6,  # barrier negligible: pure LP
    )
    X_lp, lp_value = _linprog_reference(problem)
    assert problem.reliability_slack(X_lp) > 1e-3
    # Frank-Wolfe carries a duality-gap certificate and its vertex oracle
    # is exact for linear objectives — the right solver to compare against
    # an LP reference.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frank_wolfe, "TOL", 1e-10)
        X_ours = solve_frank_wolfe(problem, FrankWolfeConfig(max_iters=2000)).X
    assert linear_cost(X_ours, problem) <= 1.02 * lp_value + 1e-6


@settings(max_examples=20)
@given(st.integers(0, 100_000))
def test_rounded_linear_decision_matches_lp_vertex(seed):
    """With the linear cost the LP optimum is (generically) integral; our
    relax-and-round pipeline should land on a matching of equal cost."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.1, 4.0, (3, 5))
    A = rng.uniform(0.55, 0.999, (3, 5))
    # γ below the worst possible assignment: the reliability constraint is
    # inactive, so the LP optimum is integral (per-task argmin of T).
    problem = MatchingProblem(
        T=T, A=A, gamma=float(A.min()) / 3.0 * 0.5,
        cost="linear", lam=1e-6,
    )
    X = round_assignment(solve_relaxed(problem, SolverConfig(max_iters=1500)).X, problem)
    _, lp_value = _linprog_reference(problem)
    assert linear_cost(X, problem) == pytest.approx(lp_value, rel=1e-6)
