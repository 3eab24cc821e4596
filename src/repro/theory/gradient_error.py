"""Numerical study of Theorem 3 (zeroth-order gradient approximation error).

Theorem 3 bounds the estimator's mean-squared error by a bias term growing
with Δ² and a variance term shrinking with S·Δ², implying the optimal
perturbation Δ* = (2σ_F²/(β²S))^{1/4}.  We measure the error of the
Algorithm-2 estimator against the analytic KKT gradient on convex
instances, across Δ and S — reproducing the bias/variance U-shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.kkt import kkt_vjp
from repro.matching.problem import MatchingProblem, feasible_gamma
from repro.matching.relaxed import SolverConfig, solve_relaxed
from repro.matching.zeroth_order import ZeroOrderConfig, zo_vjp
from repro.utils.rng import as_generator

__all__ = ["GradientErrorPoint", "gradient_error_study"]


@dataclass(frozen=True)
class GradientErrorPoint:
    """Error of the ZO estimate vs. the analytic gradient for one (Δ, S)."""

    delta: float
    samples: int
    mse: float
    cosine: float  # direction agreement with the analytic gradient


#: Clusters x tasks of the comparison instances.
_SHAPE = (3, 5)


def _make_problem(rng: np.random.Generator) -> MatchingProblem:
    """A well-conditioned instance for gradient comparison: moderate γ and a
    strong entropy term keep the optimum away from simplex vertices, where
    both the analytic reference and the estimator are well-defined (the
    near-boundary regime degrades both and would measure conditioning, not
    estimator quality)."""
    T = rng.uniform(0.2, 3.0, size=_SHAPE)
    A = rng.uniform(0.6, 0.995, size=_SHAPE)
    return MatchingProblem(
        T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.25), entropy=0.1
    )


def gradient_error_study(
    deltas: "list[float]",
    sample_counts: "list[int]",
    *,
    repeats: int = 5,
    rng: np.random.Generator | int | None = None,
) -> list[GradientErrorPoint]:
    """Compare zo_vjp to kkt_vjp over a grid of (Δ, S).

    Returns one point per grid cell, averaging over ``repeats`` random
    instances and upstream gradients.
    """
    rng = as_generator(rng)
    solver = SolverConfig(max_iters=2000, tol=1e-13, patience=20, lr=0.3)
    cases = []
    for _ in range(repeats):
        problem = _make_problem(rng)
        sol = solve_relaxed(problem, solver)
        g_X = rng.normal(size=_SHAPE)
        analytic = kkt_vjp(sol.X, problem, g_X)
        ref = np.concatenate([analytic.dT[0], analytic.dA[0]])
        cases.append((problem, sol, g_X, ref))

    out = []
    for delta in deltas:
        for s in sample_counts:
            errs, cosines = [], []
            for problem, sol, g_X, ref in cases:
                zg = zo_vjp(
                    problem, sol, 0, g_X,
                    ZeroOrderConfig(samples=s, delta=delta, warm_start_iters=200),
                    solver_config=solver, rng=rng,
                )
                est = np.concatenate([zg.dt, zg.da])
                errs.append(float(np.mean((est - ref) ** 2)))
                denom = np.linalg.norm(est) * np.linalg.norm(ref)
                cosines.append(float(est @ ref / denom) if denom > 0 else 0.0)
            out.append(
                GradientErrorPoint(
                    delta=delta, samples=s,
                    mse=float(np.mean(errs)), cosine=float(np.mean(cosines)),
                )
            )
    return out
