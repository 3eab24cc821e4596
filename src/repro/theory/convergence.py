"""Numerical verification of Theorems 4 and 5 (solver convergence).

- Theorem 4 (convex case): projected/mirror descent on the strongly convex
  barrier objective converges linearly — we measure the contraction factor
  of ``F(X^(k)) − F*`` on entropy-regularized sequential instances.
- Theorem 5 (non-convex case): with the parallel ζ objective the averaged
  squared gradient norm decays like O(1/k) plus a noise floor — we measure
  the decay of the best-so-far projected-gradient norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.objectives import barrier_gradient, barrier_value
from repro.matching.problem import MatchingProblem, feasible_gamma
from repro.matching.relaxed import SolverConfig, solve_relaxed
from repro.matching.speedup import ExponentialDecaySpeedup
from repro.utils.rng import as_generator

__all__ = [
    "ConvexConvergence",
    "convex_convergence_study",
    "NonConvexConvergence",
    "nonconvex_convergence_study",
]

#: Clusters x tasks of the random instance both studies solve.
_SHAPE = (3, 6)


@dataclass(frozen=True)
class ConvexConvergence:
    """History of F(X^(k)) − F* and the fitted linear-rate factor."""

    gaps: np.ndarray
    rate: float  # geometric mean per-iteration contraction of the gap

    def is_linear(self) -> bool:
        """Linear convergence = strictly contracting optimality gap."""
        return 0.0 < self.rate < 0.999


def convex_convergence_study(
    *,
    iters: int = 400,
    rng: np.random.Generator | int | None = None,
) -> ConvexConvergence:
    """Track the optimality gap of Algorithm 1 on a convex instance."""
    rng = as_generator(rng)
    T = rng.uniform(0.2, 3.0, size=_SHAPE)
    A = rng.uniform(0.6, 0.995, size=_SHAPE)
    problem = MatchingProblem(
        T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4), entropy=0.05
    )
    # Reference optimum: a much longer, tighter solve.
    ref = solve_relaxed(problem, SolverConfig(max_iters=20000, tol=1e-16, patience=200))
    f_star = ref.objective
    sol = solve_relaxed(problem, SolverConfig(max_iters=iters, tol=0.0, patience=10**9))
    gaps = np.maximum(sol.history - f_star, 1e-16)
    # Fit geometric contraction over the first phase (before hitting tol).
    useful = gaps[gaps > 1e-12]
    if len(useful) < 3:
        return ConvexConvergence(gaps=gaps, rate=0.0)
    k = len(useful) - 1
    rate = float((useful[-1] / useful[0]) ** (1.0 / k))
    return ConvexConvergence(gaps=gaps, rate=rate)


@dataclass(frozen=True)
class NonConvexConvergence:
    """Best-so-far squared projected-gradient norms at checkpoints."""

    checkpoints: np.ndarray
    grad_norms: np.ndarray

    def is_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.grad_norms) <= 1e-9))


def _projected_grad_norm(X: np.ndarray, problem: MatchingProblem) -> float:
    """Norm of the gradient projected onto the simplex tangent space
    (per-column mean removed) — zero exactly at stationary points."""
    g = barrier_gradient(X, problem)
    g = g - g.mean(axis=0, keepdims=True)
    return float(np.sum(g * g))


def nonconvex_convergence_study(
    *,
    checkpoints: "list[int] | None" = None,
    rng: np.random.Generator | int | None = None,
) -> NonConvexConvergence:
    """Measure stationarity decay of Algorithm 1 on the parallel objective."""
    rng = as_generator(rng)
    T = rng.uniform(0.2, 3.0, size=_SHAPE)
    A = rng.uniform(0.6, 0.995, size=_SHAPE)
    problem = MatchingProblem(
        T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4),
        speedup=(ExponentialDecaySpeedup(),), entropy=0.02,
    )
    cps = sorted(checkpoints or [10, 50, 100, 200, 400])
    norms = []
    best = np.inf
    for cp in cps:
        sol = solve_relaxed(problem, SolverConfig(max_iters=cp, tol=0.0, patience=10**9))
        best = min(best, _projected_grad_norm(sol.X, problem))
        norms.append(best)
    return NonConvexConvergence(checkpoints=np.array(cps), grad_norms=np.array(norms))
