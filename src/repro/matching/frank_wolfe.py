"""Frank–Wolfe (conditional gradient) solver for the relaxed matching.

A projection-free alternative to Algorithm 1: the feasible set is a product
of per-task simplices, whose linear minimization oracle is trivial — for
each task, put all mass on the cluster with the smallest gradient entry.
Each iteration moves toward that vertex with a step chosen by backtracking
line search on the barrier objective.

Compared to mirror descent, Frank–Wolfe iterates are sparse convex
combinations of vertices (at most one new cluster per task per iteration),
which makes the final rounding particularly stable; it is exposed as an
alternative engine for ablation and as a teaching implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.objectives import BarrierEval
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import RelaxedSolution

__all__ = ["FrankWolfeConfig", "solve_frank_wolfe"]

#: Stop when the Frank–Wolfe duality gap falls below this.
TOL = 1e-8


@dataclass(frozen=True)
class FrankWolfeConfig:
    """Hyperparameters of the conditional-gradient solver."""

    max_iters: int = 300

    def __post_init__(self) -> None:
        if self.max_iters <= 0:
            raise ValueError(f"max_iters must be > 0, got {self.max_iters}")


def _vertex_oracle(grad: np.ndarray) -> np.ndarray:
    """Linear minimization oracle over the product of column simplices."""
    m, n = grad.shape
    V = np.zeros((m, n))
    V[grad.argmin(axis=0), np.arange(n)] = 1.0
    return V


def solve_frank_wolfe(
    problem: MatchingProblem, config: FrankWolfeConfig | None = None
) -> RelaxedSolution:
    """Minimize the barrier objective by conditional gradient.

    Stops when the Frank–Wolfe duality gap ``⟨∇F, X − V⟩`` — an upper bound
    on the optimality gap for convex F — drops below :data:`TOL`.  Each
    iteration tries the full step to the vertex first, then halves it.
    """
    cfg = config or FrankWolfeConfig()
    X = problem.feasible_start()

    ev = BarrierEval(problem)
    f_cur, state = ev.value(X)
    history = np.empty(cfg.max_iters + 1)
    history[0] = f_cur
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad = ev.gradient(X, state)
        V = _vertex_oracle(grad)
        direction = V - X
        gap = float(-np.sum(grad * direction))  # ⟨∇F, X − V⟩ ≥ 0
        if gap < TOL:
            history = history[:it]
            return RelaxedSolution(X=X, objective=f_cur, iterations=it - 1,
                                   converged=True, history=history.copy())
        step = 1.0
        accepted = False
        for _ in range(25):  # step halvings per iteration
            X_new = X + step * direction
            f_new, state_new = ev.value(X_new)
            if np.isfinite(f_new) and f_new < f_cur - 1e-15:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            history = history[:it]
            return RelaxedSolution(X=X, objective=f_cur, iterations=it - 1,
                                   converged=True, history=history.copy())
        X, f_cur, state = X_new, f_new, state_new
        history[it] = f_cur
    return RelaxedSolution(X=X, objective=f_cur, iterations=it, converged=False,
                           history=history[: it + 1].copy())
