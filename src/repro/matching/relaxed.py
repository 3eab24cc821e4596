"""Algorithm 1: optimal matching of the relaxed problem by gradient descent.

Solves the barrier-smoothed lower-level problem (Eq. 10)

    min_X  F(X, T, A)   s.t.   Σ_i x_i = 1_N,  x ∈ [0, 1]

by projected first-order iterations.  Three projection rules are provided:

- ``"softmax"`` — the paper's literal Algorithm 1 (gradient step on X then
  per-task softmax).  Simple but slow: softmax of near-uniform values
  contracts towards the barycenter, so many iterations are needed.
- ``"mirror"`` — exponentiated-gradient / mirror descent on the simplex
  (multiplicative update then normalization).  Mathematically the natural
  form of the paper's softmax idea (it *is* softmax of accumulated scaled
  gradients) and much faster; this is the default.
- ``"euclidean"`` — Euclidean projection onto the per-task simplex.

Every iterate stays strictly inside the barrier's domain via backtracking:
a step that would make the reliability slack non-positive is halved until
feasible, mirroring interior-point practice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.matching.objectives import BarrierEval
from repro.matching.problem import MatchingProblem
from repro.nn.functional import softmax_np
from repro.telemetry import ITER_BUCKETS, TIME_BUCKETS_S, get_recorder

__all__ = ["SolverConfig", "RelaxedSolution", "solve_relaxed", "project_simplex_columns"]

#: Max step halvings per iteration to stay strictly feasible.
BACKTRACK = 30


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of Algorithm 1."""

    lr: float = 0.5
    max_iters: int = 300
    tol: float = 1e-7  # stop when the objective improves less than this
    projection: str = "mirror"  # "mirror" | "softmax" | "euclidean"
    patience: int = 5  # consecutive small-improvement iters before stopping

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.max_iters <= 0:
            raise ValueError(f"max_iters must be > 0, got {self.max_iters}")
        if self.projection not in ("mirror", "softmax", "euclidean"):
            raise ValueError(f"unknown projection {self.projection!r}")


@dataclass(frozen=True)
class RelaxedSolution:
    """Result of a relaxed solve."""

    X: np.ndarray
    objective: float  # F at the solution
    iterations: int
    converged: bool
    history: np.ndarray = field(repr=False)  # objective value per iteration
    #: Backtracking halvings the *last accepted* iterate needed (step
    #: memory).  A warm-start consumer can open its next solve at
    #: ``lr / 2^halvings`` instead of rediscovering the same scale through
    #: repeated rejections — the scalar analogue of the batch solver's
    #: ``adaptive_trials`` step-memory line search.
    halvings: int = 0
    #: Total line-search evaluations of F over the solve (≥ ``iterations``).
    trials: int = 0


def project_simplex_columns(X: np.ndarray) -> np.ndarray:
    """Euclidean projection of each column onto the probability simplex
    (Duchi et al. 2008), vectorized over columns."""
    M, N = X.shape
    # Sort descending per column.
    U = -np.sort(-X, axis=0)
    css = np.cumsum(U, axis=0) - 1.0
    ks = np.arange(1, M + 1)[:, None]
    cond = U - css / ks > 0
    rho = M - np.argmax(cond[::-1], axis=0) - 1  # last index where cond holds
    theta = css[rho, np.arange(N)] / (rho + 1.0)
    return np.maximum(X - theta[None, :], 0.0)


def _project(X: np.ndarray, rule: str) -> np.ndarray:
    if rule == "euclidean":
        return project_simplex_columns(X)
    # "softmax" (paper-literal) — mirror handles its own update inline.
    return softmax_np(X, axis=0)


def solve_relaxed(
    problem: MatchingProblem,
    config: SolverConfig | None = None,
    *,
    x0: np.ndarray | None = None,
) -> RelaxedSolution:
    """Run Algorithm 1 and return the relaxed optimal matching.

    Parameters
    ----------
    problem:
        The matching instance (predicted or ground-truth matrices).
    config:
        Solver hyperparameters; defaults to :class:`SolverConfig`.
    x0:
        Warm start (must be strictly feasible); defaults to the uniform
        assignment.  Warm starting from a previous solve is how the
        zeroth-order estimator keeps its perturbed solves cheap.

    Each trial's :meth:`BarrierEval.value` state is carried into the next
    iteration's gradient, so F's intermediates are evaluated once per
    accepted step.  The mirror update clips its exponent to ±50 except
    where that is provably a no-op: the mirror step is normalized to
    ``lr / max|∇F|``, so ``|step·∇F| ≤ lr·(1 + 2u)`` (two roundings) at
    every halving, which stays below 50 for any ``lr ≤ 49``.
    """
    cfg = config or SolverConfig()
    cold = problem.feasible_start()
    X = cold if x0 is None else np.array(x0, dtype=np.float64)
    if X.shape != (problem.M, problem.N):
        raise ValueError(f"x0 must have shape {(problem.M, problem.N)}, got {X.shape}")
    if not problem.is_strictly_feasible(X):
        # A warm start from a neighbouring instance can be (mildly)
        # infeasible for this one.  The reliability slack is linear in a
        # blend weight toward the interior point, so walk toward it just
        # far enough to re-enter the barrier domain — keeping most of the
        # warm information — before giving up and starting cold.
        for alpha in (0.25, 0.5, 0.75):
            blended = (1.0 - alpha) * X + alpha * cold
            if problem.is_strictly_feasible(blended):
                X = blended
                break
        else:
            X = cold

    ev = BarrierEval(problem)
    f_cur, state = ev.value(X)
    if X is not cold:
        # Hedge the warm start: one extra evaluation at the cold start
        # guarantees a stale seed can never open the descent from a worse
        # point than the solver would have used anyway.  Its state is
        # carried like any accepted trial's if the cold point wins.
        f_cold, cold_state = ev.value(cold)
        if f_cold < f_cur:
            X, f_cur, state = cold, f_cold, cold_state
    history = np.empty(cfg.max_iters + 1)
    history[0] = f_cur
    best_X, best_f = X, f_cur
    stall = 0
    it = 0

    # Telemetry: the recorder is hoisted once per solve so the disabled
    # mode pays a single branch, not one lookup per iteration.
    rec = get_recorder()
    tele = rec.enabled
    ls_time = 0.0

    def _emit(sol: RelaxedSolution) -> RelaxedSolution:
        if tele:
            rec.counter_add("solve/calls")
            rec.observe("solve/iterations", sol.iterations, bounds=ITER_BUCKETS)
            rec.observe("solve/trials", sol.trials, bounds=ITER_BUCKETS)
            rec.observe("solve/line_search_s", ls_time, bounds=TIME_BUCKETS_S)
            if not sol.converged:
                rec.counter_add("solve/nonconverged")
        return sol
    # The paper-literal "softmax" rule is not a descent method (softmax of a
    # near-uniform matrix contracts to the barycenter), so it runs in
    # non-monotone mode tracking the best iterate, exactly like Algorithm 1.
    monotone = cfg.projection != "softmax"
    mirror = cfg.projection == "mirror"
    clip = not (mirror and cfg.lr <= 49.0)  # see the docstring
    last_halvings = 0
    trials = 0
    for it in range(1, cfg.max_iters + 1):
        grad = ev.gradient(X, state)
        step = cfg.lr
        if mirror:
            # Near the barrier boundary the gradient magnitude explodes; a
            # step scaled by 1/max|∇F| keeps the multiplicative update
            # bounded and prevents the solver from crawling (observed on
            # ~10% of random instances without it).
            step = cfg.lr / max(float(np.maximum.reduce(np.abs(grad), None)), 1e-9)
        accepted = False
        if tele:
            ls_t0 = time.perf_counter()
        for h in range(BACKTRACK):
            if mirror:
                # Multiplicative-weights update X·exp(−step·∇F), normalized
                # per task; clip the exponent for safety.  ∇F·(−step) is
                # −(step·∇F) bit for bit (rounding is sign-symmetric), and
                # so is clipping it to the symmetric ±50.
                Z = grad * -step
                if clip:
                    np.clip(Z, -50.0, 50.0, out=Z)
                np.exp(Z, out=Z)
                Z *= X
                Z /= np.add.reduce(Z, 0, keepdims=True)
                X_new = Z
            else:
                X_new = _project(X - step * grad, cfg.projection)
            f_new, state_new = ev.value(X_new)
            trials += 1
            if math.isfinite(f_new) and (not monotone or f_new <= f_cur + 1e-12):
                accepted = True
                last_halvings = h
                break
            step *= 0.5
        if tele:
            ls_time += time.perf_counter() - ls_t0
        if not accepted:
            history = history[: it + 1]
            history[it] = best_f
            return _emit(RelaxedSolution(X=best_X, objective=best_f, iterations=it,
                                         converged=True, history=history.copy(),
                                         halvings=last_halvings, trials=trials))
        improvement = f_cur - f_new
        X, f_cur, state = X_new, f_new, state_new
        if f_cur < best_f:
            best_X, best_f = X, f_cur
        history[it] = f_cur
        if abs(improvement) < cfg.tol:
            stall += 1
            if stall >= cfg.patience:
                history = history[: it + 1]
                return _emit(RelaxedSolution(X=best_X, objective=best_f, iterations=it,
                                             converged=True, history=history.copy(),
                                             halvings=last_halvings, trials=trials))
        else:
            stall = 0
    return _emit(RelaxedSolution(
        X=best_X, objective=best_f, iterations=it, converged=False,
        history=history[: it + 1].copy(), halvings=last_halvings, trials=trials
    ))
