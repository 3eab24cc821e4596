"""The carried-state ``solve_relaxed`` must reproduce the per-call loop exactly.

``_per_call_solve`` below is the pre-evaluator loop kept verbatim (minus
telemetry) as the oracle: every iteration calls the stateless
``barrier_gradient(X)`` and every trial ``barrier_value(X_new)``, the ±50
exponent clip is always applied, and ``feasible_start()`` is rebuilt for
the hedge.  The shipped solver threads the accepted trial's state into the
next gradient (see ``BarrierEval``) and elides the clip where it is
provably a no-op; iterates, history and counters must match bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.matching import (
    ExponentialDecaySpeedup,
    MatchingProblem,
    SolverConfig,
    feasible_gamma,
    solve_relaxed,
)
from repro.matching.objectives import BarrierEval, barrier_gradient, barrier_value
from repro.matching.relaxed import BACKTRACK, _project


def _per_call_solve(problem: MatchingProblem, cfg: SolverConfig, x0: "np.ndarray | None" = None):
    X = problem.feasible_start() if x0 is None else np.array(x0, dtype=np.float64)
    if not problem.is_strictly_feasible(X):
        interior = problem.feasible_start()
        for alpha in (0.25, 0.5, 0.75):
            blended = (1.0 - alpha) * X + alpha * interior
            if problem.is_strictly_feasible(blended):
                X = blended
                break
        else:
            X = interior

    f_cur = barrier_value(X, problem)
    if x0 is not None:
        cold = problem.feasible_start()
        f_cold = barrier_value(cold, problem)
        if f_cold < f_cur:
            X, f_cur = cold, f_cold
    history = np.empty(cfg.max_iters + 1)
    history[0] = f_cur
    best_X, best_f = X, f_cur
    stall = 0
    it = 0
    monotone = cfg.projection != "softmax"
    last_halvings = 0
    for it in range(1, cfg.max_iters + 1):
        grad = barrier_gradient(X, problem)
        step = cfg.lr
        if cfg.projection == "mirror":
            step = cfg.lr / max(float(np.abs(grad).max()), 1e-9)
        accepted = False
        for h in range(BACKTRACK):
            if cfg.projection == "mirror":
                Z = X * np.exp(-np.clip(step * grad, -50.0, 50.0))
                X_new = Z / Z.sum(axis=0, keepdims=True)
            else:
                X_new = _project(X - step * grad, cfg.projection)
            f_new = barrier_value(X_new, problem)
            if np.isfinite(f_new) and (not monotone or f_new <= f_cur + 1e-12):
                accepted = True
                last_halvings = h
                break
            step *= 0.5
        if not accepted:
            history = history[: it + 1]
            history[it] = best_f
            return best_X, best_f, it, True, history.copy(), last_halvings
        improvement = f_cur - f_new
        X, f_cur = X_new, f_new
        if f_cur < best_f:
            best_X, best_f = X, f_cur
        history[it] = f_cur
        if abs(improvement) < cfg.tol:
            stall += 1
            if stall >= cfg.patience:
                history = history[: it + 1]
                return best_X, best_f, it, True, history.copy(), last_halvings
        else:
            stall = 0
    return best_X, best_f, it, False, history[: it + 1].copy(), last_halvings


def _assert_identical(p: MatchingProblem, cfg: SolverConfig, x0: "np.ndarray | None" = None):
    X, objective, iterations, converged, history, halvings = _per_call_solve(p, cfg, x0)
    got = solve_relaxed(p, cfg, x0=x0)
    assert np.array_equal(got.X, X)
    assert np.array_equal(got.history, history)
    assert (got.objective, got.iterations, got.converged, got.halvings) == (
        objective, iterations, converged, halvings)
    assert got.trials >= got.iterations
    return got


def _instance(rng: np.random.Generator, m: int, n: int, quantile: float, **kwargs) -> MatchingProblem:
    T = rng.uniform(0.2, 3.0, size=(m, n))
    A = rng.uniform(0.3, 0.995, size=(m, n))
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=quantile), **kwargs)


_VARIANTS = list(itertools.product(
    ("makespan", "linear"), ("log_barrier", "hinge"), (False, True), (0.0, 0.01)))


@pytest.mark.parametrize("projection", ["mirror", "softmax", "euclidean"])
@pytest.mark.parametrize("normalize_steps", [True])  # the rule is fixed; the id and the seed stay
@pytest.mark.parametrize("lr", [0.5, 60.0])  # 60: the clip-kept branch
def test_solver_matches_per_call_loop(projection, normalize_steps, lr):
    rng = np.random.default_rng([0, len(projection), normalize_steps, int(lr)])
    seen = {"blend": 0, "fallback": 0, "hedge": 0}
    for cost, penalty, parallel, entropy in _VARIANTS:
        # ζ costs one Python call per cluster per evaluation: keep those small.
        m = int(rng.integers(2, 7 if parallel else 25))
        n = int(rng.integers(1, 17 if parallel else 65))
        kwargs = dict(cost=cost, penalty=penalty, entropy=entropy,
                      speedup=(ExponentialDecaySpeedup(),) if parallel else None)
        cfg = SolverConfig(lr=lr, projection=projection, max_iters=8,
                           tol=float(rng.choice([1e-3, 1e-7])))
        p = _instance(rng, m, n, float(rng.uniform(0.1, 0.6)), **kwargs)
        cold = _assert_identical(p, cfg)

        # Warm-chained: the next window is a perturbation of this one, with
        # a tighter γ so the seed is sometimes infeasible.
        T2 = p.T * rng.uniform(0.9, 1.1, size=p.T.shape)
        A2 = np.clip(p.A * rng.uniform(0.9, 1.05, size=p.A.shape), 0.0, 1.0)
        p2 = MatchingProblem(T=T2, A=A2, gamma=feasible_gamma(T2, A2, quantile=0.9), **kwargs)
        _assert_identical(p2, cfg, cold.X)

        # Infeasible seeds: just outside the domain (first blend re-enters)
        # and the least reliable vertex (usually the full cold fallback).
        interior = p2.feasible_start()
        worst = np.zeros((m, n))
        worst[p2.A.argmin(axis=0), np.arange(n)] = 1.0
        s_int, s_bad = p2.reliability_slack(interior), p2.reliability_slack(worst)
        w = 1.1 * s_int / (s_int - s_bad)  # slack(x0) = −0.1 · slack(interior)
        for x0 in ((1.0 - w) * interior + w * worst, worst):
            assert not p2.is_strictly_feasible(x0)
            recovers = p2.is_strictly_feasible(0.25 * x0 + 0.75 * interior)
            seen["blend" if recovers else "fallback"] += 1
            _assert_identical(p2, cfg, x0)

        # A feasible but stale seed (pulled toward each task's slowest
        # cluster, keeping half the interior's slack): the hedge's cold
        # point wins and its carried state opens the descent.
        slow = np.zeros((m, n))
        slow[p2.T.argmax(axis=0), np.arange(n)] = 1.0
        w = 0.5 * min(1.0, s_int / max(s_int - p2.reliability_slack(slow), 1e-12))
        stale = (1.0 - w) * interior + w * slow
        assert p2.is_strictly_feasible(stale)
        seen["hedge"] += barrier_value(interior, p2) < barrier_value(stale, p2)
        _assert_identical(p2, cfg, stale)
    assert all(seen.values()), seen


def test_serving_shape_warm_chain_matches():
    """The serve_steady shape at the serving tolerances, warm-chained."""
    rng = np.random.default_rng(7)
    cfg = SolverConfig(tol=1e-4, max_iters=400)
    T = rng.uniform(0.2, 3.0, size=(3, 16))
    A = rng.uniform(0.6, 1.0, size=(3, 16))
    x0 = None
    for _ in range(6):
        T = T * rng.uniform(0.95, 1.05, size=T.shape)
        A = np.clip(A * rng.uniform(0.98, 1.02, size=A.shape), 0.0, 1.0)
        p = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5))
        x0 = _assert_identical(p, cfg, x0).X


def test_wrappers_equal_evaluator_bitwise():
    rng = np.random.default_rng(11)
    for cost, penalty, parallel, entropy in _VARIANTS:
        p = _instance(rng, 4, 9, 0.4, cost=cost, penalty=penalty, entropy=entropy,
                      speedup=(ExponentialDecaySpeedup(),) if parallel else None)
        X = solve_relaxed(p, SolverConfig(max_iters=5)).X
        ev = BarrierEval(p)
        f, state = ev.value(X)
        assert f == barrier_value(X, p)
        g = barrier_gradient(X, p)
        assert np.array_equal(ev.gradient(X, state), g)
        assert np.array_equal(ev.gradient(X), g)
    # Outside the log barrier's domain: +inf and no state to carry.
    p = _instance(rng, 3, 5, 0.9)
    worst = np.zeros((3, 5))
    worst[p.A.argmin(axis=0), np.arange(5)] = 1.0
    assert BarrierEval(p).value(worst) == (float("inf"), None)
    assert barrier_value(worst, p) == float("inf")
    with pytest.raises(ValueError, match="infeasible"):
        barrier_gradient(worst, p)
