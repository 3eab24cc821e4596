"""Tests for the extension solvers: Frank–Wolfe and the vectorized batch
solver (+ batched zeroth-order estimation)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    BatchProblem,
    FrankWolfeConfig,
    MatchingProblem,
    SolverConfig,
    ZeroOrderConfig,
    batchable,
    feasible_gamma,
    kkt_vjp,
    makespan,
    round_assignment,
    solve_branch_and_bound,
    solve_frank_wolfe,
    solve_relaxed,
    solve_relaxed_batch,
    zo_vjp,
)

from tests.conftest import random_problem


class TestFrankWolfe:
    def test_matches_mirror_descent_objective(self, rng):
        p = replace(random_problem(rng), entropy=0.02)
        fw = solve_frank_wolfe(p, FrankWolfeConfig(max_iters=800))
        md = solve_relaxed(p, SolverConfig(max_iters=800))
        assert fw.objective == pytest.approx(md.objective, abs=0.05)

    def test_iterates_feasible(self, rng):
        p = random_problem(rng, gamma_quantile=0.6)
        sol = solve_frank_wolfe(p)
        assert p.reliability_slack(sol.X) > 0
        np.testing.assert_allclose(sol.X.sum(axis=0), np.ones(p.N), atol=1e-9)

    def test_monotone_history(self, rng):
        p = random_problem(rng)
        sol = solve_frank_wolfe(p)
        assert np.all(np.diff(sol.history) <= 1e-9)

    def test_rounded_matches_exact(self, rng):
        p = random_problem(rng)
        Xr = round_assignment(solve_frank_wolfe(p).X, p)
        exact = solve_branch_and_bound(p)
        assert makespan(Xr, p) <= 1.5 * exact.objective + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FrankWolfeConfig(max_iters=0)


class TestBatchSolver:
    def _batch(self, rng, B=8, entropy=0.05):
        T = rng.uniform(0.2, 3.0, (3, 5))
        A = rng.uniform(0.6, 0.99, (3, 5))
        gamma = feasible_gamma(T, A, quantile=0.4)
        Ts = np.stack([T * np.exp(rng.normal(0, 0.05, T.shape)) for _ in range(B)])
        As = np.tile(A, (B, 1, 1))
        return BatchProblem(T=Ts, A=As, gamma=np.full(B, gamma), entropy=entropy)

    def test_matches_scalar_solver(self, rng):
        bp = self._batch(rng)
        bs = solve_relaxed_batch(bp, max_iters=300)
        for b in range(bp.B):
            p = MatchingProblem(T=bp.T[b], A=bp.A[b], gamma=float(bp.gamma[b]),
                                entropy=bp.entropy)
            sc = solve_relaxed(p, SolverConfig(max_iters=300))
            assert bs.objective[b] == pytest.approx(sc.objective, abs=1e-3)

    def test_all_instances_feasible(self, rng):
        bp = self._batch(rng)
        bs = solve_relaxed_batch(bp)
        slack = np.einsum("bmn,bmn->b", bs.X, bp.A) / (bp.M * bp.N) - bp.gamma
        assert np.all(slack > 0)
        np.testing.assert_allclose(bs.X.sum(axis=1), np.ones((bp.B, bp.N)), atol=1e-9)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            BatchProblem(T=np.ones((2, 3)), A=np.ones((2, 3)), gamma=np.zeros(2))
        bp = self._batch(rng)
        with pytest.raises(ValueError):
            solve_relaxed_batch(bp, lr=0)
        with pytest.raises(ValueError):
            solve_relaxed_batch(bp, x0=np.ones((1, 3, 5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["T", "A", "gamma"])
    def test_non_finite_inputs_rejected(self, rng, field, bad, dtype):
        """What MatchingProblem refuses, a batch refuses too: NaN passes
        ``T <= 0``, ``A < 0 | A > 1`` and the padding test."""
        bp = self._batch(rng, B=3)
        arrays = {"T": bp.T.copy(), "A": bp.A.copy(), "gamma": bp.gamma.copy()}
        arrays[field][(1,) + (0,) * (arrays[field].ndim - 1)] = bad
        with pytest.raises(ValueError, match=f"^{field} contains NaN or infinite entries$"):
            BatchProblem(**arrays, dtype=dtype)
        single = {"T": arrays["T"][1], "A": arrays["A"][1], "gamma": float(arrays["gamma"][1])}
        if field != "gamma":  # MatchingProblem's message, word for word
            with pytest.raises(ValueError, match=f"^{field} contains NaN or infinite entries$"):
                MatchingProblem(**single)

    def test_unattainable_gamma_rejected(self, rng):
        T = rng.uniform(0.5, 2.0, (1, 3, 4))
        A = np.full((1, 3, 4), 0.5)
        with pytest.raises(ValueError):
            solve_relaxed_batch(BatchProblem(T=T, A=A, gamma=np.array([0.9])))

    @settings(max_examples=10)
    @given(st.integers(0, 10_000))
    def test_property_batch_objective_close_to_scalar(self, seed):
        rng = np.random.default_rng(seed)
        bp = self._batch(rng, B=3)
        bs = solve_relaxed_batch(bp, max_iters=200)
        for b in range(3):
            p = MatchingProblem(T=bp.T[b], A=bp.A[b], gamma=float(bp.gamma[b]),
                                entropy=bp.entropy)
            sc = solve_relaxed(p, SolverConfig(max_iters=200))
            assert bs.objective[b] <= sc.objective + 0.02


class TestBatchedZeroOrder:
    def test_vectorized_agrees_with_scalar_and_analytic(self, rng):
        p = replace(random_problem(rng, n=5), entropy=0.08)
        cfg = SolverConfig(max_iters=2000, tol=1e-13, patience=30)
        sol = solve_relaxed(p, cfg)
        gX = rng.normal(size=(p.M, p.N))
        ref = kkt_vjp(sol.X, p, gX)
        refv = np.concatenate([ref.dT[0], ref.dA[0]])
        zg = zo_vjp(p, sol, 0, gX,
                    ZeroOrderConfig(samples=32, delta=0.02, warm_start_iters=200,
                                    vectorized=True),
                    solver_config=cfg, rng=5)
        est = np.concatenate([zg.dt, zg.da])
        cos = est @ refv / (np.linalg.norm(est) * np.linalg.norm(refv) + 1e-12)
        assert cos > 0.7

    def test_deterministic(self, rng):
        p = replace(random_problem(rng, n=4), entropy=0.05)
        sol = solve_relaxed(p)
        gX = rng.normal(size=(p.M, p.N))
        cfg = ZeroOrderConfig(samples=8, delta=0.05, vectorized=True)
        z1 = zo_vjp(p, sol, 1, gX, cfg, rng=9)
        z2 = zo_vjp(p, sol, 1, gX, cfg, rng=9)
        np.testing.assert_allclose(z1.dt, z2.dt)

    @pytest.mark.parametrize("problem_knobs,solver", [
        ({"cost": "linear"}, SolverConfig()),
        ({"penalty": "hinge", "lam": 5.0}, SolverConfig()),
        ({}, SolverConfig(projection="euclidean")),
    ])
    def test_programs_the_batch_kernel_cannot_express_stay_scalar(
            self, rng, problem_knobs, solver):
        """``vectorized=True`` must not hand a linear-cost, hinge-penalty or
        differently projected program to the makespan/log-barrier batch
        solver: there it is the scalar estimate, bit for bit."""
        p = replace(random_problem(rng, n=6), entropy=0.02, **problem_knobs)
        assert not batchable(p, solver)
        sol = solve_relaxed(p, solver)
        gX = rng.normal(size=(p.M, p.N))
        cfg = ZeroOrderConfig(samples=8, delta=0.05)
        scalar = zo_vjp(p, sol, 0, gX, cfg, solver_config=solver, rng=3)
        vectorized = zo_vjp(p, sol, 0, gX, replace(cfg, vectorized=True),
                            solver_config=solver, rng=3)
        assert np.array_equal(vectorized.dt, scalar.dt)
        assert np.array_equal(vectorized.da, scalar.da)
        assert vectorized.solves == scalar.solves

    def test_parallel_objective_falls_back_to_scalar(self, rng):
        from repro.matching import ExponentialDecaySpeedup

        p = replace(random_problem(rng, n=4),
                    speedup=(ExponentialDecaySpeedup(),), entropy=0.02)
        sol = solve_relaxed(p)
        gX = rng.normal(size=(p.M, p.N))
        zg = zo_vjp(p, sol, 0, gX,
                    ZeroOrderConfig(samples=4, delta=0.05, vectorized=True), rng=0)
        assert np.all(np.isfinite(zg.dt))  # scalar fallback handled ζ
