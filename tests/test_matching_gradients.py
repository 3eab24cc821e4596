"""Tests for the two argmin-differentiation routes: KKT (Eq. 15) and
zeroth-order (Algorithm 2), including their mutual agreement — the code
path underlying the paper's MFCP-AD ≈ MFCP-FG claim."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.matching import (
    ExponentialDecaySpeedup,
    SolverConfig,
    ZeroOrderConfig,
    kkt_jacobians,
    kkt_vjp,
    solve_relaxed,
    zo_vjp,
)

from tests.conftest import random_problem

TIGHT = SolverConfig(max_iters=4000, tol=1e-14, patience=50, lr=0.3)


@pytest.fixture()
def solved(rng):
    p = replace(random_problem(rng, n=4), entropy=0.05)
    sol = solve_relaxed(p, TIGHT)
    return p, sol


class TestKKT:
    def test_vjp_consistent_with_full_jacobian(self, solved, rng):
        p, sol = solved
        gX = rng.normal(size=(p.M, p.N))
        kg = kkt_vjp(sol.X, p, gX)
        Jt, Ja = kkt_jacobians(sol.X, p)
        np.testing.assert_allclose(kg.dT, (Jt.T @ gX.ravel()).reshape(p.M, p.N), atol=1e-10)
        np.testing.assert_allclose(kg.dA, (Ja.T @ gX.ravel()).reshape(p.M, p.N), atol=1e-10)

    def test_jacobian_matches_finite_differences(self, solved):
        p, sol = solved
        Jt, Ja = kkt_jacobians(sol.X, p)
        h = 1e-4

        def resolve(T, A):
            return solve_relaxed(p.with_predictions(T, A), TIGHT, x0=sol.X).X

        T, A = np.array(p.T), np.array(p.A)
        for idx in [(0, 0), (2, 3)]:
            k = idx[0] * p.N + idx[1]
            Tp, Tm = T.copy(), T.copy()
            Tp[idx] += h
            Tm[idx] -= h
            num = (resolve(Tp, A) - resolve(Tm, A)) / (2 * h)
            ana = Jt[:, k].reshape(p.M, p.N)
            scale = max(np.abs(ana).max(), 1e-3)
            assert np.abs(num - ana).max() / scale < 0.05

    def test_jacobian_rows_sum_to_zero(self, solved):
        """Column-simplex constraint: perturbing any input cannot change a
        task's total assignment mass — each task's Jacobian block sums to 0."""
        p, sol = solved
        Jt, Ja = kkt_jacobians(sol.X, p)
        for J in (Jt, Ja):
            blocks = J.reshape(p.M, p.N, -1)
            np.testing.assert_allclose(blocks.sum(axis=0), 0.0, atol=1e-6)

    def test_shape_validation(self, solved, rng):
        p, sol = solved
        with pytest.raises(ValueError):
            kkt_vjp(sol.X[:, :2], p, rng.normal(size=(p.M, p.N)))

    def test_time_gradient_sign_sanity(self, rng):
        """Making a cluster's predicted time for a task larger must not
        *increase* that task's assignment to the cluster."""
        p = replace(random_problem(rng, n=4), entropy=0.05)
        sol = solve_relaxed(p, TIGHT)
        Jt, _ = kkt_jacobians(sol.X, p)
        for i in range(p.M):
            for j in range(p.N):
                k = i * p.N + j
                assert Jt[k, k] <= 1e-8  # d x_ij / d t_ij <= 0


class TestZeroOrder:
    def test_matches_analytic_direction(self, solved, rng):
        p, sol = solved
        gX = rng.normal(size=(p.M, p.N))
        kg = kkt_vjp(sol.X, p, gX)
        zg = zo_vjp(p, sol, 0, gX,
                    ZeroOrderConfig(samples=48, delta=0.02, warm_start_iters=400),
                    solver_config=TIGHT, rng=1)
        ref = np.concatenate([kg.dT[0], kg.dA[0]])
        est = np.concatenate([zg.dt, zg.da])
        cos = est @ ref / (np.linalg.norm(est) * np.linalg.norm(ref))
        assert cos > 0.7

    def test_works_on_nonconvex_parallel(self, rng):
        p = replace(random_problem(rng, n=4),
                    speedup=(ExponentialDecaySpeedup(),), entropy=0.02)
        sol = solve_relaxed(p, TIGHT)
        gX = rng.normal(size=(p.M, p.N))
        zg = zo_vjp(p, sol, 1, gX, ZeroOrderConfig(samples=8, delta=0.05), rng=0)
        assert np.all(np.isfinite(zg.dt)) and np.all(np.isfinite(zg.da))
        assert zg.solves > 0

    def test_validation(self, solved, rng):
        p, sol = solved
        gX = rng.normal(size=(p.M, p.N))
        with pytest.raises(ValueError):
            zo_vjp(p, sol, 99, gX)
        with pytest.raises(ValueError):
            zo_vjp(p, sol, 0, gX[:, :1])
        with pytest.raises(ValueError):
            ZeroOrderConfig(samples=0)
        with pytest.raises(ValueError):
            ZeroOrderConfig(delta=-1)

    def test_deterministic_given_rng(self, solved, rng):
        p, sol = solved
        gX = rng.normal(size=(p.M, p.N))
        z1 = zo_vjp(p, sol, 0, gX, ZeroOrderConfig(samples=4, delta=0.05), rng=7)
        z2 = zo_vjp(p, sol, 0, gX, ZeroOrderConfig(samples=4, delta=0.05), rng=7)
        np.testing.assert_allclose(z1.dt, z2.dt)
        np.testing.assert_allclose(z1.da, z2.da)
