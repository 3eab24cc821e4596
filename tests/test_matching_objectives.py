"""Finite-difference verification of every matching objective/gradient,
covering all cost/penalty/speedup/entropy variants."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.matching import (
    ExponentialDecaySpeedup,
    barrier_gradient,
    barrier_second_derivatives,
    barrier_value,
    cluster_loads,
    linear_cost,
    makespan,
    reliability_value,
    smooth_makespan,
)
from repro.matching.objectives import decision_cost, smooth_cost

from tests.conftest import random_problem


def interior_point(problem, rng):
    X = problem.feasible_start() + 0.02 * rng.random((problem.M, problem.N))
    return X / X.sum(axis=0, keepdims=True)


def fd_gradient(problem, X, eps=1e-7):
    g = np.zeros_like(X)
    for i in range(problem.M):
        for j in range(problem.N):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += eps
            Xm[i, j] -= eps
            g[i, j] = (barrier_value(Xp, problem) - barrier_value(Xm, problem)) / (2 * eps)
    return g


class TestValues:
    def test_makespan_is_max_load(self, rng):
        p = random_problem(rng)
        X = p.uniform_assignment()
        np.testing.assert_allclose(makespan(X, p), cluster_loads(X, p).max())

    def test_linear_cost_is_sum(self, rng):
        p = random_problem(rng)
        X = p.uniform_assignment()
        np.testing.assert_allclose(linear_cost(X, p), cluster_loads(X, p).sum())

    def test_smooth_makespan_bounds(self, rng):
        p = random_problem(rng)
        X = interior_point(p, rng)
        hard, smooth = makespan(X, p), smooth_makespan(X, p)
        assert hard <= smooth <= hard + np.log(p.M) / p.beta + 1e-12

    def test_smooth_makespan_converges_in_beta(self, rng):
        p = random_problem(rng)
        X = interior_point(p, rng)
        gaps = [
            smooth_makespan(X, replace(p, beta=b)) - makespan(X, p) for b in (1, 10, 100)
        ]
        assert gaps[0] > gaps[1] > gaps[2] >= 0

    def test_barrier_value_infinite_when_infeasible(self, rng):
        p = random_problem(rng, gamma_quantile=0.9)
        X = p.uniform_assignment()  # typically infeasible at q=0.9
        if p.reliability_slack(X) <= 0:
            assert barrier_value(X, p) == np.inf

    def test_hinge_penalty_finite_when_infeasible(self, rng):
        p = replace(random_problem(rng, gamma_quantile=0.9), penalty="hinge")
        X = p.uniform_assignment()
        assert np.isfinite(barrier_value(X, p))
        assert barrier_value(X, p) >= smooth_cost(X, p)  # the hinge term is non-negative

    def test_decision_cost_dispatch(self, rng):
        p = random_problem(rng)
        X = p.uniform_assignment()
        assert decision_cost(X, p) == makespan(X, p)
        assert decision_cost(X, replace(p, cost="linear")) == linear_cost(X, p)

    def test_parallel_loads_shrink_with_zeta(self, rng):
        p = random_problem(rng)
        pz = replace(p, speedup=(ExponentialDecaySpeedup(floor=0.6),))
        X = np.zeros((p.M, p.N))
        X[0] = 1.0  # all tasks on cluster 0: k=N > 1 → ζ < 1
        assert makespan(X, pz) < makespan(X, p)


@pytest.mark.parametrize("cost", ["makespan", "linear"])
@pytest.mark.parametrize("penalty", ["log_barrier", "hinge"])
@pytest.mark.parametrize("entropy", [0.0, 0.05])
class TestGradientAllVariants:
    def test_gradient_matches_fd(self, rng, cost, penalty, entropy):
        p = replace(random_problem(rng), cost=cost, penalty=penalty, entropy=entropy)
        X = interior_point(p, rng)
        np.testing.assert_allclose(
            barrier_gradient(X, p), fd_gradient(p, X), rtol=1e-4, atol=1e-6
        )


class TestGradientSpecialCases:
    def test_parallel_gradient_matches_fd(self, rng):
        p = replace(
            random_problem(rng), speedup=(ExponentialDecaySpeedup(),), entropy=0.01
        )
        X = interior_point(p, rng)
        np.testing.assert_allclose(
            barrier_gradient(X, p), fd_gradient(p, X), rtol=1e-4, atol=1e-6
        )

    def test_gradient_raises_outside_barrier_domain(self, rng):
        p = random_problem(rng, gamma_quantile=0.9)
        X = p.uniform_assignment()
        if p.reliability_slack(X) <= 0:
            with pytest.raises(ValueError):
                barrier_gradient(X, p)

    def test_hinge_gradient_zero_when_satisfied(self, rng):
        """The vanishing-gradient pathology Table 1 probes: when the hinge
        constraint is satisfied, ∇F carries no reliability information."""
        p = replace(random_problem(rng, gamma_quantile=0.0), penalty="hinge")
        X = p.feasible_start()
        g = barrier_gradient(X, p)
        g_time_only = barrier_gradient(X, replace(p, lam=1e-12))
        np.testing.assert_allclose(g, g_time_only, atol=1e-9)


class TestSecondDerivatives:
    def fd_second(self, p, X, wrt, eps=1e-6):
        P = p.M * p.N
        out = np.zeros((P, P))
        base = np.array(p.T if wrt == "T" else p.A)
        for k in range(P):
            up, dn = base.ravel().copy(), base.ravel().copy()
            up[k] += eps
            dn[k] -= eps
            if wrt == "T":
                p1 = replace(p, T=up.reshape(p.M, p.N))
                p2 = replace(p, T=dn.reshape(p.M, p.N))
            else:
                p1 = replace(p, A=up.reshape(p.M, p.N))
                p2 = replace(p, A=dn.reshape(p.M, p.N))
            out[:, k] = (barrier_gradient(X, p1) - barrier_gradient(X, p2)).ravel() / (2 * eps)
        return out

    def fd_hessian(self, p, X, eps=1e-6):
        P = p.M * p.N
        out = np.zeros((P, P))
        for k in range(P):
            Xp, Xm = X.ravel().copy(), X.ravel().copy()
            Xp[k] += eps
            Xm[k] -= eps
            out[:, k] = (
                barrier_gradient(Xp.reshape(p.M, p.N), p)
                - barrier_gradient(Xm.reshape(p.M, p.N), p)
            ).ravel() / (2 * eps)
        return out

    @pytest.mark.parametrize("cost", ["makespan", "linear"])
    def test_blocks_match_fd(self, rng, cost):
        p = replace(random_problem(rng, n=4), cost=cost, entropy=0.05)
        X = interior_point(p, rng)
        d = barrier_second_derivatives(X, p)
        np.testing.assert_allclose(d.H, self.fd_hessian(p, X), rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(d.C_T, self.fd_second(p, X, "T"), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(d.C_A, self.fd_second(p, X, "A"), rtol=1e-4, atol=1e-5)

    def test_hessian_psd_on_simplex_tangent(self, rng):
        """H restricted to the feasible directions must be PSD (convexity)."""
        p = replace(random_problem(rng, n=4), entropy=0.05)
        X = interior_point(p, rng)
        H = barrier_second_derivatives(X, p).H
        # Random directions with zero column sums (tangent to constraints).
        for _ in range(20):
            D = rng.normal(size=(p.M, p.N))
            D -= D.mean(axis=0, keepdims=True)
            v = D.ravel()
            assert v @ H @ v >= -1e-8

    def test_parallel_rejected(self, rng):
        p = replace(random_problem(rng), speedup=(ExponentialDecaySpeedup(),))
        with pytest.raises(ValueError):
            barrier_second_derivatives(p.uniform_assignment(), p)
