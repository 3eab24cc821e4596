"""Tests for Algorithm 1 (relaxed solver), rounding, and the exact solvers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.matching import (
    ExponentialDecaySpeedup,
    MatchingProblem,
    SolverConfig,
    assignment_from_labels,
    barrier_value,
    feasible_gamma,
    labels_from_assignment,
    makespan,
    project_simplex_columns,
    reliability_value,
    round_assignment,
    solve_branch_and_bound,
    solve_bruteforce,
    solve_relaxed,
)
from repro.matching.rounding import MAX_MOVES, _local_search, _repair_reliability

from tests.conftest import random_problem


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kw", [dict(lr=0), dict(max_iters=0), dict(projection="newton")]
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)


class TestProjection:
    def test_simplex_projection_properties(self, rng):
        X = rng.normal(size=(4, 6))
        P = project_simplex_columns(X)
        assert np.all(P >= 0)
        np.testing.assert_allclose(P.sum(axis=0), np.ones(6), atol=1e-12)

    def test_simplex_projection_idempotent(self, rng):
        X = rng.random((3, 5))
        X /= X.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(project_simplex_columns(X), X, atol=1e-12)

    @settings(max_examples=40)
    @given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5, allow_nan=False)))
    def test_property_projection_is_closest_point(self, X):
        """The projection must beat any random simplex point in distance."""
        P = project_simplex_columns(X)
        rng = np.random.default_rng(0)
        for _ in range(5):
            Q = rng.random((3, 4))
            Q /= Q.sum(axis=0, keepdims=True)
            assert np.linalg.norm(P - X) <= np.linalg.norm(Q - X) + 1e-9


class TestRelaxedSolver:
    def test_decreases_objective(self, rng):
        p = random_problem(rng)
        sol = solve_relaxed(p)
        assert sol.objective <= barrier_value(p.feasible_start(), p) + 1e-12
        assert np.all(np.diff(sol.history) <= 1e-9)  # monotone for mirror

    def test_iterates_stay_feasible(self, rng):
        p = random_problem(rng, gamma_quantile=0.6)
        sol = solve_relaxed(p)
        assert p.reliability_slack(sol.X) > 0
        np.testing.assert_allclose(sol.X.sum(axis=0), np.ones(p.N), atol=1e-9)

    @pytest.mark.parametrize("projection", ["mirror", "euclidean"])
    def test_projections_agree_on_rounded_solution(self, rng, projection):
        p = random_problem(rng)
        ref = round_assignment(solve_relaxed(p).X, p)
        sol = solve_relaxed(p, SolverConfig(projection=projection, max_iters=600))
        got = round_assignment(sol.X, p)
        assert makespan(got, p) == pytest.approx(makespan(ref, p), rel=0.15)

    def test_warm_start_shape_validated(self, rng):
        p = random_problem(rng)
        with pytest.raises(ValueError):
            solve_relaxed(p, x0=np.ones((2, 2)))

    def test_off_simplex_warm_start_is_refused(self):
        # Half the interior start: reliability-feasible and cheaper than
        # the cold start, so the hedge would keep it, and every mirror step
        # from it renormalises upward and is rejected — it used to come
        # back "converged" after one iteration with columns summing to 0.75.
        rng = np.random.default_rng(0)
        p = MatchingProblem(T=rng.uniform(0.5, 3.0, (3, 6)),
                            A=rng.uniform(0.9, 0.99, (3, 6)), gamma=0.2)
        with pytest.raises(ValueError, match="column-stochastic"):
            solve_relaxed(p, SolverConfig(), x0=0.5 * p.feasible_start())
        negative = p.feasible_start()
        negative[:, 0] = [1.5, -0.25, -0.25]
        with pytest.raises(ValueError, match="column-stochastic"):
            solve_relaxed(p, x0=negative)

    def test_infeasible_warm_start_falls_back(self, rng):
        p = random_problem(rng, gamma_quantile=0.6)
        bad = p.uniform_assignment()  # may violate at q=0.6
        sol = solve_relaxed(p, x0=bad)
        assert p.reliability_slack(sol.X) > 0

    def test_parallel_objective_solvable(self, rng):
        p = replace(random_problem(rng), speedup=(ExponentialDecaySpeedup(),))
        sol = solve_relaxed(p)
        assert np.isfinite(sol.objective)

    def test_deterministic(self, rng):
        p = random_problem(rng)
        s1, s2 = solve_relaxed(p), solve_relaxed(p)
        np.testing.assert_allclose(s1.X, s2.X)


class TestRounding:
    def test_labels_roundtrip(self, rng):
        labels = rng.integers(0, 3, size=7)
        X = assignment_from_labels(labels, 3)
        np.testing.assert_array_equal(labels_from_assignment(X), labels)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            assignment_from_labels(np.array([0, 5]), 3)

    def test_round_is_binary_and_complete(self, rng):
        p = random_problem(rng)
        Xr = round_assignment(solve_relaxed(p).X, p)
        assert set(np.unique(Xr)) <= {0.0, 1.0}
        np.testing.assert_allclose(Xr.sum(axis=0), np.ones(p.N))

    def test_repair_restores_feasibility(self, rng):
        p = random_problem(rng, gamma_quantile=0.7)
        # Worst-case relaxed input: everything on the least reliable cluster.
        worst = np.argmin(p.A.mean(axis=1))
        X = np.full((p.M, p.N), 1e-3)
        X[worst] = 1.0
        X /= X.sum(axis=0, keepdims=True)
        Xr = round_assignment(X, p)
        assert reliability_value(Xr, p) >= -1e-9

    def test_local_search_never_worsens(self, rng):
        p = random_problem(rng)
        X = solve_relaxed(p).X
        X0 = assignment_from_labels(labels_from_assignment(X), p.M)
        if reliability_value(X0, p) < 0:
            X0 = _repair_reliability(X0, p, MAX_MOVES)
        X1 = round_assignment(X, p)
        assert np.array_equal(X1, _local_search(X0, p, MAX_MOVES))
        assert makespan(X1, p) <= makespan(X0, p) + 1e-12


class TestExactSolvers:
    def test_bruteforce_bnb_agree(self, rng):
        for _ in range(5):
            p = random_problem(rng, m=3, n=5)
            bf = solve_bruteforce(p)
            bb = solve_branch_and_bound(p)
            assert bf.feasible and bb.feasible
            assert bb.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_exact_beats_or_matches_rounding(self, rng):
        for _ in range(5):
            p = random_problem(rng, m=3, n=5)
            exact = solve_branch_and_bound(p)
            heur = round_assignment(solve_relaxed(p).X, p)
            if reliability_value(heur, p) >= 0:
                assert exact.objective <= makespan(heur, p) + 1e-9

    def test_bruteforce_size_guard(self, rng):
        p = random_problem(rng, m=3, n=5)
        with pytest.raises(ValueError):
            solve_bruteforce(p, max_states=10)

    def test_infeasible_instance_detected(self, rng):
        T = rng.uniform(0.5, 2.0, (3, 4))
        A = np.full((3, 4), 0.5)
        p = MatchingProblem(T=T, A=A, gamma=0.9)
        assert not solve_bruteforce(p).feasible
        assert not solve_branch_and_bound(p).feasible

    def test_bnb_respects_reliability_constraint(self, rng):
        p = random_problem(rng, gamma_quantile=0.8)
        sol = solve_branch_and_bound(p)
        if sol.feasible:
            assert reliability_value(sol.X, p) >= -1e-9

    def test_bnb_parallel_objective(self, rng):
        p = replace(random_problem(rng, n=5), speedup=(ExponentialDecaySpeedup(),))
        bb = solve_branch_and_bound(p)
        bf = solve_bruteforce(p)
        assert bb.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_node_limit_enforced(self, rng):
        p = random_problem(rng, m=3, n=10)
        with pytest.raises(RuntimeError):
            solve_branch_and_bound(p, node_limit=5)


@settings(max_examples=15)
@given(st.integers(0, 10_000))
def test_property_relax_round_within_factor_of_exact(seed):
    """End-to-end heuristic quality: relax+round stays within 2× of the
    exact optimum on random small instances (usually it is equal)."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.2, 3.0, (3, 5))
    A = rng.uniform(0.6, 0.99, (3, 5))
    p = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.3))
    exact = solve_bruteforce(p)
    heur = round_assignment(solve_relaxed(p).X, p)
    assert makespan(heur, p) <= 2.0 * exact.objective + 1e-9
