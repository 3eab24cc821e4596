"""Hypothesis property tests on end-to-end pipeline invariants.

These run the actual deployment pipeline (relax → round → repair) against
randomly generated instances and assert the contracts the experiment
harness relies on — the closest thing to fuzzing the optimization stack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    MatchingProblem,
    assignment_from_labels,
    feasible_gamma,
    labels_from_assignment,
    makespan,
    reliability_value,
    solve_branch_and_bound,
    solve_relaxed,
    round_assignment,
)
from repro.matching.rounding import MAX_MOVES, _local_search, _repair_reliability
from repro.metrics import cluster_utilization, mean_assigned_reliability
from repro.metrics.regret import deployment_matching


def instance(seed: int, m: int = 3, n: int = 5, q: float = 0.4) -> MatchingProblem:
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.1, 4.0, (m, n))
    A = rng.uniform(0.55, 0.999, (m, n))
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=q))


@settings(max_examples=25)
@given(st.integers(0, 100_000))
def test_deployment_produces_valid_feasible_matching(seed):
    p = instance(seed)
    X = deployment_matching(p)
    assert set(np.unique(X)) <= {0.0, 1.0}
    np.testing.assert_allclose(X.sum(axis=0), np.ones(p.N))
    # The greedy repair guarantees feasibility whenever any feasible binary
    # matching exists — which holds by construction of feasible_gamma.
    assert reliability_value(X, p) >= -1e-9


@settings(max_examples=25)
@given(st.integers(0, 100_000))
def test_exact_oracle_lower_bounds_deployment(seed):
    p = instance(seed)
    X = deployment_matching(p)
    exact = solve_branch_and_bound(p)
    assert exact.feasible
    assert makespan(X, p) >= exact.objective - 1e-9


@settings(max_examples=25)
@given(st.integers(0, 100_000))
def test_metrics_in_range_for_any_deployment(seed):
    p = instance(seed)
    X = deployment_matching(p)
    u = cluster_utilization(X, p)
    r = mean_assigned_reliability(X, p.A)
    assert 1.0 / p.M - 1e-9 <= u <= 1.0 + 1e-9
    assert 0.0 <= r <= 1.0


@settings(max_examples=15)
@given(st.integers(0, 100_000), st.floats(0.0, 0.8))
def test_gamma_monotonicity_of_assigned_reliability(seed, q_hi):
    """Raising γ cannot decrease the relaxed solution's constraint value."""
    p_lo = instance(seed, q=0.0)
    p_hi = instance(seed, q=q_hi)  # same matrices (same seed), higher γ
    X_lo = solve_relaxed(p_lo).X
    X_hi = solve_relaxed(p_hi).X
    val_lo = float(np.sum(X_lo * p_lo.A))
    val_hi = float(np.sum(X_hi * p_hi.A))
    assert val_hi >= val_lo - 5e-2  # soft monotonicity (barrier weighting)


@settings(max_examples=20)
@given(st.integers(0, 100_000))
def test_deployment_deterministic(seed):
    p = instance(seed)
    X1 = deployment_matching(p)
    X2 = deployment_matching(p)
    np.testing.assert_array_equal(X1, X2)


@settings(max_examples=20)
@given(st.integers(0, 100_000), st.floats(1.1, 5.0))
def test_uniform_time_scaling_invariance(seed, scale):
    """Scaling all times by a constant scales the makespan and preserves
    the (rounded) decision up to ties — a core sanity of the pipeline."""
    p = instance(seed)
    X1 = deployment_matching(p)
    p2 = MatchingProblem(T=np.array(p.T) * scale, A=np.array(p.A),
                         gamma=p.gamma, beta=p.beta / scale, lam=p.lam * scale)
    X2 = deployment_matching(p2)
    # Costs scale even if tie-broken assignments differ.
    assert makespan(X2, p2) == pytest.approx(scale * makespan(X1, p), rel=0.25)


@settings(max_examples=20)
@given(st.integers(0, 100_000))
def test_rounding_never_leaves_simplex(seed):
    p = instance(seed)
    sol = solve_relaxed(p)
    X = assignment_from_labels(labels_from_assignment(sol.X), p.M)
    for stage in (_repair_reliability, _local_search):  # each alone, then the pipeline
        np.testing.assert_allclose(stage(X, p, MAX_MOVES).sum(axis=0), np.ones(p.N))
    np.testing.assert_allclose(round_assignment(sol.X, p).sum(axis=0), np.ones(p.N))
