"""Tests for the §4.1.3 metrics and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matching import MatchingProblem, solve_branch_and_bound
from repro.matching.rounding import assignment_from_labels
from repro.metrics import (
    MethodReport,
    MetricSample,
    aggregate,
    cluster_utilization,
    comparison_table,
    mean_assigned_reliability,
    regret,
    regret_breakdown,
)

from tests.conftest import random_problem


class TestRegret:
    def test_zero_for_perfect_predictions(self, rng):
        p = random_problem(rng)
        assert regret(p, np.array(p.T), np.array(p.A)) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_adversarial_predictions(self, rng):
        p = random_problem(rng)
        # Invert the time ordering: fastest clusters predicted slowest.
        T_hat = p.T.max() + p.T.min() - p.T
        r = regret(p, T_hat, np.array(p.A))
        assert r >= -1e-9

    def test_breakdown_consistency(self, rng):
        p = random_problem(rng)
        b = regret_breakdown(p, np.array(p.T) * 1.3, np.array(p.A))
        assert b.regret == pytest.approx((b.cost_predicted - b.cost_oracle) / p.N)
        np.testing.assert_allclose(b.X_predicted.sum(axis=0), np.ones(p.N))

    def test_scale_invariance_of_ranking(self, rng):
        """Scaling all predicted times by a constant cannot change the
        matching (argmin invariance), so regret must be unchanged."""
        p = random_problem(rng)
        T_hat = np.array(p.T) * 1.17
        r1 = regret(p, T_hat, np.array(p.A))
        r2 = regret(p, T_hat * 3.0, np.array(p.A))
        assert r1 == pytest.approx(r2, abs=1e-6)


class TestReliabilityMetric:
    def test_binary_matching_selects_entries(self, rng):
        p = random_problem(rng)
        labels = rng.integers(0, p.M, p.N)
        X = assignment_from_labels(labels, p.M)
        expected = p.A[labels, np.arange(p.N)].mean()
        assert mean_assigned_reliability(X, p.A) == pytest.approx(expected)

    def test_relaxed_matching_weighted(self, rng):
        p = random_problem(rng)
        X = p.uniform_assignment()
        assert mean_assigned_reliability(X, p.A) == pytest.approx(p.A.mean(axis=0).mean())

    def test_shape_mismatch_rejected(self, rng):
        p = random_problem(rng)
        with pytest.raises(ValueError):
            mean_assigned_reliability(p.uniform_assignment()[:, :2], p.A)


class TestUtilization:
    def test_perfectly_balanced_is_one(self):
        T = np.ones((3, 6))
        A = np.full((3, 6), 0.9)
        p = MatchingProblem(T=T, A=A, gamma=0.1)
        X = assignment_from_labels(np.array([0, 0, 1, 1, 2, 2]), 3)
        assert cluster_utilization(X, p) == pytest.approx(1.0)

    def test_single_cluster_is_one_over_m(self):
        T = np.ones((4, 5))
        A = np.full((4, 5), 0.9)
        p = MatchingProblem(T=T, A=A, gamma=0.1)
        X = np.zeros((4, 5))
        X[0] = 1.0
        assert cluster_utilization(X, p) == pytest.approx(0.25)

    def test_bounds(self, rng):
        p = random_problem(rng)
        for _ in range(10):
            X = assignment_from_labels(rng.integers(0, p.M, p.N), p.M)
            u = cluster_utilization(X, p)
            assert 1.0 / p.M - 1e-9 <= u <= 1.0 + 1e-9

    def test_oracle_utilization_high(self, rng):
        """Makespan-optimal matchings should balance load decently."""
        p = random_problem(rng, n=8)
        sol = solve_branch_and_bound(p)
        assert cluster_utilization(sol.X, p) > 0.5


class TestReporting:
    def samples(self):
        return [MetricSample(0.1, 0.9, 0.5), MetricSample(0.3, 0.8, 0.7)]

    def test_aggregate_stats(self):
        r = aggregate("TSM", self.samples())
        assert r.regret == (pytest.approx(0.2), pytest.approx(0.1))
        assert r.reliability[0] == pytest.approx(0.85)
        assert r.utilization[0] == pytest.approx(0.6)

    def test_empty_report_raises(self):
        with pytest.raises(ValueError):
            MethodReport("x").regret

    def test_comparison_table_renders(self):
        table = comparison_table({"TSM": aggregate("TSM", self.samples())}, title="T")
        text = table.render()
        assert "TSM" in text and "Regret" in text and "±" in text

    def test_as_row_format(self):
        row = aggregate("M", self.samples()).as_row()
        assert row[0] == "M"
        assert "0.200 ± 0.100" == row[1]
