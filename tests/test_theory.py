"""Tests for the Theorem 1–5 numerical-verification modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.theory import (
    convex_convergence_study,
    feasibility_study,
    gradient_error_study,
    smooth_max_gap,
    sweep_beta,
    theorem1_bound,
    nonconvex_convergence_study,
)


class TestTheorem1:
    def test_gap_nonnegative_and_bounded(self, rng):
        v = rng.uniform(0, 5, size=6)
        for beta in (0.5, 5.0, 50.0):
            gap = smooth_max_gap(v, beta)
            assert 0 <= gap <= theorem1_bound(6, beta) + 1e-12

    def test_sweep_converges(self):
        sweep = sweep_beta([1.0, 5.0, 25.0, 125.0], m=3, instances=20, rng=0)
        assert sweep.holds()
        assert np.all(np.diff(sweep.empirical_gap) <= 1e-12)  # shrinking in β

    def test_input_validation(self):
        with pytest.raises(ValueError):
            smooth_max_gap(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            theorem1_bound(0, 1.0)
        with pytest.raises(ValueError):
            sweep_beta([-1.0])


class TestTheorem2:
    def test_relaxed_solutions_feasible(self):
        stats = feasibility_study([0.01], instances=10, rng=0)
        assert stats[0].relaxed_violation_rate == 0.0  # barrier keeps interior

    def test_violations_controlled_across_lam(self):
        stats = feasibility_study([0.001, 0.1], instances=10, rng=1)
        for s in stats:
            assert s.rounded_worst_violation < 0.05  # rounding repair works

    def test_lam_validation(self):
        with pytest.raises(ValueError):
            feasibility_study([0.0], instances=2)


class TestTheorem3:
    def test_error_shrinks_with_samples(self):
        pts = gradient_error_study([0.05], [2, 32], repeats=3, rng=0)
        by_s = {p.samples: p.mse for p in pts}
        assert by_s[32] <= by_s[2] * 1.5  # variance reduction (noise headroom)

    def test_direction_agreement(self):
        pts = gradient_error_study([0.03], [16], repeats=3, rng=1)
        assert pts[0].cosine > 0.5


class TestTheorems4And5:
    def test_convex_linear_convergence(self):
        res = convex_convergence_study(rng=0, iters=200)
        assert res.is_linear()
        # Gap must drop by orders of magnitude over the run.
        assert res.gaps[-1] < res.gaps[0] * 1e-2

    def test_nonconvex_stationarity_decreases(self):
        res = nonconvex_convergence_study(rng=0, checkpoints=[10, 50, 200])
        assert res.is_decreasing()
        assert res.grad_norms[-1] < res.grad_norms[0]
