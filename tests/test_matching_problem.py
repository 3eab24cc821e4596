"""Tests for the MatchingProblem container and γ selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.matching import (
    ExponentialDecaySpeedup,
    IdentitySpeedup,
    MatchingProblem,
    feasible_gamma,
)

from tests.conftest import random_problem


def _mats(rng, m=3, n=5):
    return rng.uniform(0.2, 3.0, (m, n)), rng.uniform(0.6, 0.99, (m, n))


class TestConstruction:
    def test_shapes_and_accessors(self, rng):
        T, A = _mats(rng)
        p = MatchingProblem(T=T, A=A, gamma=0.2)
        assert (p.M, p.N) == (3, 5)
        assert not p.is_parallel

    def test_matrices_read_only(self, rng):
        T, A = _mats(rng)
        p = MatchingProblem(T=T, A=A, gamma=0.2)
        with pytest.raises(ValueError):
            p.T[0, 0] = 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(beta=0.0),
            dict(lam=-1.0),
            dict(entropy=-0.1),
            dict(cost="quadratic"),
            dict(penalty="none"),
        ],
    )
    def test_hyperparameter_validation(self, rng, kw):
        T, A = _mats(rng)
        with pytest.raises(ValueError):
            MatchingProblem(T=T, A=A, gamma=0.2, **kw)

    def test_rejects_bad_matrices(self, rng):
        T, A = _mats(rng)
        with pytest.raises(ValueError):
            MatchingProblem(T=-T, A=A, gamma=0.2)
        with pytest.raises(ValueError):
            MatchingProblem(T=T, A=A * 2, gamma=0.2)
        with pytest.raises(ValueError):
            MatchingProblem(T=T, A=A[:, :3], gamma=0.2)

    def test_speedup_broadcast(self, rng):
        T, A = _mats(rng)
        p = MatchingProblem(T=T, A=A, gamma=0.2, speedup=(ExponentialDecaySpeedup(),))
        assert len(p.speedup) == 3
        assert p.is_parallel

    def test_identity_speedup_not_parallel(self, rng):
        T, A = _mats(rng)
        p = MatchingProblem(T=T, A=A, gamma=0.2, speedup=(IdentitySpeedup(),))
        assert not p.is_parallel

    def test_speedup_count_validation(self, rng):
        T, A = _mats(rng)
        with pytest.raises(ValueError):
            MatchingProblem(T=T, A=A, gamma=0.2,
                            speedup=(ExponentialDecaySpeedup(),) * 2)


class TestFeasibility:
    def test_uniform_assignment_columns(self, rng):
        p = random_problem(rng)
        X = p.uniform_assignment()
        np.testing.assert_allclose(X.sum(axis=0), np.ones(p.N))

    def test_feasible_start_is_strictly_feasible(self, rng):
        for q in (0.0, 0.3, 0.6, 0.9):
            p = random_problem(rng, gamma_quantile=q)
            X = p.feasible_start()
            assert p.reliability_slack(X) > 0
            np.testing.assert_allclose(X.sum(axis=0), np.ones(p.N))
            assert np.all(X > 0)

    def test_feasible_start_raises_when_unattainable(self, rng):
        T, A = _mats(rng)
        p = MatchingProblem(T=T, A=A, gamma=1.0)  # impossible threshold
        with pytest.raises(ValueError):
            p.feasible_start()

    def test_feasible_gamma_interpolates(self, rng):
        T, A = _mats(rng)
        lo = feasible_gamma(T, A, quantile=0.0)
        hi = feasible_gamma(T, A, quantile=1.0)
        mid = feasible_gamma(T, A, quantile=0.5)
        assert lo <= mid <= hi
        # feasible_gamma backs off by 1e-6 so thresholds stay attainable.
        assert lo == pytest.approx(A.mean() / 3 - 1e-6, abs=1e-9)
        assert hi == pytest.approx(A.max(axis=0).mean() / 3 - 1e-6, abs=1e-9)

    def test_feasible_gamma_validates(self, rng):
        T, A = _mats(rng)
        with pytest.raises(ValueError):
            feasible_gamma(T, A, quantile=1.5)


class TestWithPredictions:
    def test_sanitizes_inputs(self, rng):
        p = random_problem(rng)
        T_hat = np.full((3, 5), -1.0)  # invalid raw predictions
        A_hat = np.full((3, 5), 1.7)
        q = p.with_predictions(T_hat, A_hat)
        assert np.all(q.T > 0)
        assert np.all(q.A <= 1.0)

    def test_gamma_clamped_to_attainable(self, rng):
        p = random_problem(rng, gamma_quantile=0.9)
        # Predictions that underestimate reliability across the board.
        A_hat = np.full((3, 5), 0.3)
        q = p.with_predictions(np.array(p.T), A_hat)
        X = q.feasible_start()  # must not raise
        assert q.reliability_slack(X) > 0
        assert q.gamma < p.gamma

    @pytest.mark.parametrize("which,bad,raises", [
        ("T", np.nan, True), ("T", np.inf, True), ("T", -np.inf, False),  # floored
        ("A", np.nan, True), ("A", np.inf, False), ("A", -np.inf, False),  # clipped
    ])
    def test_non_finite_predictions(self, rng, which, bad, raises):
        """A diverged predictor's NaN (and a +inf time) still raise: the
        floor and the clip pass NaN through to the constructor's checks."""
        p = random_problem(rng)
        T_hat, A_hat = np.array(p.T), np.array(p.A)
        (T_hat if which == "T" else A_hat)[1, 2] = bad
        if raises:
            with pytest.raises(ValueError, match=f"^{which} contains NaN or infinite entries$"):
                p.with_predictions(T_hat, A_hat)
        else:
            q = p.with_predictions(T_hat, A_hat)
            assert np.isfinite(q.T).all() and np.isfinite(q.A).all()

    def test_gamma_untouched_when_attainable(self, rng):
        p = random_problem(rng, gamma_quantile=0.2)
        q = p.with_predictions(np.array(p.T), np.array(p.A))
        assert q.gamma == pytest.approx(p.gamma)


@settings(max_examples=30)
@given(
    arrays(np.float64, (3, 4), elements=st.floats(0.1, 5.0)),
    arrays(np.float64, (3, 4), elements=st.floats(0.5, 1.0)),
    st.floats(0.0, 0.95),
)
def test_property_feasible_start_always_interior(T, A, q):
    gamma = feasible_gamma(T, A, quantile=q)
    p = MatchingProblem(T=T, A=A, gamma=gamma)
    X = p.feasible_start()
    assert p.reliability_slack(X) > 0
    assert np.all(X > 0) and np.all(X < 1)
    np.testing.assert_allclose(X.sum(axis=0), np.ones(4), atol=1e-9)
