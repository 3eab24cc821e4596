"""Finite-difference and property tests for elementwise ops and the
tape-free softmax / log-sum-exp."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from repro.nn import Tensor, ops
from repro.nn.functional import logsumexp_np, softmax_np
from repro.theory import smooth_max_gap


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for k in range(x.size):
        xp, xm = x.copy().ravel(), x.copy().ravel()
        xp[k] += eps
        xm[k] -= eps
        g.ravel()[k] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * eps)
    return g


def check_grad(fn, x, rtol=1e-5, atol=1e-7):
    t = Tensor(x, requires_grad=True)
    fn(t).backward()
    num = numeric_grad(lambda v: fn(Tensor(v)).item(), x)
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


RNG = np.random.default_rng(7)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "op,domain",
        [
            (ops.exp, (-2, 2)),
            (ops.log, (0.5, 5)),
            (ops.sigmoid, (-5, 5)),
            (ops.softplus, (-5, 5)),
        ],
    )
    def test_grad_matches_fd(self, op, domain):
        x = RNG.uniform(*domain, size=(4, 3))
        check_grad(lambda t: op(t).sum(), x)

    def test_relu_grad_away_from_kink(self):
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        check_grad(lambda t: ops.relu(t).sum(), x)

    def test_clip_grad_mask(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        ops.clip(t, 0.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_sigmoid_extreme_stability(self):
        out = ops.sigmoid(Tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_softplus_extreme_stability(self):
        out = ops.softplus(Tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[1] == pytest.approx(800.0)


class TestFunctional:
    def test_softmax_normalizes(self):
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(softmax_np(x, axis=0).sum(axis=0), np.ones(4))

    def test_logsumexp_shift_stability(self):
        out = logsumexp_np(np.array([1000.0, 1000.0]))
        assert out.item() == pytest.approx(1000.0 + np.log(2))

    def test_numpy_twins_match_scipy(self):
        x = RNG.normal(size=(3, 5))
        np.testing.assert_allclose(softmax_np(x, axis=0), special.softmax(x, axis=0))
        np.testing.assert_allclose(logsumexp_np(x), special.logsumexp(x))


@settings(max_examples=25)
@given(
    arrays(np.float64, st.integers(2, 8), elements=st.floats(-20, 20, allow_nan=False)),
    st.floats(0.5, 50.0),
)
def test_property_smooth_max_theorem1(v, beta):
    """Property: max(v) <= smooth_max(v, β) <= max(v) + log(M)/β."""
    assert -1e-9 <= smooth_max_gap(v, beta) <= np.log(len(v)) / beta + 1e-9


@settings(max_examples=25)
@given(arrays(np.float64, (3, 4), elements=st.floats(-30, 30, allow_nan=False)))
def test_property_softmax_simplex(x):
    s = softmax_np(x, axis=0)
    assert np.all(s >= 0)
    np.testing.assert_allclose(s.sum(axis=0), np.ones(4), atol=1e-12)
