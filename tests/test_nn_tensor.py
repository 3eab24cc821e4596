"""Unit and property tests for the autograd Tensor core."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor, no_grad
from repro.nn.tensor import unbroadcast


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    for k in range(flat.size):
        xp, xm = x.copy().ravel(), x.copy().ravel()
        xp[k] += eps
        xm[k] -= eps
        g.ravel()[k] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * eps)
    return g


finite_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    elements=st.floats(-3, 3, allow_nan=False),
)


class TestBasics:
    def test_construction_and_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert not t.requires_grad

    def test_item_and_len(self):
        assert Tensor(3.5).item() == 3.5
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_detach_shares_data(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()


class TestArithmeticGradients:
    def check(self, fn, shape=(3, 2), seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)

        def scalar(v):
            return fn(Tensor(v)).item()

        t = Tensor(x, requires_grad=True)
        out = fn(t)
        out.backward()
        num = numeric_grad(scalar, x)
        np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-7)

    def test_add(self):
        self.check(lambda t: (t + 2.0).sum())

    def test_sub_rsub(self):
        self.check(lambda t: (5.0 - t).sum())

    def test_mul(self):
        self.check(lambda t: (t * t).sum())

    def test_div(self):
        self.check(lambda t: (1.0 / (t + 10.0)).sum())

    def test_pow(self):
        self.check(lambda t: ((t + 10.0) ** 2.5).sum())

    def test_neg(self):
        self.check(lambda t: (-t).sum())

    def test_chained(self):
        self.check(lambda t: ((t * 3 - 1) * (t + 2)).mean())

    def test_matmul_grads(self):
        rng = np.random.default_rng(1)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_val.T)
        np.testing.assert_allclose(b.grad, a_val.T @ np.ones((3, 2)))

    def test_matvec_grad(self):
        rng = np.random.default_rng(2)
        a_val = rng.normal(size=(3, 4))
        v_val = rng.normal(size=4)
        v = Tensor(v_val, requires_grad=True)
        (Tensor(a_val) @ v).sum().backward()
        np.testing.assert_allclose(v.grad, a_val.sum(axis=0))

    def test_matmul_rejects_stacked_operands(self):
        with pytest.raises(ValueError, match="1-D and 2-D"):
            Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((2, 4, 5)))
        with pytest.raises(ValueError, match="1-D and 2-D"):
            Tensor(np.ones(4)) @ Tensor(np.ones((2, 4, 5)))

    def test_broadcast_add_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_grad_accumulates_on_reuse(self):
        t = Tensor([2.0], requires_grad=True)
        (t * t + t).backward()  # d/dt (t² + t) = 2t + 1 = 5
        np.testing.assert_allclose(t.grad, [5.0])


class TestReductionsAndShape:
    def test_sum_axis_grad(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.sum(axis=0).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        t = Tensor(np.ones((2, 5)), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 5), 0.1))

    def test_max_grad_unique(self):
        t = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_max_grad_tie_splits(self):
        t = Tensor([5.0, 5.0, 3.0], requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])

    def test_max_axis(self):
        t = Tensor(np.array([[1.0, 4.0], [3.0, 2.0]]), requires_grad=True)
        t.max(axis=0).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_reshape_transpose_grad(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (t.T.reshape(6) * np.arange(6.0)).sum().backward()
        expected = np.arange(6.0).reshape(3, 2).T
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_grad(self):
        t = Tensor(np.arange(5.0), requires_grad=True)
        t[1:3].sum().backward()
        np.testing.assert_allclose(t.grad, [0, 1, 1, 0, 0])


class TestNoGrad:
    def test_no_grad_blocks_tape(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_no_grad_restores(self):
        with no_grad():
            pass
        assert (Tensor([1.0], requires_grad=True) * 2).requires_grad


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_leading_axis(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_kept_axis(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), np.full((1, 3), 2.0))


@settings(max_examples=30)
@given(finite_arrays)
def test_property_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=30)
@given(finite_arrays)
def test_property_linear_gradient_matches_coefficient(x):
    t = Tensor(x, requires_grad=True)
    (t * 3.5).sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(x, 3.5))


@settings(max_examples=20)
@given(finite_arrays)
def test_property_max_le_logsumexp(x):
    """Tape-level check that max(v) participates correctly in graphs."""
    t = Tensor(x, requires_grad=True)
    out = t.max()
    assert out.item() == pytest.approx(x.max())
