"""Edge-case and regression tests for the autograd engine.

These cover the seams the main test files don't: reflected operators,
fancy indexing, deep graphs, graph reuse, and numerical extremes — the
places where hand-rolled autodiff implementations typically break.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import MLP, Adam, Tensor, mse_loss, no_grad, ops
from repro.nn.functional import logsumexp_np, softmax_np


class TestReflectedOperators:
    def test_rsub(self):
        t = Tensor([2.0], requires_grad=True)
        (10.0 - t).backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [-1.0])

    def test_rtruediv(self):
        t = Tensor([2.0], requires_grad=True)
        (8.0 / t).backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [-2.0])  # -8/t²

    def test_rmatmul(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Tensor([1.0, 1.0], requires_grad=True)
        (A @ t).sum().backward()
        np.testing.assert_allclose(t.grad, A.sum(axis=0))

    def test_radd_with_array(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = np.array([1.0, 2.0, 3.0]) + t
        assert isinstance(out, Tensor)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(3))


class TestIndexingAndShapes:
    def test_fancy_index_duplicate_accumulates(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([1, 1, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 2.0, 1.0, 0.0])

    def test_boolean_mask(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        t[mask].sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 0.0, 1.0, 0.0])

    def test_reshape_minus_one(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t.reshape(-1).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_ravel(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        assert t.ravel().shape == (4,)


class TestGraphStructure:
    def test_diamond_graph_gradient(self):
        """x feeds two paths that merge: gradients must sum once, exactly."""
        x = Tensor([3.0], requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        (a * b).backward(np.array([1.0]))
        # d/dx [2x(x+1)] = 4x + 2 = 14
        np.testing.assert_allclose(x.grad, [14.0])

    def test_deep_chain_no_recursion_error(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out * 1.0001
        out.backward(np.array([1.0]))
        assert t.grad is not None

    def test_detach_blocks_gradient(self):
        t = Tensor([2.0], requires_grad=True)
        out = t.detach() * 3.0
        assert not out.requires_grad

    def test_second_backward_accumulates(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).backward(np.array([1.0]))
        (t * 2).backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [4.0])

    def test_zero_grad_resets(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).backward(np.array([1.0]))
        t.zero_grad()
        assert t.grad is None


class TestNumericalExtremes:
    def test_softmax_with_huge_logits(self):
        out = softmax_np(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0)

    def test_logsumexp_negative_infinity_like(self):
        out = logsumexp_np(np.array([-1e6, -1e6]))
        assert np.isfinite(out.item())

    def test_exp_overflow_protected_in_predictor_path(self):
        from repro.predictors import TimePredictor

        tp = TimePredictor(4, (8,), rng=0)
        wild = np.full((2, 4), 1e6)
        out = tp.predict(wild)
        assert np.all(np.isfinite(out))


class TestTrainingLoopHygiene:
    def test_no_grad_inference_does_not_grow_tape(self):
        model = MLP(4, (8,), 1, rng=0)
        x = np.ones((2, 4))
        with no_grad():
            out = model(Tensor(x))
        assert out._parents == ()

    def test_optimizer_ignores_gradless_params(self):
        model = MLP(4, (8,), 1, rng=0)
        opt = Adam(model.parameters(), lr=1e-3)
        opt.step()  # no backward happened; must be a no-op, not a crash
        loss = mse_loss(model(Tensor(np.ones((2, 4)))), np.zeros((2, 1)))
        loss.backward()
        opt.step()

    def test_params_update_only_after_step(self):
        model = MLP(4, (8,), 1, rng=0)
        before = model.state_dict()
        loss = mse_loss(model(Tensor(np.ones((2, 4)))), np.zeros((2, 1)))
        loss.backward()
        for name, arr in model.state_dict().items():
            np.testing.assert_allclose(arr, before[name])
