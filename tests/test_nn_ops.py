"""Finite-difference and property tests: the test tape's elementwise ops
(``tests/_tape.py``), the network's VJP under each head link, and the
tape-free softmax / log-sum-exp."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from repro import nn
from repro.nn.functional import logsumexp_np, softmax_np
from repro.predictors import HeadBank, ReliabilityPredictor, TimePredictor
from repro.theory import smooth_max_gap
from tests import _tape as ops
from tests._tape import Tensor
from tests.conftest import IdentityHead


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


class TestNetworkVJP:
    """Central finite differences of the network that remains: a bank's
    :meth:`~repro.predictors.HeadBank.backward` (each link's pullback, then
    ``repro.nn.network.backward``) against ``Σ c ⊙ predictions``, per head
    link, on a full minibatch and on a ragged tail (fewer rows, run on
    leading views of the workspace the full one sized).  Biases are drawn
    nonzero: with the initial zeros, a row that no unit of a layer passes
    reaches the next layer exactly at the ReLU kink, where the one-sided
    difference is not the gradient."""

    @staticmethod
    def _fd(bank, X, c, eps=1e-6):
        flat, grad = bank.data, np.zeros_like(bank.data)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + eps
            up = float((bank.forward(X)[0] * c).sum())
            flat[k] = keep - eps
            down = float((bank.forward(X)[0] * c).sum())
            flat[k] = keep
            grad[k] = (up - down) / (2 * eps)
        return grad

    @pytest.mark.parametrize("kind", [TimePredictor, ReliabilityPredictor, IdentityHead])
    def test_bank_vjp_matches_fd(self, kind):
        rng = np.random.default_rng(11)
        heads = [kind(3, (5, 4), rng=h) for h in range(2)]
        for head in heads:
            for bias in head.params[1::2]:
                bias[...] = rng.normal(size=bias.shape)
        bank = HeadBank(heads)
        for n in (8, 3):  # a full minibatch, then a ragged tail
            X = rng.normal(size=(2, n, 3))
            c = rng.normal(size=(2, n))
            pred, saved = bank.forward(X)
            if kind is TimePredictor:  # interior points: the clamp is not hit
                assert np.abs(np.log(pred)).max() < 7.0
            grads = [np.empty_like(p) for p in bank.params]
            bank.backward(c, saved, grads)
            got = np.concatenate([g.ravel() for g in grads])
            np.testing.assert_allclose(got, self._fd(bank, X, c), rtol=1e-5, atol=1e-7)

    def test_probe_mlp_vjp_matches_fd(self):
        """``nn.MLP`` → ``mse_loss`` → ``backward``: the identity link."""
        rng = np.random.default_rng(12)
        net = nn.MLP(3, (5, 4), 1, rng=0)
        for bias in list(net.parameters())[1::2]:
            bias.data[...] = rng.normal(size=bias.data.shape)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=6)
        nn.mse_loss(net(nn.Tensor(x)).reshape(-1), y).backward()
        for p in net.parameters():
            num = np.zeros_like(p.data)
            for k in range(p.data.size):
                keep = p.data.flat[k]
                values = []
                for step in (1e-6, -1e-6):
                    p.data.flat[k] = keep + step
                    with nn.no_grad():
                        values.append(float(nn.mse_loss(net(nn.Tensor(x)).reshape(-1), y).data))
                p.data.flat[k] = keep
                num.flat[k] = (values[0] - values[1]) / 2e-6
            np.testing.assert_allclose(p.grad, num, rtol=1e-5, atol=1e-7)


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
