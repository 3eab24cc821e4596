"""Tests for what ``repro.nn`` keeps — the probe-shaped ``MLP`` over the
heads' own network, Adam, init and serialization — and for the test tape's
Module/Linear/MLP, losses and gradient clip (``tests/_tape.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Adam, Parameter, load_module, save_module
from repro.nn import init as initializers
from repro.predictors import HeadBank, TimePredictor
from tests._tape import MLP, Linear, Sequential, Tensor, clip_grad_norm, mse_loss
from tests._tape import Parameter as TapeParameter
from tests.conftest import IdentityHead


class TestLinearAndMLP:
    def test_linear_shapes(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_validates(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, 0)

    def test_mlp_output_heads(self):
        """``nn.MLP``'s identity head returns the last layer's output: ReLU
        between layers, nothing after the last."""
        x = np.random.default_rng(0).normal(size=(10, 6))
        model = nn.MLP(6, (8,), 1, activation="relu", output="identity", rng=1)
        w0, b0, w1, b1 = (p.data[0] for p in model.parameters())
        h = x @ w0 + b0
        np.testing.assert_allclose(model(nn.Tensor(x)).data, (h * (h > 0)) @ w1 + b1)

    def test_mlp_rejects_unknown_options(self):
        with pytest.raises(ValueError):
            nn.MLP(4, activation="swish")
        with pytest.raises(ValueError):
            nn.MLP(4, output="tanh")

    def test_mlp_learns_linear_function(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(128, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 3.0]))[:, None]
        model = nn.MLP(4, (16,), 1, rng=0)
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(600):
            opt.zero_grad()
            loss = nn.mse_loss(model(nn.Tensor(X)), y)
            loss.backward()
            opt.step()
        assert float(loss.data) < 5e-2  # y has variance ~14; this is R² > 0.996

    def test_parameter_registration(self):
        m = MLP(4, (8, 8), 1, rng=0)
        params = list(m.parameters())
        assert len(params) == 6  # 3 Linear layers × (weight, bias)
        assert len({id(p) for p in params}) == 6
        assert [p.shape for p in params] == [(4, 8), (8,), (8, 8), (8,), (8, 1), (1,)]

    def test_sequential_iteration(self):
        s = Sequential(Linear(2, 2, rng=0), Linear(2, 2, rng=1))
        assert len(s) == 2
        assert len(list(s)) == 2

    def test_state_dict_roundtrip(self, tmp_path):
        m1 = TimePredictor(4, (8,), rng=0)
        m2 = TimePredictor(4, (8,), rng=99)
        x = np.ones((3, 4))
        assert not np.allclose(m1.predict(x), m2.predict(x))
        path = tmp_path / "model.npz"
        save_module(m1, path)
        load_module(m2, path)
        np.testing.assert_allclose(m1.predict(x), m2.predict(x))

    def test_load_state_dict_validates(self):
        m = TimePredictor(4, (8,), rng=0)
        with pytest.raises(KeyError):
            m.load_state_dict({"bogus": np.zeros(3)})


class TestLosses:
    def test_mse_zero_at_target(self):
        p = Tensor([1.0, 2.0])
        assert mse_loss(p, np.array([1.0, 2.0])).item() == 0.0
        assert float(nn.mse_loss(nn.Tensor([1.0, 2.0]), np.array([1.0, 2.0])).data) == 0.0

    def test_losses_backprop(self):
        t = Tensor([0.3, 0.7], requires_grad=True)
        mse_loss(t, np.array([1.0, 0.0])).backward()
        assert t.grad is not None


class TestOptimizers:
    def run(self, opt_factory, steps=200):
        p = Parameter(np.array([5.0, -3.0]))
        opt = opt_factory([p])
        for _ in range(steps):
            opt.zero_grad()
            p.grad = 2.0 * p.data  # ∇ of ||p||²
            opt.step()
        return p.data

    def test_adam_converges(self):
        final = self.run(lambda ps: Adam(ps, lr=0.1), steps=400)
        np.testing.assert_allclose(final, 0.0, atol=1e-4)

    def test_optimizer_validations(self):
        p = [Parameter(np.zeros(2))]
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam(p, lr=-1)
        with pytest.raises(ValueError):
            Adam([np.zeros(2), Parameter(np.zeros(2))])
        with pytest.raises(ValueError):
            Adam([np.zeros(2), np.zeros(3)])  # not views of one buffer

    def test_clip_grad_norm(self):
        p = TapeParameter(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])  # norm 5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_noop_below(self):
        p = TapeParameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])


class TestInitializers:
    @pytest.mark.parametrize("name", ["he_uniform"])
    def test_shapes_and_scale(self, name):
        fn = getattr(initializers, name)
        w = fn((100, 50), rng=0)
        assert w.shape == (100, 50)
        assert 0 < np.abs(w).mean() < 1.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            initializers.he_uniform((3,), rng=0)  # type: ignore[arg-type]

    def test_deterministic_given_seed(self):
        a = initializers.he_uniform((4, 4), rng=42)
        b = initializers.he_uniform((4, 4), rng=42)
        np.testing.assert_allclose(a, b)


# --------------------------------------------------------------------- #
# One network: the probe's calls are an identity-link bank of one head.
# --------------------------------------------------------------------- #


def test_probe_calls_are_an_identity_bank_of_one():
    """``nn.MLP`` draws a head's weights, and its forward and the probe's
    train step (MLP → reshape → ``mse_loss`` → backward → Adam) are those
    of an identity-link ``HeadBank`` of one head, bit for bit: the output,
    the loss, the weights and the Adam moments, over full and ragged
    minibatches."""
    F, hidden = 12, (32, 32)
    net = nn.MLP(F, hidden, 1, activation="relu", output="identity", rng=5)
    head = IdentityHead(F, hidden, rng=5)
    assert [p.data.tobytes() for p in net.parameters()] == [p.tobytes() for p in head.params]
    bank = HeadBank([head])
    net_opt, bank_opt = Adam(net.parameters(), lr=1e-3), Adam(bank.params, lr=1e-3)
    rng = np.random.default_rng(0)
    for n in (32, 32, 7, 32):
        x, y = rng.normal(size=(n, F)), rng.normal(size=n)
        with nn.no_grad():
            out = net(nn.Tensor(x))
        pred, saved = bank.forward(x[None])
        assert out.data.reshape(-1).tobytes() == pred[0].tobytes()

        net_opt.zero_grad()
        loss = nn.mse_loss(net(nn.Tensor(x)).reshape(-1), y)
        loss.backward()
        net_opt.step()
        # BankTrainer.step's "mse" arithmetic, on the bank of one.
        diff = pred - y
        value = np.add.reduce(diff * diff, axis=-1) * (1.0 / n)
        g = np.multiply(diff, 1.0 / n)
        bank.backward(g + g, saved, bank_opt.grads)
        bank_opt.step()
        assert loss.data.tobytes() == value[0].tobytes()
        assert net_opt.data.tobytes() == bank_opt.data.tobytes()
        assert net_opt.m.tobytes() == bank_opt.m.tobytes()
        assert net_opt.v.tobytes() == bank_opt.v.tobytes()
    assert [p.data.tobytes() for p in net.parameters()] == [p.tobytes() for p in head.params]


def test_mse_loss_backward_needs_a_network_output_of_the_targets_shape():
    net = nn.MLP(3, (4,), 1, rng=0)
    out = net(nn.Tensor(np.ones((2, 3))))
    with pytest.raises(RuntimeError):
        nn.mse_loss(nn.Tensor(out.data.reshape(-1)), np.zeros(2)).backward()
    with pytest.raises(ValueError):
        nn.mse_loss(out, np.zeros(2))  # (2, 1) against (2,)


def test_platform_nn_probe_runs_on_the_head_network():
    """The platform benchmark's traced pass times a forward and a train step
    of an ``nn.MLP`` (``probe_nn``), now the heads' own network at H = 1;
    what it calls must stay."""
    from benchmarks.platform.tracing import probe_nn

    numbers = probe_nn(12)
    for name in ("nn.forward_us", "nn.train_step_us"):
        assert np.isfinite(numbers[name]) and numbers[name] > 0, name
