"""Tests for Module/Linear/MLP, losses, optimizers, init, serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Linear,
    Module,
    Parameter,
    Sequential,
    Tensor,
    clip_grad_norm,
    load_module,
    mse_loss,
    save_module,
)
from repro.nn import init as initializers


class TestLinearAndMLP:
    def test_linear_shapes(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_validates(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, 3, init="nonexistent")

    def test_mlp_output_heads(self):
        x = np.random.default_rng(0).normal(size=(10, 6))
        sig = MLP(6, (8,), 1, output="sigmoid", rng=1).predict(x)
        assert np.all((sig > 0) & (sig < 1))
        pos = MLP(6, (8,), 1, output="softplus", rng=1).predict(x)
        assert np.all(pos > 0)

    def test_mlp_rejects_unknown_options(self):
        with pytest.raises(ValueError):
            MLP(4, activation="swish")
        with pytest.raises(ValueError):
            MLP(4, output="tanh")

    def test_mlp_learns_linear_function(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(128, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 3.0]))[:, None]
        model = MLP(4, (16,), 1, rng=0)
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(600):
            opt.zero_grad()
            loss = mse_loss(model(Tensor(X)), y)
            loss.backward()
            opt.step()
        assert loss.item() < 5e-2  # y has variance ~14; this is R² > 0.996

    def test_parameter_registration(self):
        m = MLP(4, (8, 8), 1, rng=0)
        names = [n for n, _ in m.named_parameters()]
        assert len(names) == 6  # 3 Linear layers × (weight, bias)
        assert len(set(names)) == 6
        assert m.num_parameters() == 4 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1

    def test_sequential_iteration(self):
        s = Sequential(Linear(2, 2, rng=0), Linear(2, 2, rng=1))
        assert len(s) == 2
        assert len(list(s)) == 2

    def test_state_dict_roundtrip(self, tmp_path):
        m1 = MLP(4, (8,), 1, rng=0)
        m2 = MLP(4, (8,), 1, rng=99)
        x = np.ones((3, 4))
        assert not np.allclose(m1.predict(x), m2.predict(x))
        path = tmp_path / "model.npz"
        save_module(m1, path)
        load_module(m2, path)
        np.testing.assert_allclose(m1.predict(x), m2.predict(x))

    def test_load_state_dict_validates(self):
        m = MLP(4, (8,), 1, rng=0)
        with pytest.raises(KeyError):
            m.load_state_dict({"bogus": np.zeros(3)})

    def test_train_eval_modes_propagate(self):
        m = Sequential(Linear(2, 2, rng=0), MLP(2, (2,), 1, rng=1))
        m.eval()
        assert all(not mod.training for mod in m)
        m.train()
        assert all(mod.training for mod in m)

class TestLosses:
    def test_mse_zero_at_target(self):
        p = Tensor([1.0, 2.0])
        assert mse_loss(p, np.array([1.0, 2.0])).item() == 0.0

    def test_losses_backprop(self):
        t = Tensor([0.3, 0.7], requires_grad=True)
        mse_loss(t, np.array([1.0, 0.0])).backward()
        assert t.grad is not None


class TestOptimizers:
    def quad_problem(self):
        p = Parameter(np.array([5.0, -3.0]))
        return p

    def run(self, opt_factory, steps=200):
        p = self.quad_problem()
        opt = opt_factory([p])
        for _ in range(steps):
            opt.zero_grad()
            loss = (Tensor(p.data) * 0).sum()  # placeholder; grad set manually
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
            Adam(p, betas=(1.0, 0.9))

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])  # norm 5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_noop_below(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])


class TestInitializers:
    @pytest.mark.parametrize("name", ["xavier_uniform", "he_uniform"])
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
