"""Tests for datasets, predictor heads, training loops, and ensembles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.predictors import (
    ClusterDataset,
    EnsembleReliabilityPredictor,
    EnsembleTimePredictor,
    PredictorPair,
    ReliabilityPredictor,
    Standardizer,
    TimePredictor,
    TrainConfig,
    build_datasets,
    fit_heads,
    train_reliability,
    train_time_mse,
)
from repro.nn import Tensor


@pytest.fixture(scope="module")
def measured(task_pool_module, setting_a_module):
    train = task_pool_module.tasks[:16]
    return build_datasets(setting_a_module, train, rng=0), train


@pytest.fixture(scope="module")
def task_pool_module():
    from repro.workloads import TaskPool

    return TaskPool(24, rng=123)


@pytest.fixture(scope="module")
def setting_a_module():
    from repro.clusters import make_setting

    return make_setting("A")


class TestStandardizer:
    def test_fit_transform_stats(self, rng):
        Z = rng.normal(3.0, 2.0, size=(100, 4))
        std = Standardizer.fit(Z)
        Zt = std.transform(Z)
        np.testing.assert_allclose(Zt.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Zt.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_not_divided_by_zero(self):
        Z = np.ones((10, 2))
        std = Standardizer.fit(Z)
        assert np.all(np.isfinite(std.transform(Z)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            Standardizer.fit(np.ones(5))


class TestClusterDataset:
    def test_build_datasets_shapes(self, measured):
        datasets, train = measured
        assert len(datasets) == 3
        for ds in datasets:
            assert len(ds) == len(train)
            assert np.all(ds.t > 0)
            assert np.all((ds.a >= 0) & (ds.a <= 1))

    def test_validation(self, rng):
        Z = rng.normal(size=(4, 3))
        with pytest.raises(ValueError):
            ClusterDataset(0, Z, np.ones(3), np.full(4, 0.5))
        with pytest.raises(ValueError):
            ClusterDataset(0, Z, -np.ones(4), np.full(4, 0.5))
        with pytest.raises(ValueError):
            ClusterDataset(0, Z, np.ones(4), np.full(4, 1.5))

    def test_build_datasets_validates_inputs(self, setting_a_module):
        with pytest.raises(ValueError):
            build_datasets([], [], rng=0)

    def test_measurement_noise_is_multiplicative(self, measured, setting_a_module):
        """Measured times should be within a small relative band of truth."""
        datasets, train = measured
        for cluster, ds in zip(setting_a_module, datasets):
            truth = cluster.true_times(train)
            rel = np.abs(ds.t - truth) / truth
            assert np.median(rel) < 0.3


class TestPredictorHeads:
    def test_time_predictor_positive(self, rng):
        tp = TimePredictor(6, (8,), rng=0)
        out = tp.predict(rng.normal(size=(5, 6)))
        assert out.shape == (5,)
        assert np.all(out > 0)

    def test_reliability_predictor_in_unit_interval(self, rng):
        rp = ReliabilityPredictor(6, (8,), rng=0)
        out = rp.predict(rng.normal(size=(5, 6)))
        assert np.all((out > 0) & (out < 1))

    def test_forward_returns_differentiable_tensor(self, rng):
        tp = TimePredictor(4, (8,), rng=0)
        out = tp.forward(rng.normal(size=(3, 4)))
        assert isinstance(out, Tensor)
        assert out.requires_grad
        out.backward(np.ones(3))
        assert any(p.grad is not None for p in tp.parameters())

    def test_forward_rejects_tensor_input(self, rng):
        tp = TimePredictor(4, rng=0)
        with pytest.raises(TypeError):
            tp.forward(Tensor(np.ones((2, 4))))

    def test_standardizer_applied(self, rng):
        Z = rng.normal(100.0, 50.0, size=(30, 4))  # wild scale
        std = Standardizer.fit(Z)
        tp = TimePredictor(4, standardizer=std, rng=0)
        out = tp.predict(Z)
        assert np.all(np.isfinite(out))
        assert out.max() < 1e4  # clip keeps untrained outputs sane

    def test_pair_predict_shapes(self, rng):
        pair = PredictorPair(5, (8,), rng=0)
        t, a = pair.predict(rng.normal(size=(7, 5)))
        assert t.shape == a.shape == (7,)


class TestTraining:
    def test_time_training_reduces_loss(self, measured):
        datasets, _ = measured
        ds = datasets[0]
        std = Standardizer.fit(ds.Z)
        tp = TimePredictor(ds.Z.shape[1], (16,), standardizer=std, rng=1)
        res = train_time_mse(tp, ds.Z, ds.t, TrainConfig(epochs=120), rng=2)
        assert res.history[-1] < res.history[0]
        assert res.final_loss < 0.5

    def test_reliability_training_reduces_loss(self, measured):
        datasets, _ = measured
        ds = datasets[1]
        std = Standardizer.fit(ds.Z)
        rp = ReliabilityPredictor(ds.Z.shape[1], (16,), standardizer=std, rng=1)
        res = train_reliability(rp, ds.Z, ds.a, TrainConfig(epochs=80), rng=2)
        assert res.history[-1] <= res.history[0]

    def test_unknown_loss_rejected(self, measured):
        datasets, _ = measured
        rp = ReliabilityPredictor(datasets[0].Z.shape[1], rng=0)
        with pytest.raises(ValueError):
            fit_heads([rp], [datasets[0].Z], [datasets[0].a], None, [0], loss="hinge")

    def test_length_mismatch_rejected(self, rng):
        tp = TimePredictor(4, rng=0)
        with pytest.raises(ValueError):
            train_time_mse(tp, rng.normal(size=(5, 4)), np.ones(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-1)

    def test_training_deterministic_given_seeds(self, measured):
        datasets, _ = measured
        ds = datasets[0]

        def run():
            tp = TimePredictor(ds.Z.shape[1], (8,), rng=5)
            train_time_mse(tp, ds.Z, ds.t, TrainConfig(epochs=30), rng=6)
            return tp.predict(ds.Z)

        np.testing.assert_allclose(run(), run())


class TestEnsembles:
    def test_time_ensemble_mean_and_std(self, measured):
        datasets, _ = measured
        ds = datasets[0]
        ens = EnsembleTimePredictor.fit(
            ds.Z, ds.t, k=3, config=TrainConfig(epochs=40), rng=0
        )
        mean, std = ens.predict_with_std(ds.Z)
        assert mean.shape == std.shape == (len(ds),)
        assert np.all(mean > 0)
        assert np.all(std >= 0)
        assert std.max() > 0  # members must disagree somewhere

    def test_reliability_ensemble(self, measured):
        datasets, _ = measured
        ds = datasets[2]
        ens = EnsembleReliabilityPredictor.fit(
            ds.Z, ds.a, k=3, config=TrainConfig(epochs=40), rng=0
        )
        mean, std = ens.predict_with_std(ds.Z)
        assert np.all((mean > 0) & (mean < 1))

    def test_k_validation(self, measured):
        datasets, _ = measured
        ds = datasets[0]
        with pytest.raises(ValueError):
            EnsembleTimePredictor.fit(ds.Z, ds.t, k=0)
