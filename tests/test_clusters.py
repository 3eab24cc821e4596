"""Tests for the cluster substrate: hardware, performance, reliability."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters import (
    ARCHETYPES,
    SETTINGS,
    Cluster,
    HardwareProfile,
    PerfModel,
    ReliabilityModel,
    ResponseShape,
    archetype_names,
    draw_attempt,
    make_cluster,
    make_pool,
    make_setting,
    make_specialist_pool,
)
from repro.predictors.dataset import build_datasets
from repro.workloads import Family, ModelSpec, TaskPool, sample_spec, sample_specs


def _hw(**kw):
    defaults = dict(name="test", peak_tflops=100.0, mem_bandwidth_gbs=1000.0,
                    memory_gb=32.0)
    defaults.update(kw)
    return HardwareProfile(**defaults)


class TestHardwareProfile:
    def test_affinity_default_one(self):
        hw = _hw(family_affinity={Family.CONV: 1.5})
        assert hw.affinity(Family.CONV) == 1.5
        assert hw.affinity(Family.MLP) == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(peak_tflops=0),
            dict(mem_bandwidth_gbs=-1),
            dict(memory_gb=0),
            dict(base_reliability=0.0),
            dict(base_reliability=1.5),
            dict(hazard_per_hour=-0.1),
            dict(family_affinity={Family.CONV: 0.0}),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            _hw(**bad)


class TestPerfModel:
    def test_time_positive_for_all_archetypes(self):
        specs = sample_specs(10, rng=0)
        for name in archetype_names():
            cluster = make_cluster(name, 0)
            times = cluster.perf.execution_times(specs)
            assert np.all(times > 0)
            assert np.all(np.isfinite(times))

    def test_more_work_takes_longer_linear(self):
        pm = PerfModel(hardware=_hw(), shape=ResponseShape.LINEAR)
        small = ModelSpec(Family.MLP, depth=4, width=256, batch_size=64,
                          dataset_samples=100_000)
        big = ModelSpec(Family.MLP, depth=4, width=256, batch_size=64,
                        dataset_samples=100_000, train_epochs=400)
        assert pm.execution_time(big) > pm.execution_time(small)

    def test_affinity_speeds_up(self):
        fast = PerfModel(hardware=_hw(family_affinity={Family.CONV: 2.0}))
        slow = PerfModel(hardware=_hw())
        spec = sample_spec(1, family=Family.CONV)
        assert fast.execution_time(spec) < slow.execution_time(spec)

    def test_memory_exp_penalizes_pressure(self):
        hw_small = _hw(memory_gb=8.0)
        linear = PerfModel(hardware=hw_small, shape=ResponseShape.LINEAR)
        memexp = PerfModel(hardware=hw_small, shape=ResponseShape.MEMORY_EXP)
        # A memory-hungry conv workload.
        spec = ModelSpec(Family.CONV, depth=24, width=128, batch_size=256,
                         dataset_samples=30_000, seq_length=48)
        assert spec.memory_gb > 0.5 * hw_small.memory_gb
        assert memexp.execution_time(spec) > linear.execution_time(spec)

    def test_saturating_is_sublinear_congested_superlinear(self):
        hw = _hw(memory_gb=500.0)
        base = dict(family=Family.MLP, depth=8, width=1024, batch_size=256,
                    dataset_samples=2_000_000)
        small, big = ModelSpec(**base, train_epochs=100), ModelSpec(**base, train_epochs=400)
        for shape, compare in [
            (ResponseShape.SATURATING, np.less),
            (ResponseShape.CONGESTED, np.greater),
        ]:
            pm = PerfModel(hardware=hw, shape=shape)
            ratio = pm.execution_time(big) / pm.execution_time(small)
            lin = PerfModel(hardware=hw, shape=ResponseShape.LINEAR)
            lin_ratio = lin.execution_time(big) / lin.execution_time(small)
            assert compare(ratio, lin_ratio)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfModel(hardware=_hw(), base_utilization=0.0)
        with pytest.raises(ValueError):
            PerfModel(hardware=_hw(), batch_half_point=-1)


class TestReliabilityModel:
    def test_bounds_and_monotonicity_in_time(self):
        rm = ReliabilityModel(hardware=_hw(hazard_per_hour=0.2))
        spec = sample_spec(2)
        r_short = rm.reliability(spec, 0.1)
        r_long = rm.reliability(spec, 10.0)
        assert 0.05 <= r_long < r_short <= 0.999

    def test_memory_pressure_reduces_reliability(self):
        hw = _hw(memory_gb=4.0)
        rm = ReliabilityModel(hardware=hw)
        light = ModelSpec(Family.MLP, depth=4, width=128, batch_size=16,
                          dataset_samples=10_000)
        heavy = ModelSpec(Family.CONV, depth=24, width=160, batch_size=256,
                          dataset_samples=30_000, seq_length=48)
        assert rm.reliability(heavy, 1.0) < rm.reliability(light, 1.0)

    def test_negative_time_rejected(self):
        rm = ReliabilityModel(hardware=_hw())
        with pytest.raises(ValueError):
            rm.reliability(sample_spec(0), -1.0)

    @settings(max_examples=30)
    @given(st.floats(0.0, 50.0))
    def test_property_reliability_in_range(self, hours):
        rm = ReliabilityModel(hardware=_hw())
        r = rm.reliability(sample_spec(3), hours)
        assert 0.05 <= r <= 0.999

    def test_draw_attempt_is_the_serving_loops_old_draw(self):
        """``(success, duration * fraction)`` and the generator's state
        equal the serving loop's former inline draw, bit for bit."""
        durations = np.random.default_rng(0).uniform(0.01, 9.0, 400)
        for a in (0.0, 0.3, 0.77, 0.999, 1.0):
            old, new = np.random.default_rng(5), np.random.default_rng(5)
            for duration in durations.tolist():
                success = old.random() < a
                busy = duration if success else duration * float(old.uniform(0.05, 0.95))
                ok, frac = draw_attempt(a, new)
                assert (ok, (duration * frac).hex()) == (success, busy.hex())
            assert old.random() == new.random()


class TestClusterAndRegistry:
    def test_measure_noisy_but_close(self, setting_a, task_pool):
        cluster = setting_a[0]
        task = task_pool[0]
        rng = np.random.default_rng(0)
        ms = [cluster.measure(task, rng) for _ in range(200)]
        times = np.array([m.time_hours for m in ms])
        t_true = cluster.true_time(task)
        assert abs(np.median(times) - t_true) / t_true < 0.1
        rels = np.array([m.reliability for m in ms])
        assert abs(rels.mean() - cluster.true_reliability(task)) < 0.1

    @pytest.mark.parametrize("make_clusters,digest", [
        pytest.param(lambda: make_pool(8, rng=0),
                     "df1474aa652daeaf7f7968dcfd142676938e4e66b6c6ee70c14df9e45b71d968",
                     id="make_pool(8)"),
        pytest.param(lambda: make_specialist_pool(24),
                     "ba29abffd41caec192d94abbec62170b1854b09e8cd374dbffcbf7c5741bf373",
                     id="make_specialist_pool(24)"),
    ])
    def test_build_datasets_frozen(self, make_clusters, digest):
        # Recorded when `measure` still evaluated the time model twice per
        # call: reusing the first time keeps every measurement bit-identical.
        h = hashlib.sha256()
        for ds in build_datasets(make_clusters(), TaskPool(48, rng=0).tasks, rng=1):
            h.update(str(ds.cluster_id).encode())
            for arr in (ds.Z, ds.t, ds.a):
                h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("make_clusters,pool_size,digest", [
        pytest.param(lambda: make_setting("A"), 64,
                     "f33836a7b5ac50c931344251192a6ee0c4465446097c69054739829ff9c597dd",
                     id="setting-A"),
        pytest.param(lambda: make_specialist_pool(24), 256,
                     "e224b26a2987105efbdd0e8a259b3c1ce0e51734b1c1d33334f3b1267bb6e600",
                     id="specialist-24"),
    ])
    def test_fit_context_measurements_frozen(self, make_clusters, pool_size, digest):
        """``FitContext.build``'s measured ``t`` and ``a`` at ``serve_steady``'s
        and ``serve_wide``'s set-up shapes (38 and 154 tasks), byte for byte.
        Recorded when ``measure`` counted with ``np.sum`` and clipped with
        ``np.clip``."""
        from repro.methods import FitContext, MatchSpec

        train, _ = TaskPool(pool_size, rng=0).split(0.6, rng=1)
        ctx = FitContext.build(make_clusters(), train, MatchSpec(), rng=2)
        h = hashlib.sha256()
        for ds in ctx.datasets:
            h.update(ds.t.tobytes())
            h.update(ds.a.tobytes())
        assert h.hexdigest() == digest

    def test_measured_reliability_at_a_clip_bound_is_a_float(self):
        flaky = _hw(name="flaky", base_reliability=0.5, hazard_per_hour=50.0)
        solid = _hw(name="solid", base_reliability=1.0, hazard_per_hour=0.0,
                    memory_gb=4096.0)
        task = TaskPool(4, rng=0)[0]
        rng = np.random.default_rng(0)
        for hw, bound in ((flaky, 0.02), (solid, 0.995)):
            cluster = Cluster(0, PerfModel(hardware=hw), ReliabilityModel(hardware=hw))
            clipped = [m.reliability for m in cluster.measure_batch([task] * 20, rng)
                       if m.reliability == bound]
            assert clipped and all(type(r) is float for r in clipped)

    def test_cluster_requires_shared_hardware(self):
        hw1, hw2 = _hw(name="a"), _hw(name="b")
        with pytest.raises(ValueError):
            Cluster(0, PerfModel(hardware=hw1), ReliabilityModel(hardware=hw2))

    def test_settings_exist_and_build(self):
        for name in SETTINGS:
            clusters = make_setting(name)
            assert len(clusters) == 3
            assert [c.cluster_id for c in clusters] == [0, 1, 2]

    def test_unknown_setting_and_archetype(self):
        with pytest.raises(KeyError):
            make_setting("Z")
        with pytest.raises(KeyError):
            make_cluster("bogus", 0)

    def test_make_pool_sizes(self):
        pool = make_pool(10, rng=0)
        assert len(pool) == 10
        with pytest.raises(ValueError):
            make_pool(0)

    def test_archetypes_have_distinct_profiles(self):
        names = archetype_names()
        assert len(names) == len(set(names)) >= 5
        shapes = {ARCHETYPES[n][1] for n in names}
        assert len(shapes) >= 3  # response-shape diversity (Fig. 2 motif)

    def test_batched_truth_equals_per_task_truth(self, task_pool):
        """``true_times`` / ``true_reliabilities`` share the per-task
        arithmetic: the window's T and A must equal it bit for bit, also
        where the reliability clamps at its floor or ceiling."""
        flaky = _hw(name="flaky", base_reliability=0.5, hazard_per_hour=50.0)
        solid = _hw(name="solid", base_reliability=1.0, hazard_per_hour=0.0,
                    memory_gb=4096.0)
        fleets = [make_setting(name) for name in SETTINGS]
        fleets.append(make_specialist_pool(24))
        fleets.append([Cluster(i, PerfModel(hardware=hw), ReliabilityModel(hardware=hw))
                       for i, hw in enumerate((flaky, solid))])
        tasks = task_pool.tasks
        clamped = set()
        for fleet in fleets:
            for c in fleet:
                times = c.true_times(tasks)
                rels = c.true_reliabilities(tasks)
                assert times.dtype == rels.dtype == np.float64
                assert times.tolist() == [c.true_time(t) for t in tasks]
                assert rels.tolist() == [c.true_reliability(t) for t in tasks]
                clamped.update(rels[(rels == 0.05) | (rels == 0.999)].tolist())
        assert clamped == {0.05, 0.999}

    def test_precomputed_spec_attributes_keep_the_truth_digest(self):
        """``ModelSpec`` fills ``total_flops`` / ``memory_gb`` /
        ``arithmetic_intensity`` once; the ground truth must be the bytes
        the per-read property formulas gave."""

        class PropertySpec:
            """The spec as it was: the three attributes recomputed per read."""

            def __init__(self, spec):
                self._spec = spec

            def __getattr__(self, name):
                return getattr(self._spec, name)

            @property
            def total_flops(self):
                return self.epoch_flops * self.train_epochs

            @property
            def memory_gb(self):
                param_gb = self.params * 4 * 3 / 1e9
                return param_gb + self.activation_mem_gb * self.batch_size

            @property
            def arithmetic_intensity(self):
                return self.flops_per_sample * self.batch_size / max(self.params * 4.0, 1.0)

        def digest(specs):
            h = hashlib.sha256()
            for c in make_specialist_pool(24):
                times = c.perf.execution_times(specs)
                h.update(times.tobytes())
                h.update(c.rel.reliabilities(specs, times).tobytes())
            return h.hexdigest()

        specs = [t.spec for t in TaskPool(256, rng=0).tasks]
        assert digest(specs) == digest([PropertySpec(s) for s in specs])

    def test_heterogeneity_produces_crossings(self, task_pool):
        """At least two clusters must each be the fastest for some task —
        the precondition for prediction-sensitive matching (Fig. 2)."""
        clusters = make_setting("A")
        T = np.stack([c.true_times(task_pool.tasks) for c in clusters])
        winners = set(T.argmin(axis=0).tolist())
        assert len(winners) >= 2
