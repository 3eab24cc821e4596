"""The cluster models' loops against the per-spec formulas they replaced.

``PerfModel._hours`` and ``ReliabilityModel._probabilities`` evaluate the
ground truth in one loop per call with the per-cluster constants hoisted;
every scalar and batched reader (``execution_time(s)``, ``reliability``/
``reliabilities``, ``Cluster.true_*``, ``measure``/``measure_batch``) goes
through them.  The per-spec methods they replaced are kept here verbatim
as the oracle, and every value must equal its bytes: a reassociated
product, a hoisted factor that was not a whole sub-expression, or a
``min``/``max`` with another tie or NaN rule fails these tests.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters import (
    Cluster,
    HardwareProfile,
    Measurement,
    PerfModel,
    ReliabilityModel,
    ResponseShape,
    make_pool,
    make_setting,
    make_specialist_pool,
    truth_matrices,
)
from repro.clusters.reliability import _MAX_RELIABILITY, _MIN_RELIABILITY
from repro.utils.rng import as_generator
from repro.workloads import Family, TaskPool, sample_specs


class OraclePerf:
    """The per-spec time model as it was: ``utilization`` →
    ``execution_time``, method bodies verbatim."""

    def __init__(self, model: PerfModel) -> None:
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def utilization(self, spec):
        """Achieved fraction of the roofline ceiling for this workload."""
        batch_factor = spec.batch_size / (spec.batch_size + self.batch_half_point)
        affinity = self.hardware.affinity(spec.family)
        return min(1.0, self.base_utilization * batch_factor * affinity * 2.0)

    def attainable_flops(self, spec):
        """Roofline ceiling: min(peak compute, intensity × bandwidth), in FLOP/s."""
        peak = self.hardware.peak_tflops * 1e12
        bw_bound = spec.arithmetic_intensity * self.hardware.mem_bandwidth_gbs * 1e9
        return min(peak, bw_bound)

    def memory_pressure(self, spec):
        """Task memory demand relative to device memory (can exceed 1)."""
        return spec.memory_gb / self.hardware.memory_gb

    def base_time_hours(self, spec):
        """Roofline time before archetype distortion."""
        throughput = self.attainable_flops(spec) * self.utilization(spec)
        return spec.total_flops / (throughput * 3600.0)

    def execution_time(self, spec):
        t = self.base_time_hours(spec)
        pressure = self.memory_pressure(spec)
        if self.shape is ResponseShape.LINEAR:
            out = t
        elif self.shape is ResponseShape.MEMORY_EXP:
            out = t * math.exp(self.shape_strength * 1.0 * min(pressure, 1.0))
        elif self.shape is ResponseShape.SATURATING:
            exponent = 1.0 / (1.0 + 0.18 * self.shape_strength)
            out = t**exponent
        elif self.shape is ResponseShape.CONGESTED:
            exponent = 1.0 + 0.15 * self.shape_strength
            out = t**exponent
        else:  # pragma: no cover - exhaustive over enum
            raise ValueError(f"unknown shape {self.shape}")
        if pressure > 0.8:
            out *= 1.0 + 0.5 * (pressure - 0.8)
        return max(out, 1e-4)


class OracleRel:
    """The per-spec reliability model as it was, method body verbatim."""

    def __init__(self, model: ReliabilityModel) -> None:
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def reliability(self, spec, exec_time_hours):
        if exec_time_hours < 0:
            raise ValueError("execution time must be non-negative")
        survival = math.exp(-self.hardware.hazard_per_hour * exec_time_hours)
        pressure = spec.memory_gb / self.hardware.memory_gb
        mem_ok = math.exp(-self.memory_fail_scale * max(0.0, pressure - 0.7) * 10.0)
        a = self.hardware.base_reliability * survival * mem_ok
        return min(max(a, _MIN_RELIABILITY), _MAX_RELIABILITY)


def oracle_measure(cluster: Cluster, task, rng) -> Measurement:
    """``Cluster.measure`` as it was, on the oracle's truth."""
    rng = as_generator(rng)
    t = OraclePerf(cluster.perf).execution_time(task.spec)
    a = OracleRel(cluster.rel).reliability(task.spec, t)
    t_obs = t * float(np.exp(rng.normal(0.0, cluster.timing_noise_std)))
    successes = np.count_nonzero(rng.random(cluster.reliability_trials) < a)
    a_obs = min(max(successes / cluster.reliability_trials, 0.02), 0.995)
    return Measurement(task.task_id, cluster.cluster_id, t_obs, a_obs)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _assert_models_exact(perf: PerfModel, rel: ReliabilityModel, specs) -> None:
    oracle_perf, oracle_rel = OraclePerf(perf), OracleRel(rel)
    want_t = [oracle_perf.execution_time(s) for s in specs]
    want_a = [oracle_rel.reliability(s, t) for s, t in zip(specs, want_t)]
    times = perf.execution_times(specs)
    assert times.dtype == np.float64
    assert times.tobytes() == np.array(want_t).tobytes()
    assert rel.reliabilities(specs, times).tobytes() == np.array(want_a).tobytes()
    assert _hex(perf.execution_time(s) for s in specs) == _hex(want_t)
    assert _hex(rel.reliability(s, t) for s, t in zip(specs, want_t)) == _hex(want_a)


POOLS = {
    "setting-A": lambda: make_setting("A"),
    "setting-B": lambda: make_setting("B"),
    "setting-C": lambda: make_setting("C"),
    "pool-8": lambda: make_pool(8, rng=0),
    "pool-16": lambda: make_pool(16, rng=3),
    "pool-24": lambda: make_pool(24, rng=0),
    "specialist-24": lambda: make_specialist_pool(24),
}


@pytest.fixture(scope="module")
def tasks():
    return TaskPool(256, rng=0).tasks


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_catalog_pools_byte_equal_the_per_spec_formulas(pool, tasks):
    clusters = POOLS[pool]()
    specs = [t.spec for t in tasks]
    T_want, A_want = [], []
    for c in clusters:
        _assert_models_exact(c.perf, c.rel, specs)
        oracle_perf, oracle_rel = OraclePerf(c.perf), OracleRel(c.rel)
        want_t = [oracle_perf.execution_time(s) for s in specs]
        want_a = [oracle_rel.reliability(s, t) for s, t in zip(specs, want_t)]
        assert c.true_times(tasks).tobytes() == np.array(want_t).tobytes()
        assert c.true_reliabilities(tasks).tobytes() == np.array(want_a).tobytes()
        assert _hex(c.true_time(t) for t in tasks) == _hex(want_t)
        assert _hex(c.true_reliability(t) for t in tasks) == _hex(want_a)
        T_want.append(want_t)
        A_want.append(want_a)
    T, A = truth_matrices(clusters, tasks)
    assert T.tobytes() == np.array(T_want).tobytes()
    assert A.tobytes() == np.array(A_want).tobytes()


def _measurement_key(m: Measurement) -> tuple:
    return (m.task_id, m.cluster_id, m.time_hours.hex(), float(m.reliability).hex())


@pytest.mark.parametrize("pool", ["setting-A", "pool-8", "specialist-24"])
def test_measure_batch_draws_what_the_per_task_measure_drew(pool, tasks):
    """Same generator, same ``Measurement``s and the same generator state
    after the batch as the old per-task ``measure`` loop."""
    for c in POOLS[pool]():
        old, new, single = (np.random.default_rng(c.cluster_id) for _ in range(3))
        want = [oracle_measure(c, t, old) for t in tasks[:64]]
        got = c.measure_batch(tasks[:64], new)
        assert [_measurement_key(m) for m in got] == [_measurement_key(m) for m in want]
        assert new.bit_generator.state == old.bit_generator.state
        got_single = [c.measure(t, single) for t in tasks[:64]]
        assert [_measurement_key(m) for m in got_single] == [
            _measurement_key(m) for m in want]


def test_utilization_bounded():
    """The utilization the time model applies stays in (0, 1]."""
    pm = OraclePerf(PerfModel(hardware=HardwareProfile(
        name="test", peak_tflops=100.0, mem_bandwidth_gbs=1000.0, memory_gb=32.0)))
    for spec in sample_specs(10, rng=4):
        assert 0 < pm.utilization(spec) <= 1.0


# -- every branch, on hand-made and generated specs -------------------------- #

def _hardware(memory_gb=32.0, **kw) -> HardwareProfile:
    defaults = dict(name="probe", peak_tflops=100.0, mem_bandwidth_gbs=1000.0,
                    memory_gb=memory_gb, family_affinity={Family.CONV: 1.7})
    defaults.update(kw)
    return HardwareProfile(**defaults)


def _spec(*, batch_size=64, family=Family.MLP, arithmetic_intensity=50.0,
          total_flops=1e18, memory_gb=8.0) -> SimpleNamespace:
    """The five attributes the models read, set directly."""
    return SimpleNamespace(batch_size=batch_size, family=family,
                           arithmetic_intensity=arithmetic_intensity,
                           total_flops=total_flops, memory_gb=memory_gb)


def test_branch_grid_reaches_every_branch():
    """Each shape x each pressure band (< 0.7, 0.7-0.8, 0.8-1, > 1) x
    compute- and bandwidth-bound x clamped and free utilization, plus
    the 1e-4 floor and both reliability clamps."""
    hw = _hardware()
    specs = [
        _spec(batch_size=b, family=fam, arithmetic_intensity=ai, memory_gb=p * 32.0,
              total_flops=flops)
        for p in (0.3, 0.75, 0.9, 1.6)
        for ai in (5.0, 5e6)  # bandwidth- / compute-bound
        for b, fam in ((4, Family.MLP), (4096, Family.CONV))  # free / clamped utilization
        for flops in (1e12, 1e19)  # floor / not
    ]
    reached = set()
    for shape in ResponseShape:
        perf = PerfModel(hardware=hw, shape=shape, base_utilization=0.6, shape_strength=2.0)
        for rel in (ReliabilityModel(hardware=hw),
                    ReliabilityModel(hardware=_hardware(base_reliability=1.0,
                                                        hazard_per_hour=0.0)),
                    ReliabilityModel(hardware=_hardware(hazard_per_hour=5.0),
                                     memory_fail_scale=2.0)):
            _assert_models_exact(perf, rel, specs)
            oracle_perf, oracle_rel = OraclePerf(perf), OracleRel(rel)
            for s in specs:
                t = oracle_perf.execution_time(s)
                a = oracle_rel.reliability(s, t)
                reached.add((shape, "util-clamp", oracle_perf.utilization(s) == 1.0))
                reached.add(("bound", oracle_perf.attainable_flops(s) < hw.peak_tflops * 1e12))
                reached.add(("floor", t == 1e-4))
                reached.add(("rel", 0.05 if a == 0.05 else 0.999 if a == 0.999 else "free"))
                pressure = oracle_perf.memory_pressure(s)
                reached.add((shape, "band", sum(pressure > x for x in (0.7, 0.8, 1.0))))
    assert reached >= {(shape, "band", k) for shape in ResponseShape for k in range(4)}
    assert reached >= {(shape, "util-clamp", v) for shape in ResponseShape
                       for v in (True, False)}
    assert reached >= {("bound", True), ("bound", False), ("floor", True), ("floor", False),
                       ("rel", 0.05), ("rel", 0.999), ("rel", "free")}


@pytest.mark.parametrize("field", ["batch_size", "arithmetic_intensity", "total_flops",
                                   "memory_gb"])
def test_nan_takes_the_min_max_rule(field):
    """A NaN operand picks what ``min``/``max`` picked: the first argument
    unless the second compares smaller (larger)."""
    for shape in ResponseShape:
        hw = _hardware()
        _assert_models_exact(PerfModel(hardware=hw, shape=shape),
                             ReliabilityModel(hardware=hw),
                             [_spec(**{field: math.nan}), _spec(memory_gb=30.0)])


@settings(max_examples=300)
@given(
    shape=st.sampled_from(list(ResponseShape)),
    strength=st.floats(0.0, 3.0),
    base_util=st.floats(0.01, 1.0),
    half_point=st.floats(0.5, 256.0),
    peak=st.floats(1.0, 2000.0),
    bandwidth=st.floats(50.0, 5000.0),
    device_gb=st.floats(1.0, 256.0),
    affinity=st.floats(0.05, 3.0),
    base_rel=st.floats(0.01, 1.0),
    hazard=st.floats(0.0, 10.0),
    fail_scale=st.floats(0.0, 5.0),
    batch=st.integers(1, 8192),
    family=st.sampled_from(list(Family)),
    intensity=st.floats(1e-3, 1e7),
    flops=st.floats(1e6, 1e21),
    pressure=st.floats(0.0, 2.5),
)
def test_generated_models_byte_equal_the_per_spec_formulas(
    shape, strength, base_util, half_point, peak, bandwidth, device_gb, affinity,
    base_rel, hazard, fail_scale, batch, family, intensity, flops, pressure,
):
    hw = HardwareProfile(name="gen", peak_tflops=peak, mem_bandwidth_gbs=bandwidth,
                         memory_gb=device_gb, family_affinity={Family.CONV: affinity},
                         base_reliability=base_rel, hazard_per_hour=hazard)
    perf = PerfModel(hardware=hw, shape=shape, base_utilization=base_util,
                     batch_half_point=half_point, shape_strength=strength)
    rel = ReliabilityModel(hardware=hw, memory_fail_scale=fail_scale)
    spec = _spec(batch_size=batch, family=family, arithmetic_intensity=intensity,
                 total_flops=flops, memory_gb=pressure * device_gb)
    _assert_models_exact(perf, rel, [spec, spec])


def test_negative_time_and_length_mismatch_rejected():
    rel = ReliabilityModel(hardware=_hardware())
    specs = [_spec(), _spec()]
    with pytest.raises(ValueError, match="non-negative"):
        rel.reliability(specs[0], -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        rel.reliabilities(specs, np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="matching lengths"):
        rel.reliabilities(specs, np.array([1.0]))
