"""Tests for the ζ speedup functions (paper §3.4 / §4.5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.speedup import (
    ExponentialDecaySpeedup,
    IdentitySpeedup,
    SpeedupFunction,
)


def fd(fn, k, eps=1e-6):
    return (fn.value(np.array(k + eps)) - fn.value(np.array(k - eps))) / (2 * eps)


class TestIdentity:
    def test_constant_one(self):
        z = IdentitySpeedup()
        k = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(z.value(k), 1.0)
        np.testing.assert_allclose(z.derivative(k), 0.0)

    def test_satisfies_protocol(self):
        assert isinstance(IdentitySpeedup(), SpeedupFunction)
        assert isinstance(ExponentialDecaySpeedup(), SpeedupFunction)


class TestExponentialDecay:
    def test_paper_shape_one_to_floor(self):
        """§4.5: 'an exponential decay curve from 1 to 0.6'."""
        z = ExponentialDecaySpeedup(floor=0.6, rate=0.5)
        assert z.value(np.array(1.0)) == pytest.approx(1.0, abs=0.05)
        assert z.value(np.array(50.0)) == pytest.approx(0.6, abs=0.01)

    def test_monotone_decreasing(self):
        z = ExponentialDecaySpeedup()
        ks = np.linspace(1.0, 20.0, 50)
        vals = z.value(ks)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_derivative_matches_fd(self):
        z = ExponentialDecaySpeedup()
        for k in (0.5, 1.0, 2.0, 7.3):
            assert z.derivative(np.array(k)) == pytest.approx(fd(z, k), abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialDecaySpeedup(floor=0.0)
        with pytest.raises(ValueError):
            ExponentialDecaySpeedup(rate=-1.0)
        with pytest.raises(ValueError):
            ExponentialDecaySpeedup(smoothing=0.0)

    @settings(max_examples=40)
    @given(st.floats(0.0, 100.0))
    def test_property_range(self, k):
        z = ExponentialDecaySpeedup(floor=0.6)
        v = float(z.value(np.array(k)))
        assert 0.6 - 1e-9 <= v <= 1.0 + 1e-9
