"""Tests for the shared utilities (RNG streams, validation, tables)."""

from __future__ import annotations

import io
import time

import numpy as np
import pytest

import repro.utils
from repro.telemetry import recording, span
from repro.utils import (
    Table,
    as_generator,
    check_array,
    check_assignment_matrix,
    check_matrix,
    check_positive,
    format_mean_std,
    render_series,
    spawn,
)


class TestRng:
    def test_as_generator_idempotent(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_from_int_deterministic(self):
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        np.testing.assert_allclose(a, b)

    def test_spawn_children_independent(self):
        parent = as_generator(1)
        c1, c2 = spawn(parent), spawn(parent)
        assert not np.allclose(c1.random(5), c2.random(5))


class TestValidation:
    def test_check_array_rejects_nan(self):
        with pytest.raises(ValueError):
            check_array(np.array([1.0, np.nan]))

    def test_check_array_ndim(self):
        with pytest.raises(ValueError):
            check_array(np.ones((2, 2)), ndim=1)

    def test_check_array_empty(self):
        with pytest.raises(ValueError):
            check_array(np.array([]))

    def test_check_matrix_shape(self):
        with pytest.raises(ValueError):
            check_matrix(np.ones((2, 3)), shape=(3, 2))

    def test_check_positive(self):
        assert check_positive(1.5) == 1.5
        with pytest.raises(ValueError):
            check_positive(0.0)
        assert check_positive(0.0, strict=False) == 0.0

    def test_check_assignment_matrix(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(check_assignment_matrix(X), X)
        with pytest.raises(ValueError):
            check_assignment_matrix(np.array([[0.5, 0.5], [0.2, 0.5]]))


class TestTables:
    def test_format_mean_std(self):
        assert format_mean_std(1.23456, 0.0321) == "1.235 ± 0.032"

    def test_table_renders_aligned(self):
        t = Table(["Method", "Regret"], title="X")
        t.add_row(["TSM", "1.0"])
        t.add_row(["MFCP-with-long-name", "2.0"])
        lines = t.render().splitlines()
        assert len({len(line) for line in lines[2:]}) == 1  # aligned rows

    def test_table_rejects_bad_row(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(["only-one"])

    def test_render_series(self):
        out = render_series("N", [1, 2], {"m": [0.1, 0.2]}, title="S")
        assert "0.100" in out and "N" in out

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("N", [1, 2], {"m": [0.1]})


class TestTiming:
    """Wall-clock timing is the telemetry span primitive's job now."""

    def test_span_measures_elapsed(self):
        with recording(mode="summary", stream=io.StringIO()):
            with span("work") as s:
                time.sleep(0.002)
        assert s.elapsed >= 0.002
        assert s.ok

    def test_span_aggregates_sections(self):
        with recording(mode="summary", stream=io.StringIO()) as rec:
            for _ in range(3):
                with span("work"):
                    time.sleep(0.001)
            agg = rec.aggregate()["spans"]["work"]
        assert agg["calls"] == 3
        assert agg["errors"] == 0
        assert agg["total_s"] >= 0.003


class TestTimerRemoved:
    """The legacy timer shim completed its deprecation cycle and is gone."""

    def test_timer_module_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.utils.timer  # noqa: F401

    def test_not_exported_from_utils(self):
        assert "Timer" not in repro.utils.__all__
        assert "timed" not in repro.utils.__all__
        assert not hasattr(repro.utils, "Timer")
        assert not hasattr(repro.utils, "timed")
