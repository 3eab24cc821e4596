"""Shared utilities: seeded RNG streams, validation, table rendering.

Timing lives in :mod:`repro.telemetry` (the ``span`` primitive); the
legacy ``repro.utils.timer`` shims were removed after a deprecation
cycle.
"""

from repro.utils.rng import as_generator, spawn
from repro.utils.tables import Table, format_mean_std, render_series
from repro.utils.validation import (
    check_array,
    check_assignment_matrix,
    check_matrix,
    check_positive,
)

__all__ = [
    "as_generator",
    "spawn",
    "Table",
    "format_mean_std",
    "render_series",
    "check_array",
    "check_assignment_matrix",
    "check_matrix",
    "check_positive",
]
