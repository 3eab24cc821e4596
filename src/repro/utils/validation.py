"""Argument validation helpers shared across the library.

These are small, fast checks used at public API boundaries.  Inner loops
never call them; validation happens once per call into the library, in line
with the HPC guidance of keeping hot paths branch-light.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "check_array",
    "check_matrix",
    "check_positive",
    "check_assignment_matrix",
]


def check_array(
    x: Any,
    *,
    name: str = "array",
    ndim: int | None = None,
    dtype: type = np.float64,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous float array and validate its shape.

    Raises :class:`ValueError` on NaN/inf entries — silent NaN propagation
    through the solvers produces confusing downstream failures.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def check_matrix(
    x: Any,
    *,
    name: str = "matrix",
    shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """Validate a 2-D float matrix, optionally of an exact shape."""
    arr = check_array(x, name=name, ndim=2)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def check_positive(value: float, *, name: str = "value", strict: bool = True) -> float:
    """Validate a (strictly) positive scalar."""
    v = float(value)
    if strict and not v > 0:
        raise ValueError(f"{name} must be > 0, got {v}")
    if not strict and not v >= 0:
        raise ValueError(f"{name} must be >= 0, got {v}")
    return v


def check_assignment_matrix(
    x: Any,
    *,
    name: str = "X",
    binary: bool = False,
    atol: float = 1e-6,
) -> np.ndarray:
    """Validate an M×N (relaxed) assignment matrix.

    Columns must sum to 1 (each task assigned with total mass one) and
    entries must lie in [0, 1].  With ``binary=True`` entries must be
    exactly 0/1 within ``atol``.
    """
    arr = check_array(x, name=name, ndim=2)
    if np.any(arr < -atol) or np.any(arr > 1 + atol):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    col_sums = arr.sum(axis=0)
    if not np.allclose(col_sums, 1.0, atol=1e-4):
        bad = np.argmax(np.abs(col_sums - 1.0))
        raise ValueError(
            f"{name} columns must sum to 1 (task {bad} has mass {col_sums[bad]:.6f})"
        )
    if binary:
        rounded = np.round(arr)
        if not np.allclose(arr, rounded, atol=atol):
            raise ValueError(f"{name} must be binary")
        return rounded
    return arr
