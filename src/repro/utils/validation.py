"""Argument validation helpers shared across the library.

These are small, fast checks used at public API boundaries.  Inner loops
never call them; validation happens once per call into the library, in line
with the HPC guidance of keeping hot paths branch-light.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

import numpy as np

__all__ = [
    "check_array",
    "check_matrix",
    "check_positive",
    "check_assignment_matrix",
    "check_known_keys",
    "check_choices",
    "FIELD_TYPES",
]

#: The scalar type a config field's annotation names (annotations are
#: strings under ``from __future__ import annotations``): what
#: ``from_params`` coerces a logged value with and what ``repro``'s flag
#: for the field parses.  Other annotations have no entry.
FIELD_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


def check_array(
    x: Any,
    *,
    name: str = "array",
    ndim: int | None = None,
) -> np.ndarray:
    """Coerce ``x`` to a C-contiguous float array and validate its shape.

    Raises :class:`ValueError` on NaN/inf entries — silent NaN propagation
    through the solvers produces confusing downstream failures.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
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


def check_assignment_matrix(x: Any, *, name: str = "X") -> np.ndarray:
    """Validate an M×N (relaxed) assignment matrix.

    Columns must sum to 1 (each task assigned with total mass one) and
    entries must lie in [0, 1] (to 1e-6).
    """
    arr = check_array(x, name=name, ndim=2)
    if np.any(arr < -1e-6) or np.any(arr > 1 + 1e-6):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    col_sums = arr.sum(axis=0)
    if not np.allclose(col_sums, 1.0, atol=1e-4):
        bad = np.argmax(np.abs(col_sums - 1.0))
        raise ValueError(
            f"{name} columns must sum to 1 (task {bad} has mass {col_sums[bad]:.6f})"
        )
    return arr


def check_known_keys(cls: type, params: dict, what: str) -> None:
    """Refuse a parameter dict naming a field the dataclass ``cls`` does
    not have — a run log written by another version of the code."""
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{what} params have unknown keys {unknown}")


def check_choices(config: Any) -> None:
    """Refuse a dataclass holding a value outside a field's allowed set,
    the field's ``metadata["choices"]``."""
    for f in fields(config):
        choices = f.metadata.get("choices")
        value = getattr(config, f.name)
        if choices is not None and value not in choices:
            raise ValueError(
                f"{f.name} must be one of {tuple(choices)}, got {value!r}")
