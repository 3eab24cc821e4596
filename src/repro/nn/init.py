"""Weight initialization schemes for the MLP predictors."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["xavier_uniform", "he_uniform"]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) != 2:
        raise ValueError(f"initializers expect 2-D weight shapes, got {shape}")
    fan_in, fan_out = shape
    return fan_in, fan_out


def xavier_uniform(shape: tuple[int, int], rng: np.random.Generator | int | None) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a), a = sqrt(6 / (fan_in + fan_out))."""
    rng = as_generator(rng)
    fan_in, fan_out = _fans(shape)
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def he_uniform(shape: tuple[int, int], rng: np.random.Generator | int | None) -> np.ndarray:
    """He/Kaiming uniform for ReLU networks: U(-a, a), a = sqrt(6 / fan_in)."""
    rng = as_generator(rng)
    fan_in, _ = _fans(shape)
    a = np.sqrt(6.0 / fan_in)
    return rng.uniform(-a, a, size=shape)
