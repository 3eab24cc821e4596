"""He-uniform weight initialization, shared by the predictor heads and the
tape's :class:`~repro.nn.layers.Linear`."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["he_uniform"]


def he_uniform(shape: tuple[int, int], rng: np.random.Generator | int | None) -> np.ndarray:
    """He/Kaiming uniform for ReLU networks: U(-a, a), a = sqrt(6 / fan_in)."""
    if len(shape) != 2:
        raise ValueError(f"initializers expect 2-D weight shapes, got {shape}")
    a = np.sqrt(6.0 / shape[0])
    return as_generator(rng).uniform(-a, a, size=shape)
