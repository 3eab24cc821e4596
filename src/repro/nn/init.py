"""He-uniform weight initialization of the network's weights (the
predictor heads' and :class:`~repro.nn.MLP`'s)."""

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
