"""Elementwise differentiable operations on :class:`~repro.nn.tensor.Tensor`.

Each function builds the forward value with vectorized NumPy and registers a
backward closure computing the vector-Jacobian product.  These are the
primitives the MLP layers and the smoothed matching objectives compose.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

__all__ = [
    "exp",
    "log",
    "sigmoid",
    "relu",
    "softplus",
    "clip",
]


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * out_data,)

    return Tensor._from_op(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    x_data = x.data

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g / x_data,)

    return Tensor._from_op(np.log(x_data), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = as_tensor(x)
    z = x.data
    out_data = np.empty_like(z)
    pos = z >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out_data[~pos] = ez / (1.0 + ez)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * out_data * (1.0 - out_data),)

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    x_data = x.data
    mask = (x_data > 0).astype(np.float64)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * mask,)

    return Tensor._from_op(x_data * mask, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` — smooth positive output head.

    Used by the execution-time predictor so predicted times stay strictly
    positive.  Stable form avoids overflow for large ``x``.
    """
    x = as_tensor(x)
    z = x.data
    out_data = np.logaddexp(0.0, z)
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * sig,)

    return Tensor._from_op(out_data, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi]."""
    x = as_tensor(x)
    x_data = x.data
    mask = ((x_data >= lo) & (x_data <= hi)).astype(np.float64)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * mask,)

    return Tensor._from_op(np.clip(x_data, lo, hi), (x,), backward)
