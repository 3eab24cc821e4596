"""Elementwise differentiable operations on :class:`~repro.nn.tensor.Tensor`.

Each function builds the forward value with vectorized NumPy and registers a
backward closure computing the vector-Jacobian product.  These are the
primitives the tape's layers and the per-head oracle of
``tests/test_bank_exact.py`` compose.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import sigmoid_np
from repro.nn.tensor import Tensor, as_tensor

__all__ = [
    "exp",
    "log",
    "sigmoid",
    "relu",
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
    out_data = sigmoid_np(x.data)

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


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi]."""
    x = as_tensor(x)
    x_data = x.data
    mask = ((x_data >= lo) & (x_data <= hi)).astype(np.float64)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * mask,)

    return Tensor._from_op(np.clip(x_data, lo, hi), (x,), backward)
