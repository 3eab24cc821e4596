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
    "sqrt",
    "sigmoid",
    "relu",
    "softplus",
    "clip",
    "maximum",
    "minimum",
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


def sqrt(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.sqrt(x.data)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * 0.5 / out_data,)

    return Tensor._from_op(out_data, (x,), backward)


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


def softplus(x: Tensor, beta: float = 1.0) -> Tensor:
    """``log(1 + exp(beta*x)) / beta`` — smooth positive output head.

    Used by the execution-time predictor so predicted times stay strictly
    positive.  Stable form avoids overflow for large ``beta*x``.
    """
    x = as_tensor(x)
    z = beta * x.data
    out_data = (np.logaddexp(0.0, z)) / beta
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


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; gradient splits equally on exact ties."""
    a, b = as_tensor(a), as_tensor(b)
    a_data, b_data = a.data, b.data
    out_data = np.maximum(a_data, b_data)
    tie = (a_data == b_data).astype(np.float64)
    wa = (a_data > b_data).astype(np.float64) + 0.5 * tie
    wb = (b_data > a_data).astype(np.float64) + 0.5 * tie

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        from repro.nn.tensor import unbroadcast

        return unbroadcast(g * wa, a.shape), unbroadcast(g * wb, b.shape)

    return Tensor._from_op(out_data, (a, b), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min (mirror of :func:`maximum`)."""
    return -maximum(-as_tensor(a), -as_tensor(b))
