"""Plain-NumPy softmax, log-sum-exp and sigmoid for the hot paths.

- :func:`logsumexp_np` — the Eq. (8) smoothing
  ``f̃(X,T) = (1/β) log Σ_i exp(β x_iᵀ t_i)``;
- :func:`softmax_np` — the per-task projection used by Algorithm 1;
- :func:`sigmoid_np` — the reliability head's output, shared by the tape's
  :func:`repro.nn.ops.sigmoid` and the tapeless predictor bank.

The first two use the standard max-shift trick for numerical stability;
none builds a tape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax_np", "logsumexp_np", "sigmoid_np"]


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Tape-free softmax used inside Algorithm 1's projection step."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def logsumexp_np(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Tape-free log-sum-exp with max-shift stabilization."""
    shift = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is not None:
        out = np.squeeze(out, axis=axis)
    else:
        out = out.reshape(())
    return out


def sigmoid_np(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in its two-branch stable form (``exp`` of a
    non-positive argument only)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
