"""Plain-NumPy softmax and log-sum-exp for the solver hot paths.

- :func:`logsumexp_np` — the Eq. (8) smoothing
  ``f̃(X,T) = (1/β) log Σ_i exp(β x_iᵀ t_i)``;
- :func:`softmax_np` — the per-task projection used by Algorithm 1.

Both use the standard max-shift trick for numerical stability and build
no tape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax_np", "logsumexp_np"]


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
