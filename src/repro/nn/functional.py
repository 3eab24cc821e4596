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


def logsumexp_np(x: np.ndarray) -> np.ndarray:
    """Tape-free log-sum-exp of the whole array (0-d), max-shift stabilized."""
    shift = x.max(keepdims=True)
    return (np.log(np.exp(x - shift).sum(keepdims=True)) + shift).reshape(())


def sigmoid_np(z: np.ndarray, out: "np.ndarray | None" = None,
               tmp: "np.ndarray | None" = None) -> np.ndarray:
    """Logistic sigmoid in its two-branch stable form: with
    ``e = exp(−|z|)`` (``exp`` of a non-positive argument only),
    ``1 / (1 + e)`` where ``z ≥ 0`` and ``e / (1 + e)`` elsewhere — the
    same ``exp`` input, so the same bits, as gathering each branch.
    ``out`` and ``tmp`` (arrays shaped like ``z``) receive the result and
    the denominator when given, so a caller holding them allocates only
    the branch mask."""
    e = np.abs(z, out=out)
    np.exp(np.negative(e, out=e), out=e)
    den = np.add(1.0, e, out=tmp)
    np.copyto(e, 1.0, where=z >= 0)
    return np.divide(e, den, out=e)
