"""Loss functions for predictor training.

The two-stage baseline (TSM) minimizes MSE per Eq. (1) of the paper;
the reliability head uses BCE as a better-calibrated alternative that we
expose alongside.  MFCP replaces these with the matching-regret loss built
in :mod:`repro.methods.mfcp`, which composes tensors directly — these
helpers remain useful there for warm-start pretraining.
"""

from __future__ import annotations

import numpy as np

from repro.nn import ops
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["mse_loss", "bce_loss"]


def mse_loss(
    pred: Tensor, target: "Tensor | np.ndarray", axis: int | None = None
) -> Tensor:
    """Mean squared error, Eq. (1): ``(1/n) ||target − pred||²``.

    ``axis=-1`` on stacked ``(H, n)`` predictions gives one loss per row
    (the :class:`~repro.predictors.models.HeadBank` training step).
    """
    pred = as_tensor(pred)
    target = as_tensor(target)
    diff = pred - target.detach()
    return (diff * diff).mean(axis=axis)


def bce_loss(
    pred: Tensor, target: "Tensor | np.ndarray", eps: float = 1e-7,
    axis: int | None = None,
) -> Tensor:
    """Binary cross-entropy on probabilities in (0, 1).

    Predictions are clipped to ``[eps, 1-eps]`` for numerical safety; the
    clip has zero gradient only at saturated predictions, which is the
    desired behaviour.  ``axis`` as in :func:`mse_loss`.
    """
    pred = as_tensor(pred)
    target = as_tensor(target).detach()
    p = ops.clip(pred, eps, 1.0 - eps)
    t = target.data
    return -(ops.log(p) * t + ops.log(1.0 - p) * (1.0 - t)).mean(axis=axis)
