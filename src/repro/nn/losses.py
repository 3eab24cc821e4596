"""Loss functions for predictor training.

The two-stage baseline (TSM) minimizes MSE per Eq. (1) of the paper, for
both heads.  MFCP replaces it with the matching-regret loss built in
:mod:`repro.methods.mfcp`, which composes tensors directly — the helper
remains useful there for warm-start pretraining.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

__all__ = ["mse_loss"]


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
