"""Loss functions for predictor training.

The two-stage baseline (TSM) minimizes MSE per Eq. (1) of the paper, for
both heads.  The predictor bank forms that loss and its gradient without a
tape (:meth:`repro.predictors.training.BankTrainer.step`); this is the
tape's version, which the per-head oracle of ``tests/test_bank_exact.py``
and the platform benchmark's ``nn`` probe build.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

__all__ = ["mse_loss"]


def mse_loss(pred: Tensor, target: "Tensor | np.ndarray") -> Tensor:
    """Mean squared error, Eq. (1): ``(1/n) ||target − pred||²``."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    diff = pred - target.detach()
    return (diff * diff).mean()
