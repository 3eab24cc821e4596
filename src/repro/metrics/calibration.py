"""Predictor-quality diagnostics beyond MSE.

The paper argues MSE is the wrong target for matching; these diagnostics
quantify what each training scheme trades away.  For the time head:
relative-error percentiles and rank correlation (matching only needs the
*ordering* of clusters per task).  For the reliability head: Brier score,
expected calibration error, and the calibration curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_array

__all__ = [
    "TimeAccuracy",
    "time_accuracy",
    "ReliabilityCalibration",
    "reliability_calibration",
    "per_task_rank_accuracy",
]

#: Equal-width probability bins of the reliability calibration curve.
CALIBRATION_BINS = 10


@dataclass(frozen=True)
class TimeAccuracy:
    """Summary of a time predictor's error distribution."""

    median_relative_error: float
    p90_relative_error: float
    mean_absolute_log_error: float
    spearman: float  # rank agreement of predicted vs true times


def time_accuracy(t_pred: np.ndarray, t_true: np.ndarray) -> TimeAccuracy:
    """Error summary for positive execution-time predictions."""
    import scipy.stats  # here, not at module level: `repro.metrics` loads with serving

    t_pred = check_array(t_pred, name="t_pred")
    t_true = check_array(t_true, name="t_true")
    if t_pred.shape != t_true.shape:
        raise ValueError("prediction/truth shape mismatch")
    if np.any(t_pred <= 0) or np.any(t_true <= 0):
        raise ValueError("times must be strictly positive")
    rel = np.abs(t_pred - t_true) / t_true
    log_err = np.abs(np.log(t_pred) - np.log(t_true))
    flat_p, flat_t = t_pred.ravel(), t_true.ravel()
    if flat_p.size > 1 and np.ptp(flat_p) > 0 and np.ptp(flat_t) > 0:
        rho = float(scipy.stats.spearmanr(flat_p, flat_t).statistic)
    else:
        rho = 0.0
    return TimeAccuracy(
        median_relative_error=float(np.median(rel)),
        p90_relative_error=float(np.percentile(rel, 90)),
        mean_absolute_log_error=float(log_err.mean()),
        spearman=rho,
    )


def per_task_rank_accuracy(T_pred: np.ndarray, T_true: np.ndarray) -> float:
    """Fraction of tasks whose *fastest cluster* is correctly identified —
    the decision-relevant slice of prediction accuracy (Fig. 2's point)."""
    T_pred = check_array(T_pred, name="T_pred", ndim=2)
    T_true = check_array(T_true, name="T_true", ndim=2)
    if T_pred.shape != T_true.shape:
        raise ValueError("shape mismatch")
    return float(np.mean(T_pred.argmin(axis=0) == T_true.argmin(axis=0)))


@dataclass(frozen=True)
class ReliabilityCalibration:
    """Calibration summary of a probabilistic reliability predictor."""

    brier: float
    ece: float  # expected calibration error over equal-width bins
    bin_centers: np.ndarray
    bin_predicted: np.ndarray  # mean prediction per bin (NaN for empty bins)
    bin_observed: np.ndarray  # mean outcome per bin


def reliability_calibration(
    a_pred: np.ndarray,
    outcomes: np.ndarray,
) -> ReliabilityCalibration:
    """Brier score / ECE / calibration curve against binary outcomes, over
    ``CALIBRATION_BINS`` equal-width bins.

    ``outcomes`` are realized success indicators (0/1), e.g. from the
    discrete-event simulator; ``a_pred`` the predicted probabilities.
    """
    bins = CALIBRATION_BINS
    a_pred = check_array(a_pred, name="a_pred").ravel()
    outcomes = check_array(outcomes, name="outcomes").ravel()
    if a_pred.shape != outcomes.shape:
        raise ValueError("prediction/outcome shape mismatch")
    if np.any((a_pred < 0) | (a_pred > 1)):
        raise ValueError("predictions must lie in [0, 1]")
    if not set(np.unique(outcomes)) <= {0.0, 1.0}:
        raise ValueError("outcomes must be binary")

    brier = float(np.mean((a_pred - outcomes) ** 2))
    edges = np.linspace(0.0, 1.0, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.digitize(a_pred, edges[1:-1]), 0, bins - 1)
    pred_mean = np.full(bins, np.nan)
    obs_mean = np.full(bins, np.nan)
    ece = 0.0
    for b in range(bins):
        mask = idx == b
        if not np.any(mask):
            continue
        pred_mean[b] = a_pred[mask].mean()
        obs_mean[b] = outcomes[mask].mean()
        ece += mask.mean() * abs(pred_mean[b] - obs_mean[b])
    return ReliabilityCalibration(
        brier=brier, ece=float(ece), bin_centers=centers,
        bin_predicted=pred_mean, bin_observed=obs_mean,
    )
