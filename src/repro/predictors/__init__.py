"""Cluster performance predictors: datasets, MLP heads (singly and stacked
into banks), training loops, ensemble uncertainty (the m_ω / m_φ stack of
paper §2.1)."""

from repro.predictors.dataset import ClusterDataset, Standardizer, build_datasets
from repro.predictors.models import (
    HeadBank,
    PredictorPair,
    ReliabilityPredictor,
    TimePredictor,
    predict_pairs,
)
from repro.predictors.training import (
    BankTrainer,
    TrainConfig,
    TrainResult,
    fit_heads,
    fit_pairs,
    train_reliability,
    train_time_mse,
)
from repro.predictors.uncertainty import EnsembleReliabilityPredictor, EnsembleTimePredictor

__all__ = [
    "ClusterDataset",
    "Standardizer",
    "build_datasets",
    "TimePredictor",
    "ReliabilityPredictor",
    "PredictorPair",
    "HeadBank",
    "predict_pairs",
    "TrainConfig",
    "TrainResult",
    "BankTrainer",
    "fit_heads",
    "fit_pairs",
    "train_time_mse",
    "train_reliability",
    "EnsembleTimePredictor",
    "EnsembleReliabilityPredictor",
]
