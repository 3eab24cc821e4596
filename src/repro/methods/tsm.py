"""Two-Stage Method (TSM) baseline (paper §4.1.2, citing Yang et al. [39]).

"Independently trains cluster performance predictors by minimizing MSE
loss, then solves problem (2) using predicted values" — the canonical
predict-then-optimize pipeline MFCP is measured against.
"""

from __future__ import annotations

import numpy as np

from repro.methods.base import HIDDEN, BaseMethod, FitContext
from repro.predictors.models import PredictorPair, predict_pairs
from repro.predictors.training import TrainConfig, fit_pairs
from repro.workloads.taskpool import Task

__all__ = ["TSM"]


class TSM(BaseMethod):
    name = "TSM"

    def __init__(self, train_config: TrainConfig | None = None) -> None:
        super().__init__()
        self.train_config = train_config or TrainConfig(epochs=200)
        self._pairs: list[PredictorPair] = []

    def _fit(self, ctx: FitContext) -> None:
        self._pairs = fit_pairs(ctx.datasets, ctx.feature_dim, HIDDEN,
                                ctx.standardizer, self.train_config, ctx.rng)

    def predict(self, tasks: list[Task]) -> tuple[np.ndarray, np.ndarray]:
        if not self._pairs:
            raise RuntimeError("TSM.predict called before fit")
        return predict_pairs(self._pairs, np.stack([t.features for t in tasks]))

    @property
    def pairs(self) -> list[PredictorPair]:
        """The trained per-cluster predictor pairs (used by MFCP warm start)."""
        return self._pairs
