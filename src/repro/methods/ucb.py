"""Upper-Confidence-Bound method (paper §4.1.2, citing Zhou et al. [44]).

"We select the solution with the highest upper confidence bound rather
than the best-performing matching scheme to mitigate the impact of
stochastic environments on matching regret."  Concretely: bootstrap
ensembles provide per-prediction uncertainty, and the matching is solved
under *pessimistic* matrices — inflated times ``t̂ + κ·σ_t`` (an upper
confidence bound on the cost of any matching) and deflated reliabilities
``â − κ·σ_a`` (a lower confidence bound on constraint satisfaction).
Minimizing the pessimistic cost is exactly choosing the matching whose
confidence-bound performance is best.
"""

from __future__ import annotations

import numpy as np

from repro.methods.base import HIDDEN, BaseMethod, FitContext
from repro.predictors.training import TrainConfig
from repro.predictors.uncertainty import (
    EnsembleReliabilityPredictor,
    EnsembleTimePredictor,
)
from repro.utils.rng import spawn
from repro.workloads.taskpool import Task

__all__ = ["UCB"]


class UCB(BaseMethod):
    name = "UCB"

    def __init__(
        self,
        kappa: float = 1.0,
        ensemble_size: int = 5,
        train_config: TrainConfig | None = None,
    ) -> None:
        super().__init__()
        if kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {kappa}")
        if ensemble_size <= 1:
            raise ValueError("ensemble_size must be > 1 for a usable std estimate")
        self.kappa = kappa
        self.ensemble_size = ensemble_size
        self.train_config = train_config or TrainConfig(epochs=150)
        self._time_ens: list[EnsembleTimePredictor] = []
        self._rel_ens: list[EnsembleReliabilityPredictor] = []

    def _fit(self, ctx: FitContext) -> None:
        self._time_ens, self._rel_ens = [], []
        for ds in ctx.datasets:
            self._time_ens.append(
                EnsembleTimePredictor.fit(
                    ds.Z, ds.t, k=self.ensemble_size, hidden=HIDDEN,
                    standardizer=ctx.standardizer, config=self.train_config,
                    rng=spawn(ctx.rng),
                )
            )
            self._rel_ens.append(
                EnsembleReliabilityPredictor.fit(
                    ds.Z, ds.a, k=self.ensemble_size, hidden=HIDDEN,
                    standardizer=ctx.standardizer, config=self.train_config,
                    rng=spawn(ctx.rng),
                )
            )

    def predict(self, tasks: list[Task]) -> tuple[np.ndarray, np.ndarray]:
        if not self._time_ens:
            raise RuntimeError("UCB.predict called before fit")
        Z = np.stack([t.features for t in tasks])
        T_rows, A_rows = [], []
        for te, re in zip(self._time_ens, self._rel_ens):
            t_mean, t_std = te.predict_with_std(Z)
            a_mean, a_std = re.predict_with_std(Z)
            T_rows.append(t_mean + self.kappa * t_std)
            A_rows.append(np.clip(a_mean - self.kappa * a_std, 0.0, 1.0))
        return np.stack(T_rows), np.stack(A_rows)
