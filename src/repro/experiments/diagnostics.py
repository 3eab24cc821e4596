"""Predictor-quality diagnostics: what does each training scheme trade?

The paper's thesis is that MSE-optimal predictions are not decision-optimal
predictions.  This harness quantifies both sides for every method on held-
out tasks:

- **MSE side**: median/p90 relative time error, Spearman rank correlation,
  reliability Brier score against simulated outcomes;
- **decision side**: per-task fastest-cluster rank accuracy (the slice of
  accuracy the matching actually consumes) and mean regret.

The expected picture (and the reproduction's most direct evidence for the
paper's Fig. 2 story): MFCP gives up raw relative error versus TSM while
matching or beating it on rank accuracy and regret.

Run: ``python -m repro.experiments.diagnostics``.
"""

from __future__ import annotations

import numpy as np

from repro.clusters.catalog import make_setting
from repro.experiments.config import N_TASKS, ExperimentConfig, default_config
from repro.experiments.runner import oracle_matching
from repro.matching.objectives import makespan
from repro.methods import MFCP, TSM, FitContext
from repro.metrics.calibration import (
    per_task_rank_accuracy,
    reliability_calibration,
    time_accuracy,
)
from repro.utils.rng import as_generator, spawn
from repro.utils.tables import Table
from repro.workloads.taskpool import TaskPool

__all__ = ["DiagnosticsRow", "run_diagnostics", "main"]

SETTING = "B"


class DiagnosticsRow(dict):
    """One method's diagnostics (a dict with fixed keys, kept simple)."""


def run_diagnostics(
    config: ExperimentConfig | None = None, seed: int = 0
) -> dict[str, DiagnosticsRow]:
    """Fit TSM and MFCP-AD once and measure both accuracy families."""
    config = config or default_config()
    rng = as_generator(seed)
    pool = TaskPool(config.pool_size, rng=spawn(rng))
    clusters = make_setting(SETTING)
    train, test = pool.split(config.train_fraction, rng=spawn(rng))
    ctx = FitContext.build(clusters, train, config.spec, rng=spawn(rng))

    methods = [TSM(train_config=config.supervised).fit(ctx),
               MFCP("analytic", config.mfcp).fit(ctx)]

    T_true = np.stack([c.true_times(test) for c in clusters])
    A_true = np.stack([c.true_reliabilities(test) for c in clusters])
    outcome_rng = spawn(rng)

    # Regret over evaluation rounds.
    eval_rng = spawn(rng)
    regrets: dict[str, list[float]] = {m.name: [] for m in methods}
    for _ in range(config.eval_rounds):
        idx = eval_rng.choice(len(test), size=min(N_TASKS, len(test)), replace=False)
        tasks = [test[int(i)] for i in idx]
        T = T_true[:, idx]
        A = A_true[:, idx]
        problem = config.spec.build_problem(T, A)
        X_oracle = oracle_matching(problem, config)
        base = makespan(X_oracle, problem)
        for m in methods:
            X = m.decide(problem, tasks)
            regrets[m.name].append((makespan(X, problem) - base) / problem.N)

    out: dict[str, DiagnosticsRow] = {}
    for m in methods:
        T_hat, A_hat = m.predict(test)
        acc = time_accuracy(T_hat, T_true)
        # Simulated success outcomes for calibration (one Bernoulli draw per
        # (cluster, task) pair under the true reliabilities).
        outcomes = (outcome_rng.random(A_true.shape) < A_true).astype(float)
        cal = reliability_calibration(A_hat.ravel(), outcomes.ravel())
        out[m.name] = DiagnosticsRow(
            median_rel_err=acc.median_relative_error,
            p90_rel_err=acc.p90_relative_error,
            spearman=acc.spearman,
            rank_accuracy=per_task_rank_accuracy(T_hat, T_true),
            brier=cal.brier,
            ece=cal.ece,
            mean_regret=float(np.mean(regrets[m.name])),
        )
    return out


def main() -> None:
    rows = run_diagnostics()
    table = Table(
        ["Method", "med rel err", "p90 rel err", "Spearman", "rank acc",
         "Brier", "ECE", "regret"],
        title=f"Predictor diagnostics — setting {SETTING}",
    )
    for name, r in rows.items():
        table.add_row([
            name, f"{r['median_rel_err']:.3f}", f"{r['p90_rel_err']:.3f}",
            f"{r['spearman']:.3f}", f"{r['rank_accuracy']:.3f}",
            f"{r['brier']:.4f}", f"{r['ece']:.4f}", f"{r['mean_regret']:.4f}",
        ])
    print(table.render())
    print("\nThe paper's Fig. 2 story in numbers: MFCP may lose raw relative "
          "accuracy to TSM while matching decisions (rank accuracy, regret) improve.")


if __name__ == "__main__":
    main()
