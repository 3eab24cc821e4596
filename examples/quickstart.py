#!/usr/bin/env python
"""Quickstart: train a matching-focused predictor and compare it with the
classic predict-then-optimize pipeline on one allocation round.

This walks the library's core loop end to end:

1. build a task pool (synthetic CV/NLP training jobs) and a cluster triple;
2. measure the training tasks on every cluster (noisy observations);
3. fit the two-stage baseline (TSM) and MFCP with analytic gradients;
4. sample a test round, match it with both methods, and report the paper's
   three metrics against the exact oracle matching.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.clusters import make_setting, truth_matrices
from repro.experiments import default_config, oracle_matching
from repro.matching import makespan
from repro.methods import MFCP, MFCPConfig, FitContext, MatchSpec, TSM
from repro.metrics import cluster_utilization, mean_assigned_reliability
from repro.utils.tables import Table
from repro.workloads import TaskPool


def main() -> None:
    # --- 1. Substrate: tasks and clusters -------------------------------
    pool = TaskPool(80, rng=7)
    clusters = make_setting("A")  # a100-dgx + v100-legacy + tpu-pod
    train_tasks, test_tasks = pool.split(0.7, rng=1)
    print(f"Pool: {len(pool)} tasks ({pool.feature_dim}-dim features), "
          f"clusters: {[c.name for c in clusters]}")

    # --- 2+3. Measure and fit -------------------------------------------
    spec = MatchSpec()  # γ rule, β, λ, solver settings
    ctx = FitContext.build(clusters, train_tasks, spec, rng=2)
    print(f"Measured {len(train_tasks)} training tasks on {len(clusters)} clusters")

    tsm = TSM().fit(ctx)
    mfcp = MFCP("analytic", MFCPConfig(epochs=40)).fit(ctx)
    print("Fitted TSM (MSE two-stage) and MFCP-AD (regret-trained)")

    # --- 4. One allocation round ----------------------------------------
    rng = np.random.default_rng(3)
    tasks = [test_tasks[int(i)] for i in rng.choice(len(test_tasks), 5, replace=False)]
    T, A = truth_matrices(clusters, tasks)
    problem = spec.build_problem(T, A)

    X_oracle = oracle_matching(problem, default_config())
    oracle_cost = makespan(X_oracle, problem)

    table = Table(["Method", "Makespan (h)", "Regret", "Reliability", "Utilization"],
                  title="One allocation round (5 tasks, 3 clusters)")
    table.add_row(["oracle", f"{oracle_cost:.3f}", "0.000",
                   f"{mean_assigned_reliability(X_oracle, A):.3f}",
                   f"{cluster_utilization(X_oracle, problem):.3f}"])
    for method in (tsm, mfcp):
        X = method.decide(problem, tasks)
        cost = makespan(X, problem)
        table.add_row([
            method.name,
            f"{cost:.3f}",
            f"{(cost - oracle_cost) / problem.N:.3f}",
            f"{mean_assigned_reliability(X, A):.3f}",
            f"{cluster_utilization(X, problem):.3f}",
        ])
    print()
    print(table.render())
    print("\nLower regret and higher utilization for MFCP is the paper's headline result.")


if __name__ == "__main__":
    main()
