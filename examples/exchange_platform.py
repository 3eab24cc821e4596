#!/usr/bin/env python
"""A computing resource exchange platform, end to end.

Simulates the full operating loop of the platform in Fig. 1 of the paper:
user-submitted deep-learning jobs arrive in rounds; the platform predicts
per-cluster performance with its trained MFCP predictors, matches tasks to
third-party clusters under a reliability constraint, and the matched work
then *actually executes* on the discrete-event cluster simulator — with
runtime jitter, random failures, and retries.

Reported per round: predicted vs realized makespan, realized success rate,
and cluster utilization; plus a final platform-level summary.

Run:  python examples/exchange_platform.py
"""

from __future__ import annotations

import numpy as np

from repro.clusters import make_setting, truth_matrices
from repro.matching import makespan
from repro.methods import MFCP, MFCPConfig, FitContext, MatchSpec
from repro.sim import ExecutionConfig, simulate_matching
from repro.utils.tables import Table
from repro.workloads import TaskPool

N_ROUNDS = 6
TASKS_PER_ROUND = 6


def main() -> None:
    pool = TaskPool(90, rng=17)
    clusters = make_setting("B")  # the flakiest cluster mix: v100 + rtx + farm
    train_tasks, live_tasks = pool.split(0.6, rng=5)

    spec = MatchSpec(gamma_quantile=0.5)
    ctx = FitContext.build(clusters, train_tasks, spec, rng=6)
    platform = MFCP("analytic", MFCPConfig(epochs=50)).fit(ctx)
    print(f"Platform online: {[c.name for c in clusters]}, "
          f"predictors trained on {len(train_tasks)} profiled jobs\n")

    rng = np.random.default_rng(8)
    exec_cfg = ExecutionConfig(jitter_std=0.08, failures=True, max_retries=1)

    table = Table(
        ["Round", "Jobs", "Predicted h", "Realized h", "Success", "Utilization"],
        title="Live allocation rounds (sequential-exclusive execution)",
    )
    total_busy = 0.0
    total_span = 0.0
    successes = 0
    jobs = 0
    for r in range(N_ROUNDS):
        idx = rng.choice(len(live_tasks), TASKS_PER_ROUND, replace=False)
        tasks = [live_tasks[int(i)] for i in idx]
        T, A = truth_matrices(clusters, tasks)
        problem = spec.build_problem(T, A)

        # The platform only sees its own predictions when deciding.
        T_hat, A_hat = platform.predict(tasks)
        predicted_cost = None
        X = platform.decide(problem, tasks)
        predicted_cost = makespan(X, problem.with_predictions(T_hat, A_hat))

        result = simulate_matching(clusters, tasks, X, exec_cfg, rng=rng)
        table.add_row([
            r + 1,
            len(tasks),
            f"{predicted_cost:.2f}",
            f"{result.makespan:.2f}",
            f"{result.success_rate:.0%}",
            f"{result.utilization:.0%}",
        ])
        total_busy += sum(result.cluster_busy.values())
        total_span += result.makespan
        successes += sum(1 for rec in result.records if rec.outcome.value == "success")
        jobs += len(tasks)

    print(table.render())
    print(
        f"\nPlatform summary: {jobs} jobs, {successes}/{jobs} succeeded "
        f"({successes / jobs:.0%}); cluster-hours sold {total_busy:.1f}h over "
        f"{total_span:.1f}h of wall clock "
        f"(fleet utilization {total_busy / (len(clusters) * total_span):.0%})."
    )


if __name__ == "__main__":
    main()
