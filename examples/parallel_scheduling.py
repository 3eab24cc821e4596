#!/usr/bin/env python
"""Parallel task execution: the non-convex setting of paper §3.4 / §4.5.

Clusters run their assigned tasks concurrently; the realized batch window
is ``ζ(k) · Σt`` with ζ an exponential decay from 1 to 0.6.  This makes
the matching objective non-convex (Eq. 16), where only the zeroth-order
variant MFCP-FG applies among MFCP methods.

The script:

1. fits TSM and MFCP-FG under the parallel matching spec;
2. compares their matchings on several test rounds (regret vs oracle);
3. executes the winning matching on the discrete-event simulator in
   parallel mode, confirming the analytic batch-window model.

Run:  python examples/parallel_scheduling.py
"""

from __future__ import annotations

import numpy as np

from repro.clusters import make_setting, truth_matrices
from repro.experiments import default_config, oracle_matching
from repro.matching import makespan
from repro.matching.speedup import ExponentialDecaySpeedup
from repro.methods import MFCP, MFCPConfig, FitContext, MatchSpec, TSM
from repro.sim import ExecutionConfig, simulate_matching
from repro.utils.tables import Table
from repro.workloads import TaskPool

ZETA = ExponentialDecaySpeedup(floor=0.6, rate=0.5)  # §4.5's curve


def main() -> None:
    pool = TaskPool(80, rng=23)
    clusters = make_setting("A")
    train_tasks, test_tasks = pool.split(0.7, rng=9)

    spec = MatchSpec(speedup=(ZETA,))  # shared scheduler on every cluster
    ctx = FitContext.build(clusters, train_tasks, spec, rng=10)
    tsm = TSM().fit(ctx)
    mfcp = MFCP("forward", MFCPConfig(epochs=40)).fit(ctx)
    print("Parallel-execution spec: ζ decays 1 → 0.6 with cluster load")
    print(f"ζ(1)={float(ZETA.value(np.array(1.0))):.2f}  "
          f"ζ(3)={float(ZETA.value(np.array(3.0))):.2f}  "
          f"ζ(8)={float(ZETA.value(np.array(8.0))):.2f}\n")

    config = default_config()
    rng = np.random.default_rng(12)
    table = Table(["Round", "Oracle h", "TSM regret", "MFCP-FG regret"],
                  title="Non-convex matching rounds (8 tasks each)")
    last = None
    for r in range(5):
        idx = rng.choice(len(test_tasks), 8, replace=False)
        tasks = [test_tasks[int(i)] for i in idx]
        T, A = truth_matrices(clusters, tasks)
        problem = spec.build_problem(T, A)
        X_oracle = oracle_matching(problem, config)
        base = makespan(X_oracle, problem)
        row = [r + 1, f"{base:.2f}"]
        for method in (tsm, mfcp):
            X = method.decide(problem, tasks)
            row.append(f"{(makespan(X, problem) - base) / problem.N:+.4f}")
            last = (tasks, X, problem)
        table.add_row(row)
    print(table.render())

    # Execute the final MFCP-FG matching on the DES in parallel mode.
    tasks, X, problem = last
    result = simulate_matching(
        clusters, tasks, X, ExecutionConfig(mode="parallel", speedup=ZETA)
    )
    print(f"\nDES check: analytic ζ-makespan {makespan(X, problem):.3f}h vs "
          f"simulated {result.makespan:.3f}h "
          f"(match: {np.isclose(result.makespan, makespan(X, problem))})")


if __name__ == "__main__":
    main()
