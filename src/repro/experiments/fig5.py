"""Figure 5 reproduction: scalability with the number of tasks per round.

Paper §4.4: setting A, task counts swept, Regret and Cluster Utilization
reported per method.  Expected shape: regret grows roughly linearly with N
for every method with MFCP variants lowest; utilization rises with N for
every method with MFCP highest and TAM lowest.

Run: ``python -m repro.experiments.fig5``.
"""

from __future__ import annotations

import numpy as np

from repro.clusters.catalog import make_setting
from repro.experiments.config import TRAIN_FRACTION, ExperimentConfig, default_config
from repro.experiments.fig4 import fig4_methods
from repro.experiments.runner import run_experiment
from repro.metrics.report import MethodReport
from repro.utils.tables import render_series

__all__ = ["TASK_COUNTS", "run_fig5", "main"]

#: The paper's x-axis (number of tasks in a single round).
TASK_COUNTS: tuple[int, ...] = (5, 10, 15, 20, 25)

SETTING = "A"


def run_fig5(
    config: ExperimentConfig | None = None,
    task_counts: tuple[int, ...] = TASK_COUNTS,
    *,
    verbose: bool = False,
) -> dict[int, dict[str, MethodReport]]:
    """Run the sweep; returns {n_tasks: {method: report}}.

    Methods are fitted once per seed (training is N-independent); only the
    evaluation rounds change with N — matching the paper's protocol of one
    trained predictor evaluated at several round sizes.
    """
    from repro.experiments.runner import evaluate_round
    from repro.methods.base import FitContext
    from repro.utils.rng import as_generator, spawn
    from repro.workloads.taskpool import TaskPool

    config = config or default_config()
    results: dict[int, dict[str, MethodReport]] = {
        n: {} for n in task_counts
    }
    factory = fig4_methods(config)
    for seed in config.seeds:
        rng = as_generator(seed)
        pool = TaskPool(config.pool_size, rng=spawn(rng))
        clusters = make_setting(SETTING)
        train, test = pool.split(TRAIN_FRACTION, rng=spawn(rng))
        ctx = FitContext.build(clusters, train, config.spec, rng=spawn(rng))
        methods = factory()
        for method in methods:
            method.fit(ctx)
        eval_rng = spawn(rng)
        for n in task_counts:
            for _ in range(config.eval_rounds):
                idx = eval_rng.choice(len(test), size=min(n, len(test)), replace=False)
                tasks = [test[int(i)] for i in idx]
                samples = evaluate_round(methods, clusters, tasks, config)
                for name, sample in samples.items():
                    results[n].setdefault(name, MethodReport(name)).add(sample)
        if verbose:
            print(f"  seed {seed} done "
                  f"(fitted once, evaluated at N ∈ {list(task_counts)})")
    return results


def series(
    results: dict[int, dict[str, MethodReport]], metric: str
) -> tuple[list[int], dict[str, list[float]]]:
    """Extract {method: [metric mean per N]} for plotting/printing."""
    ns = sorted(results)
    methods = list(results[ns[0]].keys())
    out = {m: [getattr(results[n][m], metric)[0] for n in ns] for m in methods}
    return ns, out


def main() -> None:
    results = run_fig5(verbose=True)
    ns, regret = series(results, "regret")
    _, util = series(results, "utilization")
    print()
    print(render_series("N tasks", ns, regret, title="Fig. 5a — Regret vs task count"))
    print()
    print(render_series("N tasks", ns, util, title="Fig. 5b — Utilization vs task count"))


if __name__ == "__main__":
    main()
