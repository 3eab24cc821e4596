"""The shared experiment runner: fit methods per seed, evaluate over rounds.

Evaluation protocol (matching §4 of the paper):

- each seed builds a fresh task pool, splits train/test, measures the
  training tasks on every cluster (noisy), and fits every method;
- each evaluation round samples N *test* tasks, builds the ground-truth
  problem from noise-free T/A ("actual performance during execution"),
  computes the oracle matching — exact branch-and-bound when the node
  budget allows, the deployment pipeline otherwise (whichever is better) —
  and scores every method's matching on regret/reliability/utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.clusters.cluster import Cluster
from repro.experiments.config import N_TASKS, ExperimentConfig, active_telemetry
from repro.matching.exact import solve_branch_and_bound
from repro.matching.objectives import makespan, reliability_value
from repro.matching.problem import MatchingProblem
from repro.metrics.regret import deployment_matching
from repro.metrics.reliability import mean_assigned_reliability
from repro.metrics.report import MethodReport, MetricSample
from repro.metrics.utilization import cluster_utilization
from repro.methods.base import BaseMethod, FitContext
from repro import telemetry
from repro.utils.rng import as_generator, spawn
from repro.workloads.taskpool import Task, TaskPool

__all__ = ["oracle_matching", "evaluate_round", "run_seed", "run_experiment", "SeedResult"]

MethodFactory = Callable[[], "list[BaseMethod]"]
ClusterFactory = Callable[[], "list[Cluster]"]


def oracle_matching(
    problem: MatchingProblem,
    config: ExperimentConfig,
) -> np.ndarray:
    """Best available ground-truth matching X*(T, A).

    Exact branch-and-bound within the node budget; on overrun (large N)
    fall back to the deployment pipeline; always return the better of the
    two feasible candidates by the problem's decision cost.
    """
    candidates: list[np.ndarray] = []
    try:
        exact = solve_branch_and_bound(problem, node_limit=config.oracle_node_limit)
        if exact.feasible and exact.X is not None:
            candidates.append(exact.X)
    except RuntimeError:
        pass  # node budget exceeded — heuristic fallback below
    candidates.append(deployment_matching(problem, solver_config=config.spec.solver))
    feasible = [X for X in candidates if reliability_value(X, problem) >= -1e-9]
    pool = feasible or candidates
    return min(pool, key=lambda X: makespan(X, problem))


def evaluate_round(
    methods: Sequence[BaseMethod],
    clusters: "list[Cluster]",
    tasks: "list[Task]",
    config: ExperimentConfig,
) -> dict[str, MetricSample]:
    """Score every method on one allocation round of ground-truth tasks."""
    T = np.stack([c.true_times(tasks) for c in clusters])
    A = np.stack([c.true_reliabilities(tasks) for c in clusters])
    true_problem = config.spec.build_problem(T, A)
    X_oracle = oracle_matching(true_problem, config)
    cost_oracle = makespan(X_oracle, true_problem)
    n = true_problem.N
    out: dict[str, MetricSample] = {}
    for method in methods:
        X = method.decide(true_problem, list(tasks))
        sample = MetricSample(
            regret=(makespan(X, true_problem) - cost_oracle) / n,
            reliability=mean_assigned_reliability(X, A),
            utilization=cluster_utilization(X, true_problem),
        )
        telemetry.observe(f"eval/regret/{method.name}", sample.regret)
        out[method.name] = sample
    return out


@dataclass
class SeedResult:
    """Per-seed samples keyed by method name."""

    seed: int
    samples: dict[str, list[MetricSample]]


def run_seed(
    seed: int,
    cluster_factory: ClusterFactory,
    method_factory: MethodFactory,
    config: ExperimentConfig,
    *,
    n_tasks: int | None = None,
) -> SeedResult:
    """Fit fresh methods under one seed and evaluate them over all rounds."""
    rng = as_generator(seed)
    pool = TaskPool(config.pool_size, rng=spawn(rng))
    clusters = cluster_factory()
    train, test = pool.split(config.train_fraction, rng=spawn(rng))
    ctx = FitContext.build(clusters, train, config.spec, rng=spawn(rng))
    methods = method_factory()
    with telemetry.span("seed"):
        for method in methods:
            with telemetry.span(f"fit/{method.name}"):
                method.fit(ctx)

        n = n_tasks or N_TASKS
        eval_rng = spawn(rng)
        samples: dict[str, list[MetricSample]] = {m.name: [] for m in methods}
        with telemetry.span("eval"):
            for _ in range(config.eval_rounds):
                idx = eval_rng.choice(len(test), size=min(n, len(test)), replace=False)
                tasks = [test[int(i)] for i in idx]
                round_samples = evaluate_round(methods, clusters, tasks, config)
                for name, sample in round_samples.items():
                    samples[name].append(sample)
    return SeedResult(seed=seed, samples=samples)


def run_experiment(
    cluster_factory: ClusterFactory,
    method_factory: MethodFactory,
    config: ExperimentConfig,
    *,
    n_tasks: int | None = None,
    verbose: bool = False,
    run_name: str = "experiment",
) -> dict[str, MethodReport]:
    """Aggregate :func:`run_seed` over every configured seed.

    The REPRO_TELEMETRY environment setting (see
    :func:`repro.experiments.config.active_telemetry`) opens a
    run-scoped recorder around the whole experiment — unless one is
    already active, in which case the caller's recorder is reused so
    nested experiment invocations land in a single run log.
    """
    if telemetry.get_recorder().enabled:
        return _run_experiment_body(
            cluster_factory, method_factory, config, n_tasks, verbose
        )
    meta = telemetry.run_metadata(config=config, seeds=config.seeds)
    with telemetry.recording(mode=active_telemetry(), run=run_name, meta=meta):
        return _run_experiment_body(
            cluster_factory, method_factory, config, n_tasks, verbose
        )


def _run_experiment_body(
    cluster_factory: ClusterFactory,
    method_factory: MethodFactory,
    config: ExperimentConfig,
    n_tasks: int | None,
    verbose: bool,
) -> dict[str, MethodReport]:
    reports: dict[str, MethodReport] = {}
    for seed in config.seeds:
        result = run_seed(seed, cluster_factory, method_factory, config, n_tasks=n_tasks)
        for name, samples in result.samples.items():
            report = reports.setdefault(name, MethodReport(name))
            for s in samples:
                report.add(s)
        if verbose:
            done = ", ".join(
                f"{name}={np.mean([s.regret for s in ss]):.3f}"
                for name, ss in result.samples.items()
            )
            print(f"  seed {seed}: regret {done}")
    return reports
