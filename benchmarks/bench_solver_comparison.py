"""A5 — solver ablation: mirror descent vs Frank–Wolfe vs Euclidean vs the
paper-literal softmax rule, on identical instances scored against the
exact branch-and-bound optimum.

Reports, per engine, the mean relaxed objective, the mean *rounded* true
makespan (what deployment cares about), and wall time — quantifying the
DESIGN.md claim that mirror descent is the right default for Algorithm 1.

Run: ``pytest benchmarks/bench_solver_comparison.py --benchmark-only``
"""

from __future__ import annotations

import time

import numpy as np

from repro.matching import (
    FrankWolfeConfig,
    MatchingProblem,
    SolverConfig,
    feasible_gamma,
    makespan,
    round_assignment,
    solve_branch_and_bound,
    solve_frank_wolfe,
    solve_relaxed,
)
from repro.utils.tables import Table


def _instances(n_instances: int = 25, m: int = 3, n: int = 8):
    rng = np.random.default_rng(0)
    out = []
    for _ in range(n_instances):
        T = rng.uniform(0.1, 4.0, (m, n))
        A = rng.uniform(0.55, 0.999, (m, n))
        out.append(MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4)))
    return out


def test_a5_solver_comparison(benchmark):
    problems = _instances()
    exact = [solve_branch_and_bound(p).objective for p in problems]

    engines = {
        "mirror": lambda p: round_assignment(
            solve_relaxed(p, SolverConfig(projection="mirror")).X, p),
        "euclidean": lambda p: round_assignment(
            solve_relaxed(p, SolverConfig(projection="euclidean")).X, p),
        "softmax (paper-literal)": lambda p: round_assignment(
            solve_relaxed(p, SolverConfig(projection="softmax")).X, p),
        "frank-wolfe": lambda p: round_assignment(
            solve_frank_wolfe(p, FrankWolfeConfig()).X, p),
    }

    def study():
        rows = {}
        for name, engine in engines.items():
            t0 = time.perf_counter()
            gaps = []
            for p, opt in zip(problems, exact):
                X = engine(p)
                gaps.append(makespan(X, p) / opt - 1.0)
            rows[name] = (float(np.mean(gaps)), float(np.max(gaps)),
                          time.perf_counter() - t0)
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    table = Table(["Engine", "mean gap vs exact", "worst gap", "total time (s)"],
                  title="A5 — solver engines on 25 random instances (M=3, N=8)")
    for name, (mean_gap, worst, elapsed) in rows.items():
        table.add_row([name, f"{mean_gap:.4f}", f"{worst:.4f}", f"{elapsed:.2f}"])
    print()
    print(table.render())
    # Deployment-quality contract: every engine's rounded solutions stay
    # within 50% of exact on average; the default (mirror) within 10%.
    assert rows["mirror"][0] < 0.10
    for name, (mean_gap, _, _) in rows.items():
        assert mean_gap < 0.5, f"{name} mean gap {mean_gap}"
