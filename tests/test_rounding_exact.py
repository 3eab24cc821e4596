"""The shipped ``_local_search`` must make exactly the full sweep's moves.

``_full_sweep_local_search`` below is the pre-pruning implementation kept
verbatim as the oracle: it tries all N x (M-1) single-task moves per sweep.
The shipped one sweeps only the unique bottleneck cluster's tasks on
sequential makespan problems (see ``repro.matching.rounding``'s module doc
for why that is exact) and must return the same matrix, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.matching import (
    ExponentialDecaySpeedup,
    MatchingProblem,
    assignment_from_labels,
    feasible_gamma,
    labels_from_assignment,
)
from repro.matching.objectives import cluster_loads, decision_cost, reliability_value
from repro.matching.rounding import _local_search, _repair_reliability


def _full_sweep_local_search(X: np.ndarray, problem: MatchingProblem, max_moves: int) -> np.ndarray:
    """First-improvement single-task reassignment descent on the objective,
    rejecting moves that would violate the reliability constraint (when the
    incoming matching satisfies it)."""
    X = X.copy()
    feasible_required = reliability_value(X, problem) >= 0
    for _ in range(max_moves):
        base = decision_cost(X, problem)
        labels = labels_from_assignment(X)
        improved = False
        for j in range(problem.N):
            src = labels[j]
            for i in range(problem.M):
                if i == src:
                    continue
                X[src, j] = 0.0
                X[i, j] = 1.0
                ok = (not feasible_required) or reliability_value(X, problem) >= 0
                if ok and decision_cost(X, problem) < base - 1e-12:
                    improved = True
                    break
                X[i, j] = 0.0
                X[src, j] = 1.0
            if improved:
                break
        if not improved:
            return X
    return X


def _instance(rng: np.random.Generator, m: int, n: int, *, decimals: "int | None",
              quantile: float, **kwargs) -> MatchingProblem:
    T = rng.uniform(0.2, 3.0, size=(m, n))
    if decimals is not None:
        T = np.round(T, decimals)  # coarse grid: tied cluster loads are common
    A = rng.uniform(0.3, 0.995, size=(m, n))
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=quantile), **kwargs)


def _start(rng: np.random.Generator, p: MatchingProblem, kind: str) -> np.ndarray:
    """A binary start: uniformly random, or each task on its fastest cluster
    (what argmax rounding of a good relaxed solution looks like)."""
    if kind == "random":
        labels = rng.integers(0, p.M, size=p.N)
    else:
        labels = p.T.argmin(axis=0)
    return assignment_from_labels(labels, p.M)


def _assert_identical(X0: np.ndarray, p: MatchingProblem, max_moves: int) -> None:
    want = _full_sweep_local_search(X0, p, max_moves)
    got = _local_search(X0, p, max_moves)
    assert np.array_equal(got, want)


def test_small_and_medium_shapes_match_full_sweep():
    rng = np.random.default_rng(20250930)
    seen = {"tied": 0, "infeasible_start": 0, "repaired": 0, "moved": 0}
    for case in range(400):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 17))
        p = _instance(rng, m, n, decimals=1 if case % 2 else None,
                      quantile=float(rng.choice([0.2, 0.5, 0.8, 0.97])))
        X0 = _start(rng, p, "random" if case % 3 else "fastest")
        if reliability_value(X0, p) < 0:
            if case % 4 < 2:
                X0 = _repair_reliability(X0, p, 200)
                seen["repaired"] += 1
            seen["infeasible_start"] += reliability_value(X0, p) < 0
        loads = cluster_loads(X0, p)
        seen["tied"] += int(np.sum(loads >= loads.max() - 1e-12) > 1)
        seen["moved"] += not np.array_equal(_local_search(X0, p, 200), X0)
        _assert_identical(X0, p, 200)
    # The sweep must have exercised every regime the argument covers.
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("kind", ["random", "fastest"])
def test_wide_shapes_match_full_sweep(kind):
    rng = np.random.default_rng(64 if kind == "random" else 24)
    for case in range(20):
        m, n = int(rng.integers(12, 25)), int(rng.integers(32, 65))
        p = _instance(rng, m, n, decimals=1 if case % 2 else None, quantile=0.5)
        # A random 24 x 64 start is ~100 accepted moves from a local optimum
        # and the oracle pays a full sweep for each: cap the descent there.
        _assert_identical(_start(rng, p, kind), p, 6 if kind == "random" else 200)


def test_tied_bottlenecks_stop_the_descent():
    # 0.1 + 0.2 != 0.3 in floats, but the two loads sit within the 1e-12
    # acceptance margin: neither sweep may move anything.
    T = np.array([[0.1, 0.2, 0.9], [0.9, 0.9, 0.3], [0.05, 0.05, 0.05]])
    p = MatchingProblem(T=T, A=np.full((3, 3), 0.9), gamma=0.1)
    X0 = assignment_from_labels(np.array([0, 0, 1]), 3)
    loads = cluster_loads(X0, p)
    assert loads[0] != loads[1] and abs(loads[0] - loads[1]) < 1e-12
    assert np.array_equal(_local_search(X0, p, 200), X0)
    _assert_identical(X0, p, 200)
    # The wide shape, sixteen clusters tied at three equal tasks each.
    rng = np.random.default_rng(7)
    wide = MatchingProblem(T=np.full((24, 64), 0.5),
                           A=rng.uniform(0.3, 0.995, size=(24, 64)), gamma=0.01)
    X0 = assignment_from_labels(np.arange(64) % 24, 24)
    assert np.array_equal(_local_search(X0, wide, 200), X0)
    _assert_identical(X0, wide, 200)


@pytest.mark.parametrize("kwargs", [
    dict(cost="linear"),
    dict(speedup=(ExponentialDecaySpeedup(0.6, 0.3),)),
], ids=["linear", "parallel"])
def test_linear_and_parallel_keep_the_full_sweep(kwargs):
    rng = np.random.default_rng(11)
    off_bottleneck = 0
    for case in range(40):
        m, n = int(rng.integers(2, 8)), int(rng.integers(1, 15))
        p = _instance(rng, m, n, decimals=1 if case % 2 else None,
                      quantile=float(rng.choice([0.2, 0.6, 0.97])), **kwargs)
        X0 = _start(rng, p, "random")
        _assert_identical(X0, p, 200)
        # First accepted move: was it off a cluster other than the most loaded?
        X1 = _local_search(X0, p, 1)
        moved = np.flatnonzero((X0 != X1).any(axis=0))
        if moved.size:
            src = int(labels_from_assignment(X0)[moved[0]])
            off_bottleneck += src != int(cluster_loads(X0, p).argmax())
    # Such a move exists only on the all-tasks path: these problems must take it.
    assert off_bottleneck > 0
