"""Rounding relaxed assignments to binary matchings.

§3.2: "during testing or system deployment, the matching X* is obtained
using the continuous version of the matching optimization algorithm and
subsequently rounded to produce discrete solutions."

``round_assignment`` does per-task argmax rounding followed by two repair
passes:

1. **feasibility repair** — if the rounded matching violates the
   reliability constraint, greedily move tasks to more reliable clusters,
   choosing at each step the move with the best reliability gain per unit
   of makespan increase;
2. **local search** — single-task reassignments that strictly
   reduce the objective while keeping feasibility, until a local optimum.

For the sequential makespan ``max_i x_iᵀt_i`` the local search tries only
the bottleneck cluster's tasks, which is exact, not a heuristic.  Moving
task j from ``src`` to ``i`` leaves every other cluster's load
bit-unchanged and can only raise cluster i's (X is 0/1, T > 0: one term of
a fixed-order sum goes 0 → t, and float addition is monotone).  A move is
accepted only when the new max is below ``base − 1e-12``, so ``src`` must
be the *only* cluster whose load is ≥ ``base − 1e-12``.  Two or more such
clusters: no move can be accepted, stop.  Exactly one: sweeping its tasks in
ascending (j, i) finds the same first improving move as sweeping all
N·(M−1).  The linear cost (a move off *any* cluster can lower the sum) and
ζ-parallel loads (``ζ_i(k_i)`` can shrink cluster i's load when a task is
added) break the argument, so those problems pass every task through the
same loop.  ``tests/test_rounding_exact.py`` holds the full sweep as the
oracle and asserts identical output.
"""

from __future__ import annotations

import numpy as np

from repro.matching.objectives import cluster_loads, decision_cost, reliability_value
from repro.matching.problem import MatchingProblem
from repro.telemetry import get_recorder

__all__ = ["round_assignment", "assignment_from_labels", "labels_from_assignment"]


def assignment_from_labels(labels: np.ndarray, m: int) -> np.ndarray:
    """Build the binary M×N matrix from per-task cluster indices."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if labels.min() < 0 or labels.max() >= m:
        raise ValueError("labels out of range")
    X = np.zeros((m, n))
    X[labels, np.arange(n)] = 1.0
    return X


def labels_from_assignment(X: np.ndarray) -> np.ndarray:
    """Per-task cluster indices of a (relaxed or binary) assignment."""
    return np.asarray(X).argmax(axis=0)


#: Move budget of each stage (repair, then local search).
MAX_MOVES = 200


def round_assignment(X: np.ndarray, problem: MatchingProblem) -> np.ndarray:
    """Round a relaxed assignment to binary and repair it (see module doc)."""
    labels = labels_from_assignment(X)
    Xb = assignment_from_labels(labels, problem.M)

    if reliability_value(Xb, problem) < 0:
        Xb = _repair_reliability(Xb, problem, MAX_MOVES)
    Xb = _local_search(Xb, problem, MAX_MOVES)
    rec = get_recorder()
    if rec.enabled:
        # Integrality gap of this round: rounded-vs-relaxed decision cost.
        rec.counter_add("rounding/calls")
        rec.observe("rounding/gap",
                    decision_cost(Xb, problem) - decision_cost(X, problem))
    return Xb


def _repair_reliability(X: np.ndarray, problem: MatchingProblem, max_moves: int) -> np.ndarray:
    """Greedy repair: move tasks to more reliable clusters until g >= 0.

    Each move maximizes reliability gain per unit makespan degradation.
    Terminates with a best-effort matching if no improving move exists
    (the instance may simply be infeasible in the discrete domain).
    """
    X = X.copy()
    A, T = problem.A, problem.T
    for _ in range(max_moves):
        slack = reliability_value(X, problem)
        if slack >= 0:
            return X
        labels = labels_from_assignment(X)
        cur_rel = A[labels, np.arange(problem.N)]
        # Candidate moves: (task j, target cluster i) with reliability gain.
        gain = A - cur_rel[None, :]
        gain[labels, np.arange(problem.N)] = -np.inf
        best_score, best_move = -np.inf, None
        base_cost = decision_cost(X, problem)
        for j in range(problem.N):
            for i in range(problem.M):
                if gain[i, j] <= 0:
                    continue
                X[labels[j], j] = 0.0
                X[i, j] = 1.0
                cost_increase = max(decision_cost(X, problem) - base_cost, 1e-9)
                score = gain[i, j] / cost_increase
                X[i, j] = 0.0
                X[labels[j], j] = 1.0
                if score > best_score:
                    best_score, best_move = score, (i, j)
        if best_move is None:
            return X  # best effort: no reliability-improving move exists
        i, j = best_move
        X[labels[j], j] = 0.0
        X[i, j] = 1.0
    return X


def _local_search(X: np.ndarray, problem: MatchingProblem, max_moves: int) -> np.ndarray:
    """First-improvement single-task reassignment descent on the objective,
    rejecting moves that would violate the reliability constraint (when the
    incoming matching satisfies it).  Sequential makespan problems sweep
    only the bottleneck cluster's tasks (exact — see module doc)."""
    X = X.copy()
    feasible_required = reliability_value(X, problem) >= 0
    bottleneck_only = problem.cost == "makespan" and not problem.is_parallel
    for _ in range(max_moves):
        labels = labels_from_assignment(X)
        candidates = range(problem.N)
        if bottleneck_only:
            # decision_cost's loads and max, kept for the bottleneck test.
            loads = cluster_loads(X, problem)
            base = float(np.maximum.reduce(loads))
            hot = (loads >= base - 1e-12).nonzero()[0]
            if hot.size > 1:
                return X  # tied bottlenecks: no single move lowers the max
            candidates = (labels == hot[0]).nonzero()[0]
        else:
            base = decision_cost(X, problem)
        improved = False
        for j in candidates:
            src = labels[j]
            for i in range(problem.M):
                if i == src:
                    continue
                X[src, j] = 0.0
                X[i, j] = 1.0
                if decision_cost(X, problem) < base - 1e-12 and (
                    not feasible_required or reliability_value(X, problem) >= 0
                ):
                    improved = True
                    break
                X[i, j] = 0.0
                X[src, j] = 1.0
            if improved:
                break
        if not improved:
            return X
    return X
