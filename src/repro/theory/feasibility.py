"""Numerical study of Theorem 2 (ε-feasibility of the interior-point method).

Theorem 2 states that after k barrier iterations the solution satisfies
``g(X^(k), A) ≥ γ − ε`` with high probability, where ε shrinks with the
iteration count and the barrier weight.  We verify the *operational*
content: solutions of the barrier problem violate the original constraint
by at most a margin that (a) is usually zero for the relaxed solution and
(b) decreases as λ decreases (a tighter barrier) — and that the rounded
matching's violation probability is controlled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.matching.problem import MatchingProblem, feasible_gamma
from repro.matching.relaxed import solve_relaxed
from repro.matching.rounding import round_assignment
from repro.utils.rng import as_generator

__all__ = ["FeasibilityStats", "feasibility_study"]


@dataclass(frozen=True)
class FeasibilityStats:
    """Violation statistics for one λ across random instances."""

    lam: float
    relaxed_violation_rate: float
    relaxed_worst_violation: float  # max(0, −slack) worst case
    rounded_violation_rate: float
    rounded_worst_violation: float


#: Clusters x tasks of the random instances.
_SHAPE = (3, 6)


def _random_instance(rng: np.random.Generator) -> MatchingProblem:
    """One instance with γ at the middle of its attainable range."""
    T = rng.uniform(0.2, 3.0, size=_SHAPE)
    A = rng.uniform(0.6, 0.995, size=_SHAPE)
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5))


def feasibility_study(
    lams: "list[float]",
    *,
    instances: int = 30,
    rng: np.random.Generator | int | None = None,
) -> list[FeasibilityStats]:
    """Measure constraint violations of barrier solutions across λ values."""
    rng = as_generator(rng)
    base_problems = [_random_instance(rng) for _ in range(instances)]
    out = []
    for lam in lams:
        if lam <= 0:
            raise ValueError("lam values must be positive")
        relaxed_viol, rounded_viol = [], []
        for base in base_problems:
            problem = replace(base, lam=lam)
            sol = solve_relaxed(problem)
            relaxed_viol.append(max(0.0, -problem.reliability_slack(sol.X)))
            Xr = round_assignment(sol.X, problem)
            rounded_viol.append(max(0.0, -problem.reliability_slack(Xr)))
        rv = np.array(relaxed_viol)
        dv = np.array(rounded_viol)
        out.append(
            FeasibilityStats(
                lam=lam,
                relaxed_violation_rate=float((rv > 1e-9).mean()),
                relaxed_worst_violation=float(rv.max()),
                rounded_violation_rate=float((dv > 1e-9).mean()),
                rounded_worst_violation=float(dv.max()),
            )
        )
    return out
