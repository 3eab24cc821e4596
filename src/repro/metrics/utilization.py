"""The cluster-utilization metric (paper §4.1.3).

"Cluster utilization is the total working time of all clusters divided by
their maximum possible working time" — with sequential execution the
maximum possible working time is M × makespan (every cluster busy until
the last one finishes), so

    U = Σ_i c_i / (M · max_i c_i)

where ``c_i`` is cluster i's completion time (ζ-adjusted in the parallel
setting).  U = 1 means perfectly balanced clusters; low U means some
clusters idle while the slowest finishes.
"""

from __future__ import annotations

import numpy as np

from repro.matching.objectives import cluster_loads
from repro.matching.problem import MatchingProblem

__all__ = ["cluster_utilization"]


def cluster_utilization(X: np.ndarray, problem: MatchingProblem) -> float:
    """Busy-time fraction U ∈ (0, 1] under matching ``X``."""
    loads = cluster_loads(np.asarray(X, dtype=np.float64), problem)
    span = loads.max()
    if span <= 0:
        raise ValueError("utilization undefined for an all-zero load vector")
    return float(loads.sum() / (problem.M * span))
