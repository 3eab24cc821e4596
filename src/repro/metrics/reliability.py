"""The reliability metric (paper §4.1.3).

"Reliability reflects the average success probability of task execution" —
i.e. the mean, over tasks, of the *true* reliability of the cluster each
task was assigned to.  (Distinct from the constraint value g(X, A), which
additionally divides by M.)
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_assignment_matrix, check_matrix

__all__ = ["mean_assigned_reliability"]


def mean_assigned_reliability(X: np.ndarray, A_true: np.ndarray) -> float:
    """Average true success probability under matching ``X``.

    Works for relaxed X too (probability-weighted average), which the
    training diagnostics use.
    """
    A_true = check_matrix(A_true, name="A_true")
    X = check_assignment_matrix(X, name="X")
    if X.shape != A_true.shape:
        raise ValueError(f"shape mismatch: X {X.shape} vs A {A_true.shape}")
    return float(np.sum(X * A_true) / X.shape[1])
