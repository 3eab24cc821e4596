"""The cluster-task matching problem container (paper Eq. 2).

Bundles the performance matrices with the optimization hyperparameters so
solvers, differentiators and metrics all consume one validated object:

- ``T`` (M×N): execution time of task j on cluster i;
- ``A`` (M×N): reliability of task j on cluster i;
- ``gamma``: reliability threshold of constraint (2b)/(4);
- ``beta``: smoothing sharpness of Eq. (8);
- ``lam``: log-barrier weight of Eq. (9);
- ``speedup``: ζ functions (one per cluster, or one shared) for the
  parallel-execution extension (Eq. 16); ``None`` means sequential.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.matching.speedup import IdentitySpeedup, SpeedupFunction
from repro.utils.validation import check_matrix, check_positive

__all__ = ["MatchingProblem", "feasible_gamma"]


@dataclass(frozen=True)
class MatchingProblem:
    """One instance of optimization problem (2) with its relaxation knobs."""

    T: np.ndarray
    A: np.ndarray
    gamma: float
    beta: float = 5.0
    lam: float = 0.01
    speedup: tuple[SpeedupFunction, ...] | None = None
    #: Entropy regularization weight τ on the relaxed decision variable
    #: (``+ τ Σ x log x``).  Zero for deployment solves; training solves use
    #: a small positive τ so the argmin stays strictly interior and the KKT
    #: system of Eq. (15) is well-posed — the standard decision-focused-
    #: learning smoothing (Wilder et al. 2019); documented in DESIGN.md.
    entropy: float = 0.0
    #: Time-cost functional: ``"makespan"`` is the paper's Eq. (3) max;
    #: ``"linear"`` is Table 1's ablation (1) — the *sum* of cluster times.
    cost: str = "makespan"
    #: Constraint handling: ``"log_barrier"`` is Eq. (9)'s interior-point
    #: term; ``"hinge"`` is Table 1's ablation (2) — the hard penalty
    #: ``λ · max(0, γ − g(X, A))``.
    penalty: str = "log_barrier"
    #: Backs :attr:`is_parallel`; derived in ``__post_init__`` on every build.
    _parallel: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        T = check_matrix(self.T, name="T")
        A = check_matrix(self.A, name="A", shape=T.shape)
        if (T <= 0).any():
            raise ValueError("execution times must be strictly positive")
        if ((A < 0) | (A > 1)).any():
            raise ValueError("reliabilities must lie in [0, 1]")
        check_positive(self.beta, name="beta")
        check_positive(self.lam, name="lam")
        check_positive(self.entropy, name="entropy", strict=False)
        if self.cost not in ("makespan", "linear"):
            raise ValueError(f"cost must be 'makespan' or 'linear', got {self.cost!r}")
        if self.penalty not in ("log_barrier", "hinge"):
            raise ValueError(
                f"penalty must be 'log_barrier' or 'hinge', got {self.penalty!r}"
            )
        T.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "A", A)
        if self.speedup is not None:
            sp = tuple(self.speedup)
            if len(sp) == 1:
                sp = sp * T.shape[0]
            if len(sp) != T.shape[0]:
                raise ValueError(
                    f"need 1 or M={T.shape[0]} speedup functions, got {len(sp)}"
                )
            object.__setattr__(self, "speedup", sp)
            parallel = any(not isinstance(s, IdentitySpeedup) for s in sp)
            object.__setattr__(self, "_parallel", parallel)

    # ------------------------------------------------------------------ #

    @property
    def M(self) -> int:
        """Number of clusters."""
        return self.T.shape[0]

    @property
    def N(self) -> int:
        """Number of tasks."""
        return self.T.shape[1]

    @property
    def is_parallel(self) -> bool:
        """Whether the non-convex parallel-execution objective applies."""
        return self._parallel

    def speedup_tuple(self) -> tuple[SpeedupFunction, ...]:
        """ζ functions, defaulting to identity for the sequential setting."""
        if self.speedup is None:
            return (IdentitySpeedup(),) * self.M
        return self.speedup

    # ------------------------------------------------------------------ #

    def with_predictions(self, T_hat: np.ndarray, A_hat: np.ndarray) -> "MatchingProblem":
        """The same problem instance with predicted matrices swapped in.

        Predicted times are floored at a small positive value and predicted
        reliabilities clipped into [0, 1] so imperfect predictors cannot
        produce an invalid problem.  If the platform's γ is unattainable
        *under the predictions* (a predictor that underestimates
        reliability across the board), γ is clamped to the strictest
        attainable threshold — the platform still enforces the constraint
        as hard as its beliefs allow.
        """
        T_hat = np.maximum(np.asarray(T_hat, dtype=np.float64), 1e-4)
        A_hat = np.clip(np.asarray(A_hat, dtype=np.float64), 0.0, 1.0)
        M = A_hat.shape[0]
        best_val = float(A_hat.max(axis=0).mean() / M)
        uniform_val = float(A_hat.mean() / M)
        attainable = best_val - 0.05 * max(best_val - uniform_val, 1e-5)
        return replace(self, T=T_hat, A=A_hat, gamma=min(self.gamma, attainable))

    def uniform_assignment(self) -> np.ndarray:
        """The barycentric interior point X = 1/M (strictly feasible in the
        box and the simplex; reliability feasibility is checked separately)."""
        return np.full((self.M, self.N), 1.0 / self.M)

    def feasible_start(self) -> np.ndarray:
        """A strictly feasible interior point for the barrier solver.

        Blends the uniform assignment with the reliability-greedy one
        (every task soft-assigned to its most reliable cluster).  The
        slack g(X) is linear in the blend weight α, so the smallest α
        reaching a quarter of the maximum achievable slack is
        closed-form.  Raises if even the greedy assignment is infeasible —
        then γ is unattainable and the instance is ill-posed.
        """
        uniform = self.uniform_assignment()
        s_u = self.reliability_slack(uniform)
        greedy = np.zeros(self.T.shape)
        greedy[self.A.argmax(axis=0), np.arange(self.N)] = 1.0
        s_g = self.reliability_slack(greedy)
        if s_g <= 0:
            raise ValueError(
                f"gamma={self.gamma:.4f} is unattainable: even the most reliable "
                f"assignment has slack {s_g:.4g}"
            )
        target = 0.25 * s_g
        if s_u >= target:
            return uniform
        # α at which the blend reaches the margin target; additionally step
        # a fixed fraction past the exact feasibility point so the start is
        # strictly interior even when s_g is tiny relative to |s_u|.
        alpha_target = (target - s_u) / (s_g - s_u)
        alpha_feasible = (0.0 - s_u) / (s_g - s_u)
        alpha = max(alpha_target, alpha_feasible + 0.25 * (1.0 - alpha_feasible))
        alpha = min(alpha, 1.0 - 1e-6)
        return (1.0 - alpha) * uniform + alpha * greedy

    def reliability_slack(self, X: np.ndarray) -> float:
        """g(X, A) of Eq. (4): mean-reliability surplus over γ."""
        return float(np.add.reduce(X * self.A, None) / self.A.size - self.gamma)

    def is_strictly_feasible(self, X: np.ndarray) -> bool:
        """Whether X is interior w.r.t. the reliability constraint."""
        return self.reliability_slack(X) > 0.0


def feasible_gamma(
    T: np.ndarray,
    A: np.ndarray,
    *,
    quantile: float = 0.5,
) -> float:
    """Pick a γ that is demanding but attainable for the given instance.

    γ is on the scale of Eq. (4) — the sum of assigned reliabilities divided
    by M·N, i.e. ``mean assigned reliability / M``.  We interpolate between
    the value achieved by the uniform assignment (always feasible, value =
    mean(A)/M) and the best achievable (assign every task to its most
    reliable cluster): ``quantile = 0`` gives the former, ``1`` the latter.
    """
    A = check_matrix(A, name="A")
    M, N = A.shape
    uniform_val = float(A.mean() / M)
    best_val = float(A.max(axis=0).mean() / M)
    if not 0.0 <= quantile <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {quantile}")
    # Back off by a hair so the threshold is always *strictly* attainable —
    # degenerate instances (constant A, quantile 1) would otherwise leave
    # the log barrier with an empty interior.
    return uniform_val + quantile * (best_val - uniform_val) - 1e-6
