"""Matching objectives and their analytic gradients.

Implements, on raw NumPy arrays (solver hot path — no autograd tape):

- Eq. (3):   ``makespan(X, T) = max_i x_iᵀ t_i``;
- Eq. (16):  the parallel variant ``max_i ζ_i(x_iᵀ1) · x_iᵀ t_i``;
- Eq. (8/17): the log-sum-exp smoothed makespan f̃;
- Eq. (4):   the reliability constraint value g(X, A) − γ;
- Eq. (9):   the barrier objective ``F = f̃ − λ log(g)`` with its gradient
  ∇_X F used by Algorithm 1, and the cross second derivatives
  ∇²_XX F, ∇²_XT F, ∇²_XA F used by the KKT differentiation (Eq. 15).

All gradients are verified against finite differences in
``tests/test_matching_objectives.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.matching.problem import MatchingProblem
from repro.nn.functional import logsumexp_np, softmax_np

try:
    # The kernel ``np.einsum(..., optimize=False)`` calls after a Python
    # dispatch layer that costs more than the kernel itself at serving
    # shapes (~2.2 vs ~0.9 µs for an 8x3 window, NumPy 2.4 on one
    # AVX-512 x86-64 core).
    from numpy._core.multiarray import c_einsum
except ImportError:  # NumPy < 2
    from numpy.core.multiarray import c_einsum

__all__ = [
    "cluster_loads",
    "makespan",
    "smooth_makespan",
    "smooth_cost",
    "decision_cost",
    "reliability_value",
    "BarrierEval",
    "barrier_value",
    "barrier_gradient",
    "BarrierDerivatives",
    "barrier_second_derivatives",
    "linear_cost",
]


def cluster_loads(X: np.ndarray, problem: MatchingProblem) -> np.ndarray:
    """Per-cluster completion times ``c_i = ζ_i(k_i) · x_iᵀ t_i`` (length M)."""
    sums = c_einsum("ij,ij->i", X, problem.T)
    if not problem.is_parallel:
        return sums
    counts = X.sum(axis=1)
    zeta = np.array([s.value(np.array(k)) for s, k in zip(problem.speedup_tuple(), counts)])
    return zeta.ravel() * sums


def makespan(X: np.ndarray, problem: MatchingProblem) -> float:
    """Eq. (3)/(16): the hard max over cluster completion times."""
    return float(np.maximum.reduce(cluster_loads(X, problem)))


def linear_cost(X: np.ndarray, problem: MatchingProblem) -> float:
    """Ablation (1) of Table 1: sum (instead of max) of cluster times."""
    return float(np.add.reduce(cluster_loads(X, problem)))


def smooth_makespan(X: np.ndarray, problem: MatchingProblem) -> float:
    """Eq. (8)/(17): ``(1/β) log Σ_i exp(β c_i)``."""
    c = cluster_loads(X, problem)
    return float(logsumexp_np(problem.beta * c)) / problem.beta


def smooth_cost(X: np.ndarray, problem: MatchingProblem) -> float:
    """The problem's smooth time-cost: LSE makespan, or the plain sum for
    the ``cost="linear"`` ablation (Table 1, experiment (1))."""
    if problem.cost == "linear":
        return linear_cost(X, problem)
    return smooth_makespan(X, problem)


def decision_cost(X: np.ndarray, problem: MatchingProblem) -> float:
    """The *discrete* cost the matching decision optimizes: the hard max
    for makespan problems, the sum for the linear-cost ablation.  Used by
    rounding and exact solvers so ablation variants make decisions under
    their own objective (evaluation metrics always use the true makespan)."""
    if problem.cost == "linear":
        return linear_cost(X, problem)
    return makespan(X, problem)


def reliability_value(X: np.ndarray, problem: MatchingProblem) -> float:
    """Eq. (4): ``g(X, A) = (1/MN) Σ_i x_iᵀ a_i − γ``."""
    return problem.reliability_slack(X)


_XLOG_EPS = 1e-12


class BarrierEval:
    """Eq. (9) and its gradient for one problem, with carried state.

    The per-problem constants (``T``, ``A``, ``λA``, ``MN``, the
    cost/penalty/ζ dispatch) are hoisted once.  ``value(X)`` returns ``F``
    *and* the intermediates it had to compute anyway — ``(slack, sums,
    zeta, counts, e, esum, logX)``: the reliability slack, row sums
    ``x_iᵀt_i``, ζ values and fractional counts (``None`` when
    sequential), the max-shifted ``exp(βc − max βc)`` with its sum
    (``None`` for linear cost) and ``log max(X, ε)`` (``None`` when τ = 0).
    ``gradient(X, state)`` builds ∇F from that state instead of
    recomputing it.  Reuse is exact: the state holds the very arrays the
    stateless evaluation would rebuild from the same ``X`` with the same
    operations in the same order (LSE and softmax share ``e``/``esum``),
    so a line search that threads an accepted trial's state into the next
    gradient reproduces the per-call results bit for bit.  ``X`` must not
    be mutated between the two calls.
    """

    def __init__(self, problem: MatchingProblem) -> None:
        self.T, self.A = problem.T, problem.A
        self.MN = problem.M * problem.N
        self.gamma, self.beta, self.lam = float(problem.gamma), problem.beta, problem.lam
        self.tau, self.lamA = problem.entropy, problem.lam * problem.A
        self.linear = problem.cost == "linear"
        self.hinge = problem.penalty == "hinge"
        self.zetas = problem.speedup if problem.is_parallel else None

    def value(self, X: np.ndarray) -> tuple[float, tuple | None]:
        """``(F(X), state)``; ``(+inf, None)`` outside the log barrier's
        domain (g ≤ 0), so line searches reject such steps unspecialized.

        Reductions are the ufuncs' own ``reduce`` over the axes ``.sum()``
        / ``.max()`` would take and scalars are Python floats: the same
        IEEE operations in the same order as the method forms, without
        their Python wrappers (tests/test_decide_path_exact.py)."""
        slack = float(np.add.reduce(X * self.A, None)) / self.MN - self.gamma
        if self.hinge:
            pen = self.lam * max(0.0, -slack)
        elif slack <= 0:
            return float("inf"), None
        else:
            pen = -self.lam * float(np.log(slack))
            if not math.isfinite(pen):
                return float("inf"), None
        sums = c_einsum("ij,ij->i", X, self.T)
        c = sums
        zeta = counts = e = esum = logX = None
        if self.zetas is not None:
            counts = np.add.reduce(X, 1)
            zeta = np.array([float(s.value(np.array(k))) for s, k in zip(self.zetas, counts)])
            c = zeta * sums
        if self.linear:
            cost = float(np.add.reduce(c))
        else:
            bc = self.beta * c
            shift = float(np.maximum.reduce(bc))
            e = np.exp(bc - shift)
            esum = float(np.add.reduce(e))
            cost = (float(np.log(esum)) + shift) / self.beta
        ent = 0.0
        if self.tau:
            Xc = np.maximum(X, _XLOG_EPS)
            logX = np.log(Xc)
            ent = self.tau * float(np.add.reduce(Xc * logX, None))
        return cost + pen + ent, (slack, sums, zeta, counts, e, esum, logX)

    def gradient(self, X: np.ndarray, state: tuple | None = None) -> np.ndarray:
        """∇_X F from the state ``value(X)`` returned (evaluated here when
        not given).  With ``w = softmax(β c)`` the smoothed-max term
        contributes ``w_i · ∂c_i/∂x_ij`` where ``∂c_i/∂x_ij = ζ'_i(k_i)·s_i
        + ζ_i(k_i)·t_ij`` (just ``t_ij`` in the sequential case); the
        barrier term contributes ``−λ a_ij / (MN·g)``."""
        if state is None:
            state = self.value(X)[1]
            if state is None:
                raise ValueError("barrier gradient evaluated at an infeasible point (g <= 0)")
        slack, sums, zeta, counts, e, esum, logX = state
        dc = self.T
        if zeta is not None:
            dzeta = np.array([float(s.derivative(np.array(k))) for s, k in zip(self.zetas, counts)])
            dc = (dzeta * sums)[:, None] + zeta[:, None] * self.T
        # Linear cost is w ≡ 1: a fresh writable copy of dc, same bits.
        grad = dc * 1.0 if self.linear else (e / esum)[:, None] * dc
        if not self.hinge:
            grad -= self.lamA / (self.MN * slack)
        elif slack < 0:
            # d/dX λ(γ − g) = −λ A / (MN); zero subgradient when satisfied —
            # exactly the vanishing-gradient pathology Table 1 probes.
            grad -= self.lamA / self.MN
        if self.tau:
            grad += self.tau * (1.0 + logX)
        return grad


def barrier_value(X: np.ndarray, problem: MatchingProblem) -> float:
    """Eq. (9): ``F(X, T, A) = f̃(X, T) − λ log(g(X, A))`` plus the optional
    entropy regularizer ``τ Σ x log x`` (see :class:`MatchingProblem`),
    dispatching on the problem's ``cost``/``penalty`` ablation knobs.
    One-shot wrapper over :class:`BarrierEval` (``+inf`` when g ≤ 0)."""
    return BarrierEval(problem).value(X)[0]


def barrier_gradient(X: np.ndarray, problem: MatchingProblem) -> np.ndarray:
    """∇_X F for Eq. (9), valid for both sequential and parallel objectives;
    one-shot wrapper over :meth:`BarrierEval.gradient`."""
    return BarrierEval(problem).gradient(X)


@dataclass(frozen=True)
class BarrierDerivatives:
    """Second-order data for the KKT linear system (Eq. 15).

    With P = M·N and vec() flattening row-major over (cluster, task):

    - ``H``: ∇²_XX F, shape (P, P);
    - ``C_T``: ∇²_XT F, shape (P, P) — ∂(∇_X F)_{ij} / ∂T_{kl};
    - ``C_A``: ∇²_XA F, shape (P, P) — ∂(∇_X F)_{ij} / ∂A_{kl}.
    """

    H: np.ndarray
    C_T: np.ndarray
    C_A: np.ndarray


def barrier_second_derivatives(X: np.ndarray, problem: MatchingProblem) -> BarrierDerivatives:
    """Analytic ∇²_XX F, ∇²_XT F, ∇²_XA F for the *sequential* objective.

    Only the convex (ζ ≡ 1) case is supported — exactly the regime where
    the paper applies analytical differentiation (MFCP-AD); the parallel
    case uses the zeroth-order path instead.

    Derivation (w = softmax(βc), c_i = x_iᵀt_i, s = g(X,A) = Σ/MN − γ):

    - ∇²_XX: ``β t_ij t_kl (δ_ik w_i − w_i w_k) + λ a_ij a_kl / (MN s)²``
    - ∇²_XT: ``w_i δ_ik δ_jl + β t_ij x_kl (δ_ik w_i − w_i w_k)``
    - ∇²_XA: ``−λ δ_ik δ_jl / (MN s) + λ a_ij x_kl / (MN s)² / 1``
      (from differentiating ``−λ a_ij/(MN s)`` w.r.t. a_kl, using
      ∂s/∂a_kl = x_kl / MN).
    """
    if problem.is_parallel:
        raise ValueError(
            "analytic second derivatives require the sequential (convex) objective; "
            "use the zeroth-order estimator for parallel execution"
        )
    M, N = problem.M, problem.N
    P = M * N
    T, A = problem.T, problem.A
    beta, lam = problem.beta, problem.lam

    c = np.einsum("ij,ij->i", X, T)
    slack = reliability_value(X, problem)

    t_flat = T.ravel()
    a_flat = A.ravel()
    x_flat = X.ravel()
    eye = np.eye(P)

    if problem.cost == "linear":
        # ∇_X f = T exactly: no curvature, unit cross-derivative.
        H = np.zeros((P, P))
        C_T = eye.copy()
    else:
        w = softmax_np(beta * c)
        w_row = np.repeat(w, N)  # w_i broadcast over tasks, length P
        cluster_of = np.repeat(np.arange(M), N)
        same_cluster = (cluster_of[:, None] == cluster_of[None, :]).astype(np.float64)
        # d w_i / d c_k = β (δ_ik w_i − w_i w_k); expand to P×P through t/x.
        dw = beta * (same_cluster * w_row[:, None] - np.outer(w_row, w_row))
        H = dw * np.outer(t_flat, t_flat)
        C_T = w_row[:, None] * eye + dw * np.outer(t_flat, x_flat)

    if problem.penalty == "hinge":
        # Piecewise linear: zero curvature; ∂(∇_X F)/∂A = −λ/(MN)·I only
        # while the constraint is violated, zero otherwise — the
        # degenerate gradients the interior-point method is there to fix.
        C_A = (-(lam / (M * N)) * eye) if slack < 0 else np.zeros((P, P))
    else:
        if slack <= 0:
            raise ValueError("second derivatives evaluated at an infeasible point (g <= 0)")
        mn_s = M * N * slack
        H = H + (lam / mn_s**2) * np.outer(a_flat, a_flat)
        # ∂/∂a_kl [−λ a_ij/(MN s)] with ∂s/∂a_kl = x_kl/(MN):
        C_A = -(lam / mn_s) * eye + (lam / (mn_s**2)) * np.outer(a_flat, x_flat)

    if problem.entropy:
        H = H + np.diag(problem.entropy / np.maximum(x_flat, _XLOG_EPS))

    return BarrierDerivatives(H=H, C_T=C_T, C_A=C_A)
