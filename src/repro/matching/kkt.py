"""Analytical differentiation of the optimal matching via KKT conditions.

Implements Eq. (13)–(15) of the paper (the Donti et al. / OptNet route) for
the convex sequential objective: at the relaxed optimum ``X*`` of

    min_X F(X, T, A)   s.t.  Σ_i x_i = 1_N,

the stationarity + primal feasibility system

    Φ(X, ν) = [ ∇_X F + Dᵀν ;  D vec(X) − 1_N ] = 0

implicitly defines ``X*(T, A)``.  Totally differentiating (paper Eq. 15,
with the box-constraint multiplier blocks dropped — the paper itself
"disregards the constraints on the range of X", which is sound because the
mirror-descent iterates stay strictly inside the box) gives

    [ H  Dᵀ ] [dX]    [ ∇²_XT F · dT + ∇²_XA F · dA ]
    [ D  0  ] [dν]  = −[ 0 ]

where ``D`` is the per-task equality Jacobian.  Training only needs the
vector–Jacobian product ``(∂X*/∂T)ᵀ ḡ`` for an upstream gradient ``ḡ =
dL/dX*``; since the KKT matrix is symmetric we solve one adjoint system

    [ H  Dᵀ ] [u]   [ ḡ ]
    [ D  0  ] [w] = [ 0 ]

and read off ``dL/dT = −C_Tᵀ u`` and ``dL/dA = −C_Aᵀ u``.

The Hessian ``H`` of the barrier objective is positive semidefinite but can
be singular (log-sum-exp has flat directions); a small Tikhonov term keeps
the saddle system well-posed — standard interior-point practice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.matching.objectives import barrier_second_derivatives
from repro.matching.problem import MatchingProblem
from repro.telemetry import counter_add

__all__ = ["KKTGradients", "kkt_vjp", "kkt_jacobians"]

#: Tikhonov regularization on H for numerical stability (scalar and batched routes).
RIDGE = 1e-8


@dataclass(frozen=True)
class KKTGradients:
    """Upstream gradients mapped through the argmin: dL/dT and dL/dA."""

    dT: np.ndarray  # shape (M, N)
    dA: np.ndarray  # shape (M, N)


def _equality_jacobian(m: int, n: int) -> np.ndarray:
    """D ∈ R^{N×MN}: row j selects x_{ij} over all clusters i (row-major vec)."""
    D = np.zeros((n, m * n))
    for i in range(m):
        D[np.arange(n), i * n + np.arange(n)] = 1.0
    return D


def _solve_saddle(
    H: np.ndarray, D: np.ndarray, rhs_top: np.ndarray, ridge: float
) -> np.ndarray:
    """Solve the symmetric saddle system for the top block ``u``."""
    p, n = H.shape[0], D.shape[0]
    K = np.zeros((p + n, p + n))
    K[:p, :p] = H + ridge * np.eye(p)
    K[:p, p:] = D.T
    K[p:, :p] = D
    rhs = np.concatenate([rhs_top, np.zeros(n)])
    try:
        with warnings.catch_warnings():
            # Near-boundary optima make H stiff; the lstsq fallback handles
            # genuinely singular systems, so the warning is just noise.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            sol = scipy.linalg.solve(K, rhs, assume_a="sym")
    except scipy.linalg.LinAlgError:
        counter_add("train/kkt_lstsq_fallbacks")
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:p]


def kkt_vjp(X_star: np.ndarray, problem: MatchingProblem, grad_X: np.ndarray) -> KKTGradients:
    """Vector–Jacobian product through the argmin (the MFCP-AD backward).

    Parameters
    ----------
    X_star:
        Relaxed optimal matching at the *predicted* matrices.
    problem:
        The instance whose ``T``/``A`` are the prediction matrices
        ``T̂``/``Â`` (differentiation happens w.r.t. these).
    grad_X:
        Upstream gradient ``dL/dX*`` (M×N).

    Returns
    -------
    KKTGradients with ``dL/dT̂`` and ``dL/dÂ`` (each M×N).
    """
    M, N = problem.M, problem.N
    if X_star.shape != (M, N) or grad_X.shape != (M, N):
        raise ValueError("X_star and grad_X must have shape (M, N)")
    deriv = barrier_second_derivatives(X_star, problem)
    D = _equality_jacobian(M, N)
    u = _solve_saddle(deriv.H, D, grad_X.ravel(), RIDGE)
    dT = -(deriv.C_T.T @ u).reshape(M, N)
    dA = -(deriv.C_A.T @ u).reshape(M, N)
    return KKTGradients(dT=dT, dA=dA)


def kkt_jacobians(X_star: np.ndarray, problem: MatchingProblem) -> tuple[np.ndarray, np.ndarray]:
    """Full Jacobians ``∂vec(X*)/∂vec(T)`` and ``∂vec(X*)/∂vec(A)``.

    O((MN)³) — used by tests and the gradient-quality ablation, not by the
    training loop (which uses :func:`kkt_vjp`).
    """
    M, N = problem.M, problem.N
    P = M * N
    deriv = barrier_second_derivatives(X_star, problem)
    D = _equality_jacobian(M, N)
    K = np.zeros((P + N, P + N))
    K[:P, :P] = deriv.H + RIDGE * np.eye(P)
    K[:P, P:] = D.T
    K[P:, :P] = D
    rhs = np.zeros((P + N, 2 * P))
    rhs[:P, :P] = -deriv.C_T
    rhs[:P, P:] = -deriv.C_A
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            sol = scipy.linalg.solve(K, rhs, assume_a="sym")
    except scipy.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:P, :P], sol[:P, P:]
