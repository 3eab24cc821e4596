"""Batched KKT adjoint: Eq. (15) pulled back for a whole batch at once.

:func:`repro.matching.kkt.kkt_vjp` solves one (P+N)×(P+N) saddle system
per instance.  MFCP's fused training round needs the adjoint of *all* M
semi-predicted instances of an epoch; this module stacks the systems into
one ``(B, P+N, P+N)`` array and factorizes them with a single
``np.linalg.solve`` call — one LAPACK dispatch instead of B Python
round-trips.

The downstream contractions ``dT = −C_Tᵀ u`` and ``dA = −C_Aᵀ u`` are
evaluated in closed form instead of materializing the B×P×P cross-
derivative blocks.  With ``w = softmax(βc)``, ``S_i = Σ_j t_ij u_ij``,
``W = Σ_i w_i S_i`` and ``s`` the reliability slack:

    (C_Tᵀ u)_ij = w_i u_ij + β x_ij w_i (S_i − W)
    (C_Aᵀ u)_ij = −λ u_ij / (MNs) + λ x_ij ⟨A, U⟩ / (MNs)²

which follow by contracting the Eq. (15) cross-derivative formulas of
:func:`repro.matching.objectives.barrier_second_derivatives`.  Agreement
with the scalar route is asserted per instance in
``tests/test_batch_training.py``.

Only the sequential (convex) makespan-barrier objective is supported —
the same regime as :class:`repro.matching.batch.BatchProblem`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.batch import BatchProblem, batch_reliability_slack
from repro.matching.kkt import RIDGE, _equality_jacobian, _solve_saddle

__all__ = ["BatchKKTGradients", "batch_kkt_vjp"]


@dataclass(frozen=True)
class BatchKKTGradients:
    """Upstream gradients mapped through every instance's argmin."""

    dT: np.ndarray  # (B, M, N)
    dA: np.ndarray  # (B, M, N)


def batch_kkt_vjp(
    X_star: np.ndarray,
    problem: BatchProblem,
    grad_X: np.ndarray,
) -> BatchKKTGradients:
    """Vector–Jacobian products through B argmins in one stacked solve.

    Parameters
    ----------
    X_star:
        Relaxed optimal matchings, shape (B, M, N).
    problem:
        The batch whose ``T``/``A`` are the prediction matrices.
    grad_X:
        Upstream gradients ``dL/dX*`` per instance, shape (B, M, N).
    """
    B, M, N = problem.B, problem.M, problem.N
    P = M * N
    if X_star.shape != (B, M, N) or grad_X.shape != (B, M, N):
        raise ValueError(f"X_star and grad_X must have shape {(B, M, N)}")
    if problem.real is not None:
        raise ValueError("the stacked KKT system assumes M*N variables: no ragged batches")
    T, A = problem.T, problem.A
    beta, lam = problem.beta, problem.lam

    c = np.einsum("bmn,bmn->bm", X_star, T)
    w = np.exp(beta * (c - c.max(axis=1, keepdims=True)))
    w /= w.sum(axis=1, keepdims=True)  # (B, M)
    slack = batch_reliability_slack(X_star, problem)
    if np.any(slack <= 0):
        raise ValueError("KKT differentiation evaluated at an infeasible point (g <= 0)")
    mn_s = M * N * slack  # (B,)

    t_flat = T.reshape(B, P)
    a_flat = A.reshape(B, P)
    x_flat = X_star.reshape(B, P)
    w_row = np.repeat(w, N, axis=1)  # (B, P)
    cluster_of = np.repeat(np.arange(M), N)
    same_cluster = (cluster_of[:, None] == cluster_of[None, :]).astype(np.float64)

    # H = β(δ_c w − wwᵀ) ∘ ttᵀ + λ aaᵀ/(MNs)² (+ entropy diagonal), batched.
    dw = beta * (
        same_cluster[None] * w_row[:, :, None] - w_row[:, :, None] * w_row[:, None, :]
    )
    H = dw * (t_flat[:, :, None] * t_flat[:, None, :])
    H += (lam / mn_s**2)[:, None, None] * (a_flat[:, :, None] * a_flat[:, None, :])
    diag = np.arange(P)
    if problem.entropy:
        H[:, diag, diag] += problem.entropy / np.maximum(x_flat, 1e-12)
    H[:, diag, diag] += RIDGE

    D = _equality_jacobian(M, N)
    K = np.zeros((B, P + N, P + N))
    K[:, :P, :P] = H
    K[:, :P, P:] = D.T
    K[:, P:, :P] = D
    rhs = np.concatenate([grad_X.reshape(B, P), np.zeros((B, N))], axis=1)
    try:
        u = np.linalg.solve(K, rhs[..., None])[..., 0][:, :P]
    except np.linalg.LinAlgError:
        # A singular instance poisons the whole stacked factorization; fall
        # back to the scalar least-squares-capable path per instance.
        u = np.stack(
            [_solve_saddle(H[b], D, grad_X[b].ravel(), 0.0) for b in range(B)]
        )
    U = u.reshape(B, M, N)

    S = np.einsum("bmn,bmn->bm", T, U)  # Σ_j t_ij u_ij per cluster
    W = np.einsum("bm,bm->b", w, S)
    dT = -(w[:, :, None] * U + beta * X_star * (w * (S - W[:, None]))[:, :, None])
    au = np.einsum("bmn,bmn->b", A, U)
    dA = (lam / mn_s)[:, None, None] * U - (lam / mn_s**2)[
        :, None, None
    ] * X_star * au[:, None, None]
    return BatchKKTGradients(dT=dT, dA=dA)
