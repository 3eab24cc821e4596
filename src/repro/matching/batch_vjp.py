"""Batched KKT adjoint: Eq. (15) pulled back for a whole batch.

:func:`repro.matching.kkt.kkt_vjp` solves one (P+N)×(P+N) saddle system
per instance.  MFCP's fused training round needs the adjoint of *all* M
semi-predicted instances of an epoch; this module assembles and factors
their systems one instance at a time in one reused ``(P+N, P+N)``
workspace, which holds the constraint blocks ``Dᵀ``/``D`` once, with one
``np.linalg.solve`` per instance.  Stacking the B systems would hold B
dense Hessians, their temporaries and LAPACK's copy of the stack at once
— in ``train_mfcp`` the largest allocation of an episode — for no fewer
factorizations: a stacked ``solve`` runs the same LAPACK call per
instance, so the bytes are the same either way.  Each ``H`` is written
in place with the elementwise operations, order and operands of the
stacked form, which ``tests/test_kkt_exact.py`` keeps as its oracle.

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
from repro.telemetry import counter_add

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
    """Vector–Jacobian products through B argmins, one saddle solve each.

    Parameters
    ----------
    X_star:
        Relaxed optimal matchings, shape (B, M, N).
    problem:
        The batch whose ``T``/``A`` are the prediction matrices.
    grad_X:
        Upstream gradients ``dL/dX*`` per instance, shape (B, M, N).

    If any instance's saddle system is singular, every instance is solved
    again by the scalar path's least-squares-capable
    :func:`~repro.matching.kkt._solve_saddle`, and
    ``train/kkt_stacked_fallbacks`` counts the batch once.
    """
    B, M, N = problem.B, problem.M, problem.N
    P = M * N
    if X_star.shape != (B, M, N) or grad_X.shape != (B, M, N):
        raise ValueError(f"X_star and grad_X must have shape {(B, M, N)}")
    if problem.real is not None:
        raise ValueError("the KKT system assumes M*N variables: no ragged batches")
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
    w_row = np.repeat(w, N, axis=1)  # (B, P)
    cluster_of = np.repeat(np.arange(M), N)
    same_cluster = (cluster_of[:, None] == cluster_of[None, :]).astype(np.float64)
    aa_scale = lam / mn_s**2  # (B,)
    if problem.entropy:
        entropy_diag = problem.entropy / np.maximum(X_star.reshape(B, P), 1e-12)

    # The saddle matrix [[H, Dᵀ], [D, 0]]: D once, H rewritten per instance.
    D = _equality_jacobian(M, N)
    K = np.zeros((P + N, P + N))
    K[:P, P:] = D.T
    K[P:, :P] = D
    H = K[:P, :P]
    H_diag = K.reshape(-1)[:P * (P + N + 1):P + N + 1]
    tmp = np.empty((P, P))

    def hessian(b: int) -> np.ndarray:
        """Write instance ``b``'s H = β(δ_c w − wwᵀ) ∘ ttᵀ + λ aaᵀ/(MNs)²
        (+ entropy diagonal) + ridge into ``K``'s top-left block."""
        w_b, t_b, a_b = w_row[b], t_flat[b], a_flat[b]
        np.multiply(same_cluster, w_b[:, None], out=H)
        np.subtract(H, np.multiply(w_b[:, None], w_b[None, :], out=tmp), out=H)
        np.multiply(beta, H, out=H)
        np.multiply(H, np.multiply(t_b[:, None], t_b[None, :], out=tmp), out=H)
        np.multiply(aa_scale[b], np.multiply(a_b[:, None], a_b[None, :], out=tmp), out=tmp)
        np.add(H, tmp, out=H)
        if problem.entropy:
            np.add(H_diag, entropy_diag[b], out=H_diag)
        np.add(H_diag, RIDGE, out=H_diag)
        return H

    g_flat = grad_X.reshape(B, P)
    rhs = np.zeros((P + N, 1))
    u = np.empty((B, P))
    try:
        for b in range(B):
            hessian(b)
            rhs[:P, 0] = g_flat[b]
            u[b] = np.linalg.solve(K, rhs)[:P, 0]
    except np.linalg.LinAlgError:
        # A singular instance: every instance takes the scalar path.
        counter_add("train/kkt_stacked_fallbacks")
        for b in range(B):
            u[b] = _solve_saddle(hessian(b), D, g_flat[b], 0.0)
    U = u.reshape(B, M, N)

    S = np.einsum("bmn,bmn->bm", T, U)  # Σ_j t_ij u_ij per cluster
    W = np.einsum("bm,bm->b", w, S)
    dT = -(w[:, :, None] * U + beta * X_star * (w * (S - W[:, None]))[:, :, None])
    au = np.einsum("bmn,bmn->b", A, U)
    dA = (lam / mn_s)[:, None, None] * U - aa_scale[:, None, None] * X_star * au[:, None, None]
    return BatchKKTGradients(dT=dT, dA=dA)
