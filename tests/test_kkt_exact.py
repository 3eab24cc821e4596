"""The KKT adjoint factors one instance at a time and returns the same bytes.

:func:`repro.matching.batch_vjp.batch_kkt_vjp` used to assemble the saddle
systems of all B instances as one ``(B, P+N, P+N)`` stack of dense
temporaries and factor them with one stacked ``np.linalg.solve``.  It now
writes each instance's Hessian in place into one reused workspace and
solves it alone.  A stacked solve runs the same LAPACK call per instance,
and each Hessian keeps the stacked expression's operations, operands and
order, so nothing may move: ``_ref_batch_kkt_vjp`` below is the previous
implementation kept verbatim (renamed) and is the oracle for ``dT``,
``dA`` and the fallback counters, byte for byte.  The footprint bound
holds one call at ``train_mfcp``'s shape (8 instances of 8 clusters × 20
tasks) under the stacked assembly's peak.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.matching.batch import BatchProblem, batch_reliability_slack, solve_relaxed_batch
from repro.matching.batch_vjp import BatchKKTGradients, batch_kkt_vjp
from repro.matching.kkt import RIDGE, _equality_jacobian, _solve_saddle
from repro.telemetry import counter_add, recording

#: Traced bytes one ``batch_kkt_vjp`` call may peak at, at ``train_mfcp``'s
#: shape: ~0.81 MB per instance workspace, against ~6.5 MB stacked.
FOOTPRINT_BOUND = 1.5e6


def _ref_batch_kkt_vjp(
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
        counter_add("train/kkt_stacked_fallbacks")
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


def _batch(B: int, M: int, N: int, entropy: float, seed: int) -> BatchProblem:
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.2, 2.5, (B, M, N))
    A = rng.uniform(0.55, 0.99, (B, M, N))
    return BatchProblem(T=T, A=A, gamma=np.full(B, 0.5 / M), beta=5.0, lam=0.05,
                        entropy=entropy)


def _solved(B: int, M: int, N: int, entropy: float, seed: int = 0):
    problem = _batch(B, M, N, entropy, seed)
    X = solve_relaxed_batch(problem, lr=0.5, max_iters=300, tol=1e-9).X
    gX = np.random.default_rng(seed + 1).normal(size=X.shape) / N
    return X, problem, gX


def _run(fn, X, problem, gX):
    with recording() as rec:
        out = fn(X, problem, gX)
        counters = rec.aggregate()["counters"]
    return out, {k: v["value"] for k, v in counters.items() if k.startswith("train/")}


def _assert_same(X, problem, gX):
    got, got_counts = _run(batch_kkt_vjp, X, problem, gX)
    want, want_counts = _run(_ref_batch_kkt_vjp, X, problem, gX)
    assert got.dT.tobytes() == want.dT.tobytes()
    assert got.dA.tobytes() == want.dA.tobytes()
    assert got_counts == want_counts
    return got_counts


@pytest.mark.parametrize("entropy", [0.0, 0.05])
@pytest.mark.parametrize("B", [1, 3, 8, 9])
@pytest.mark.parametrize("M,N", [(2, 3), (4, 9), (8, 20)])
def test_per_instance_adjoint_is_the_stacked_one(B, M, N, entropy):
    X, problem, gX = _solved(B, M, N, entropy, seed=B + M)
    assert _assert_same(X, problem, gX) == {}


def test_one_singular_instance_sends_the_batch_to_the_scalar_path():
    """Instance 1 is exactly singular (equal times of 2^20 swallow the
    ridge, zero reliabilities null the λ term, X = 1/2); its neighbours
    are regular.  Both implementations solve every instance by the
    scalar path and count the batch once."""
    B, M, N = 3, 2, 2
    T = np.random.default_rng(4).uniform(0.5, 2.0, (B, M, N))
    T[1] = 2.0**20
    problem = BatchProblem(T=T, A=np.zeros((B, M, N)), gamma=np.full(B, -0.5),
                           beta=1.0, lam=0.01)
    gX = np.random.default_rng(2).normal(size=(B, M, N))
    counts = _assert_same(np.full((B, M, N), 0.5), problem, gX)
    assert counts["train/kkt_stacked_fallbacks"] == 1


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_call_at_train_mfcps_shape_stays_under_the_bound():
    X, problem, gX = _solved(8, 8, 20, 0.0)
    batch_kkt_vjp(X, problem, gX)  # warm: first-call caches are not the call's
    peak = _traced_peak(batch_kkt_vjp, X, problem, gX)
    stacked = _traced_peak(_ref_batch_kkt_vjp, X, problem, gX)
    assert peak <= FOOTPRINT_BOUND < stacked, (peak, stacked)
