"""The batch solve gives every instance the bytes it gets alone.

``solve_relaxed_batch`` freezes an instance once it stops improving and
compacts the active set; its working set is one workspace allocated per
solve, and compaction rewrites that workspace's leading rows in place.
Both are exact only if an instance's iterates are a function of that
instance alone: no reduction, step scale or trial cascade may read a
neighbour.  ``test_each_instance_solves_alike_in_any_batch`` holds each
instance's ``X``, ``objective`` and ``converged`` to the same bytes in
the whole batch, in splits into two sub-batches and alone (``iterations``
and ``trials`` count the whole batch, so they are not compared).

The frozen digests pin the bytes of three solves at the benchmark's
shapes, recorded before the workspace replaced per-iteration arrays:
``zo_vjp_cross``'s ``(dt, da)`` at ``train_mfcp``'s shape, the ragged
float32 batch of one ``serve_wide`` window and one float64 fused training
round.  They were recorded with NumPy 2.4 on x86-64 with AVX-512, whose
``exp``/``log`` kernels set the last bits of a float32 solve.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.clusters import make_specialist_pool, truth_matrices
from repro.matching import (
    BatchProblem,
    MatchingProblem,
    SolverConfig,
    ZeroOrderConfig,
    batch_barrier_gradient,
    clamp_predictions_batch,
    feasible_gamma,
    solve_relaxed_batch,
    solve_relaxed_blocks,
    zo_vjp_cross,
)
from repro.matching import blocks
from repro.methods import MatchSpec
from repro.workloads import TaskPool

SERVING = SolverConfig(tol=1e-4, max_iters=400)


def _batch(rng, B, M, N, dtype, entropy, ragged) -> BatchProblem:
    widths = rng.integers(1, N + 1, B) if ragged else np.full(B, N)
    widths[0] = N  # the widest instance sets N
    real = np.arange(N) < widths[:, None]
    T = rng.uniform(0.3, 4.0, (B, M, N)) * real[:, None, :]
    A = rng.uniform(0.6, 1.0, (B, M, N)) * real[:, None, :]
    # Every third instance demands nearly the best attainable reliability.
    tight = np.where(np.arange(B) % 3 == 1, 0.97, 0.6)
    gamma = tight * A.max(axis=1).sum(axis=1) / (M * widths)
    return BatchProblem(T=T, A=A, gamma=gamma, dtype=dtype, entropy=entropy,
                        widths=widths if ragged else None)


def _sub(p: BatchProblem, idx: np.ndarray) -> BatchProblem:
    """Instances ``idx`` of ``p`` as their own batch, N kept."""
    return BatchProblem(T=p.T[idx], A=p.A[idx], gamma=p.gamma[idx], beta=p.beta,
                        lam=p.lam, entropy=p.entropy, dtype=p.dtype,
                        widths=p.widths[idx])


def _instances(sol, idx) -> tuple[bytes, bytes, bytes]:
    return (np.ascontiguousarray(sol.X[idx]).tobytes(), sol.objective[idx].tobytes(),
            sol.converged[idx].tobytes())


@pytest.mark.parametrize("dtype,adaptive", list(itertools.product(
    (np.float32, np.float64), (False, True))))
def test_each_instance_solves_alike_in_any_batch(dtype, adaptive):
    rng = np.random.default_rng([47, adaptive, np.dtype(dtype).itemsize])
    B, compacted = 7, 0
    for entropy, ragged in itertools.product((0.0, 0.05), (False, True)):
        M, N = int(rng.integers(2, 7)), int(rng.integers(3, 13))
        p = _batch(rng, B, M, N, dtype, entropy, ragged)
        kw = dict(max_iters=80, tol=1e-3, adaptive_trials=adaptive)
        cold = solve_relaxed_batch(p, **kw)
        x0 = np.maximum(cold.X + rng.uniform(0.0, 0.2, cold.X.shape), 1e-6)
        x0 /= x0.sum(axis=1, keepdims=True)
        some = np.isin(np.arange(B), rng.permutation(B)[:3])
        for start in (None, x0):
            whole = solve_relaxed_batch(p, x0=start, **kw)
            compacted += int(whole.converged.any())
            for mask in (np.arange(B) < B // 2, some):
                for part in (mask.nonzero()[0], (~mask).nonzero()[0]):
                    seed = None if start is None else start[part]
                    sub = solve_relaxed_batch(_sub(p, part), x0=seed, **kw)
                    assert _instances(sub, slice(None)) == _instances(whole, part)
            for b in range(B):
                seed = None if start is None else start[b:b + 1]
                alone = solve_relaxed_batch(_sub(p, np.array([b])), x0=seed, **kw)
                assert _instances(alone, slice(None)) == _instances(whole, [b])
    assert compacted >= 6  # instances froze mid-solve in most cases


def test_gradient_of_a_broadcast_batch_is_c_ordered():
    """MFCP's upstream gradient evaluates M instances over one broadcast
    truth (``T`` with stride 0 on the instance axis).  The gradient comes
    back C-ordered, as the ufunc expression it replaced returned it:
    ``zo_vjp_cross`` contracts it with ``einsum``, whose summation order
    follows the operands' strides, so an instance-innermost layout moved
    the FG weights."""
    batch, _ = _training_batch(6)
    M, N = batch.M, batch.N
    T_true, A_true = batch.T[-1], batch.A[-1]
    true_batch = BatchProblem(T=np.broadcast_to(T_true, (M, M, N)),
                              A=np.broadcast_to(A_true, (M, M, N)),
                              gamma=np.full(M, batch.gamma[-1]), beta=batch.beta,
                              lam=batch.lam, entropy=batch.entropy)
    X = solve_relaxed_batch(batch, max_iters=50).X
    floor = np.full(M, 1e-3)
    g = batch_barrier_gradient(X, true_batch, slack=floor)
    dense = BatchProblem(T=true_batch.T.copy(), A=true_batch.A.copy(), gamma=true_batch.gamma,
                         beta=batch.beta, lam=batch.lam, entropy=batch.entropy)
    assert g.flags.c_contiguous
    assert g.tobytes() == batch_barrier_gradient(X, dense, slack=floor).tobytes()


# --------------------------------------------------------------------- #
# Frozen digests at the benchmark's shapes.
# --------------------------------------------------------------------- #

#: SHA-256 of ``zo_vjp_cross``'s ``dt`` then ``da`` bytes.
ZO_SHA256 = "2c374f38ecf649bd05da6c59129ffab6ae2d8abc6ae1fadc8732a349d44d69bb"
#: SHA-256 of the ragged float32 block batch's ``X`` then ``objective``.
WINDOW_SHA256 = "9fe58ee446ab62715a0fdcbe3a33037d98d741d756d6cf3b87d69f45f15676e6"
#: SHA-256 of the float64 fused round's ``X`` then ``objective``.
ROUND_SHA256 = "5cf15c1617afd9a81b4386733a9a0b697abe03ae9e1559c428082f65158aadef"


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _training_batch(seed: int, K: int = 8, M: int = 8, N: int = 20):
    """K instances of one training round, each with cluster k's rows
    predicted (``train_mfcp``'s M = 8, N = 20), clamped as MFCP clamps,
    and their relaxed optima and upstream gradients."""
    rng = np.random.default_rng(seed)
    T_true = rng.uniform(0.2, 2.5, (M, N))
    A_true = rng.uniform(0.55, 0.99, (M, N))
    truth = MatchSpec().build_problem(T_true, A_true, training=True)
    T = np.broadcast_to(T_true, (K, M, N)).copy()
    A = np.broadcast_to(A_true, (K, M, N)).copy()
    diag = np.arange(min(K, M))  # an instance past M is the oracle
    T[diag, diag] *= rng.uniform(0.7, 1.3, (diag.size, N))
    A[diag, diag] += rng.normal(0.0, 0.05, (diag.size, N))
    T_b, A_b, gammas = clamp_predictions_batch(T, A, truth.gamma)
    return BatchProblem(T=T_b, A=A_b, gamma=gammas, beta=truth.beta, lam=truth.lam,
                        entropy=truth.entropy), rng


def zo_digest() -> str:
    """``zo_vjp_cross`` at ``train_mfcp``'s shape: K = 8 base instances of
    8 x 20, S = 8 samples, a float32 stack of 128 perturbed instances, 60
    warm-start iterations."""
    batch, rng = _training_batch(1)
    scfg = MatchSpec().solver
    X = solve_relaxed_batch(batch, lr=scfg.lr, max_iters=scfg.max_iters, tol=scfg.tol,
                            patience=scfg.patience).X
    gX = rng.normal(size=X.shape) / batch.N
    cfg = ZeroOrderConfig(samples=8, delta=0.05, warm_start_iters=60, vectorized=True)
    zg = zo_vjp_cross(batch, X, np.arange(batch.B), gX, cfg,
                      solver_config=scfg, rng=2)
    assert zg.solves == 128 and zg.dt.dtype == np.float64
    return _sha(zg.dt, zg.da)


def window_digest(monkeypatch) -> str:
    """The one ``solve_relaxed_batch`` call of a cold ``serve_wide``
    window: 64 tasks on 24 specialist clusters, ragged float32 blocks."""
    clusters = make_specialist_pool(24)
    pool = TaskPool(256, rng=0).tasks
    cols = np.random.default_rng(3).choice(len(pool), 64, replace=False)
    T, A = truth_matrices(clusters, [pool[int(c)] for c in cols])
    problem = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5))
    calls = []

    def solve(p, **kw):
        calls.append((p, solve_relaxed_batch(p, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(blocks, "solve_relaxed_batch", solve)
    solve_relaxed_blocks(problem, SERVING)
    ((p, sol),) = calls
    assert p.real is not None and p.T.dtype == np.float32 and p.B > 2
    return _sha(sol.X, sol.objective)


def round_digest() -> str:
    """One float64 fused round: M semi-predicted instances and the oracle,
    cold-started, at the training solver's cascade settings."""
    batch, _ = _training_batch(4, K=9)
    scfg = MatchSpec().solver
    sol = solve_relaxed_batch(batch, lr=scfg.lr, max_iters=scfg.max_iters, tol=scfg.tol,
                              patience=scfg.patience)
    assert sol.X.dtype == np.float64 and sol.converged.any()
    return _sha(sol.X, sol.objective)


def test_zo_stack_bytes_are_frozen():
    assert zo_digest() == ZO_SHA256


def test_serve_wide_window_bytes_are_frozen(monkeypatch):
    assert window_digest(monkeypatch) == WINDOW_SHA256


def test_fused_round_bytes_are_frozen():
    assert round_digest() == ROUND_SHA256
