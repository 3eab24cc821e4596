"""Algorithm 2's zeroth-order (forward) gradient estimator.

For the non-convex parallel objective no usable KKT system exists, so the
paper estimates the Jacobian of the argmin by Gaussian smoothing: perturb
the predicted vectors of *one* cluster ``i`` along directions ``v ~ N(0,I)``,
re-solve the matching, and average directional differences

    ∇ₛ X* ≈ (X*(t̂ᵢ + Δ v) − X*(t̂ᵢ)) / Δ · v       (lines 9–10)

Training needs only the vector–Jacobian product with the upstream regret
gradient ``ḡ = dL/dX*``; contracting first keeps the estimator cheap:

    dL/dt̂ᵢ ≈ (1/S) Σₛ ⟨(X*ₚ − X*)/Δ, ḡ⟩ · vₛ

Perturbed solves are warm-started from the base solution — a small
perturbation moves the optimum slightly, so a handful of iterations
suffices (this is what makes S-sample estimation affordable; Eq. 21's
K₂ ≪ K₁).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.matching.batch import (
    BatchProblem,
    batchable,
    clamp_predictions_batch,
    solve_relaxed_batch,
)
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import RelaxedSolution, SolverConfig, solve_relaxed
from repro.telemetry import SIZE_BUCKETS, VARIANCE_BUCKETS, get_recorder
from repro.utils.rng import as_generator

__all__ = [
    "ZeroOrderConfig",
    "ZeroOrderGradients",
    "CrossZeroOrderGradients",
    "zo_vjp",
    "zo_vjp_cross",
]


@dataclass(frozen=True)
class ZeroOrderConfig:
    """Hyperparameters of the forward-gradient estimator (Alg. 2 inputs)."""

    samples: int = 8  # S, drawn as S/2 antithetic +v/−v pairs (variance reduction)
    delta: float = 0.05  # Δ
    warm_start_iters: int = 60  # K₂: iterations for each perturbed solve
    #: :func:`zo_vjp` only: solve all perturbed instances in one batch —
    #: :func:`zo_vjp_cross` over the single base instance — where the batch
    #: kernel expresses the program (:func:`repro.matching.batch.batchable`);
    #: any other program keeps the scalar solves below, bit for bit.
    vectorized: bool = False
    #: Precision of the fused cross-cluster perturbation stack
    #: (:func:`zo_vjp_cross` only).  float32 halves the memory traffic of
    #: the K·2S simultaneous solves — the estimator's O(Δ) smoothing bias
    #: dwarfs the extra rounding noise (asserted in the tests).  Set
    #: ``np.float64`` for full-precision perturbed solves.
    cross_dtype: type = np.float32
    #: Early-stop tolerance for the fused perturbation stack
    #: (:func:`zo_vjp_cross` only; the effective tolerance is
    #: ``max(solver tol, inner_tol)``).  The perturbed optima only feed a
    #: finite difference at scale Δ, so iterating a warm-started solve
    #: past per-step improvements of ~1e−5 buys no estimator accuracy —
    #: like ``warm_start_iters``, this bounds inner-solve effort.  Set to
    #: 0 to inherit the solver's own tolerance.
    inner_tol: float = 1e-5

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError(f"samples must be > 0, got {self.samples}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.warm_start_iters <= 0:
            raise ValueError("warm_start_iters must be > 0")
        if self.cross_dtype not in (np.float32, np.float64):
            raise ValueError("cross_dtype must be np.float32 or np.float64")
        if self.inner_tol < 0:
            raise ValueError(f"inner_tol must be >= 0, got {self.inner_tol}")


@dataclass(frozen=True)
class ZeroOrderGradients:
    """Estimated dL/dt̂ᵢ and dL/dâᵢ for the perturbed cluster."""

    dt: np.ndarray  # shape (N,)
    da: np.ndarray  # shape (N,)
    solves: int  # number of inner matching solves performed


def zo_vjp(
    base_problem: MatchingProblem,
    base_solution: RelaxedSolution,
    cluster: int,
    grad_X: np.ndarray,
    config: ZeroOrderConfig | None = None,
    *,
    solver_config: SolverConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> ZeroOrderGradients:
    """Estimate ``dL/dt̂ᵢ`` and ``dL/dâᵢ`` by Algorithm 2 (lines 5–11).

    Parameters
    ----------
    base_problem:
        Instance built from the prediction matrices (T̂, Â).
    base_solution:
        Relaxed solution X*(T̂, Â) already computed by the caller (line 4).
    cluster:
        Index ``i`` of the cluster whose predictions are perturbed.
    grad_X:
        Upstream regret gradient dL/dX* (M×N).
    """
    cfg = config or ZeroOrderConfig()
    rng = as_generator(rng)
    M, N = base_problem.M, base_problem.N
    if not 0 <= cluster < M:
        raise ValueError(f"cluster index {cluster} out of range [0, {M})")
    if grad_X.shape != (M, N):
        raise ValueError(f"grad_X must have shape {(M, N)}")
    scfg = solver_config or SolverConfig()
    if cfg.vectorized and batchable(base_problem, scfg):
        # The fused estimator with one base instance (K = 1).
        one = BatchProblem(
            T=base_problem.T[None], A=base_problem.A[None], gamma=base_problem.gamma,
            beta=base_problem.beta, lam=base_problem.lam, entropy=base_problem.entropy,
        )
        zg = zo_vjp_cross(one, base_solution.X[None], np.array([cluster]),
                          grad_X[None], cfg, solver_config=scfg, rng=rng)
        return ZeroOrderGradients(dt=zg.dt[0], da=zg.da[0], solves=zg.solves)

    # Inherit *all* solver fields (projection, tol, patience, …)
    # and only shorten the iteration budget for the warm-started re-solves.
    warm_cfg = replace(scfg, max_iters=cfg.warm_start_iters)

    X_base = base_solution.X
    g_flat = grad_X.ravel()
    base_contract = float(X_base.ravel() @ g_flat)

    T_hat = np.array(base_problem.T)
    A_hat = np.array(base_problem.A)

    dt = np.zeros(N)
    da = np.zeros(N)
    solves = 0
    rec = get_recorder()
    tele = rec.enabled
    diffs_t: list[float] = []
    diffs_a: list[float] = []

    # Draw directions; antithetic pairs share one |v| draw.
    n_draws = max(cfg.samples // 2, 1)
    directions = rng.normal(size=(n_draws, 2, N))  # [:, 0]=v_t, [:, 1]=v_a
    signs = (1.0, -1.0)

    for s in range(n_draws):
        v_t, v_a = directions[s, 0], directions[s, 1]
        for sign in signs:
            # Perturb the time predictions of cluster i (line 7, T branch).
            T_pert = T_hat.copy()
            T_pert[cluster] = np.maximum(T_hat[cluster] + sign * cfg.delta * v_t, 1e-4)
            sol_t = solve_relaxed(
                base_problem.with_predictions(T_pert, A_hat), warm_cfg, x0=X_base
            )
            solves += 1
            diff_t = (float(sol_t.X.ravel() @ g_flat) - base_contract) / (sign * cfg.delta)
            dt += diff_t * v_t
            if tele:
                diffs_t.append(diff_t)

            # Perturb the reliability predictions (line 7, A branch).
            A_pert = A_hat.copy()
            A_pert[cluster] = np.clip(A_hat[cluster] + sign * cfg.delta * v_a, 0.0, 1.0)
            pert_problem = base_problem.with_predictions(T_hat, A_pert)
            if pert_problem.is_strictly_feasible(X_base):
                sol_a = solve_relaxed(pert_problem, warm_cfg, x0=X_base)
                solves += 1
                diff_a = (float(sol_a.X.ravel() @ g_flat) - base_contract) / (sign * cfg.delta)
                da += diff_a * v_a
                if tele:
                    diffs_a.append(diff_a)
            # else: the perturbation made the warm start infeasible — skip
            # the sample (contributes zero), keeping the estimator defined.

    total = n_draws * len(signs)
    if tele:
        _record_estimate(rec, solves, total,
                         np.asarray(diffs_t), np.asarray(diffs_a))
    return ZeroOrderGradients(dt=dt / total, da=da / total, solves=solves)


def _record_estimate(
    rec, solves: int, batch: int, diffs_t: np.ndarray, diffs_a: np.ndarray
) -> None:
    """Telemetry of a zeroth-order estimate: inner-solve counts, the
    perturbation batch size dispatched, and the sample variance of the
    directional differences (the quantity Theorem 3's Δ* balances against
    the smoothing bias — high values flag noisy gradients)."""
    rec.counter_add("zo/estimates")
    rec.counter_add("zo/solves", solves)
    rec.observe("zo/perturbation_batch", batch, bounds=SIZE_BUCKETS)
    if diffs_t.size > 1:
        rec.observe("zo/sample_var_t", float(diffs_t.var()), bounds=VARIANCE_BUCKETS)
    if diffs_a.size > 1:
        rec.observe("zo/sample_var_a", float(diffs_a.var()), bounds=VARIANCE_BUCKETS)


@dataclass(frozen=True)
class CrossZeroOrderGradients:
    """Estimated dL/dt̂ and dL/dâ for every perturbed instance of a fused
    cross-cluster batch (row k belongs to instance k's perturbed cluster)."""

    dt: np.ndarray  # shape (K, N)
    da: np.ndarray  # shape (K, N)
    solves: int  # perturbed matching solves performed (all in one batch)


def zo_vjp_cross(
    batch: BatchProblem,
    X_base: np.ndarray,
    clusters: np.ndarray,
    grad_X: np.ndarray,
    config: ZeroOrderConfig | None = None,
    *,
    solver_config: SolverConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> CrossZeroOrderGradients:
    """Cross-cluster fused Algorithm 2: K instances × 2S perturbations in
    ONE batched solve.

    MFCP's training round runs one zeroth-order estimate per cluster; the
    per-cluster estimates are independent, so their K·2S perturbed solves
    are fused into a single :func:`solve_relaxed_batch` call instead of K
    separate batches — one mirror-descent program over K·2S instances.

    Parameters
    ----------
    batch:
        :class:`repro.matching.batch.BatchProblem` holding the K base
        (semi-predicted) instances, already clamped.
    X_base:
        Relaxed solutions of the base instances, shape (K, M, N).
    clusters:
        Perturbed cluster row per instance, shape (K,).
    grad_X:
        Upstream regret gradients ``dL/dX*`` per instance, shape (K, M, N).
    """
    cfg = config or ZeroOrderConfig()
    rng = as_generator(rng)
    scfg = solver_config or SolverConfig()
    K, M, N = batch.B, batch.M, batch.N
    clusters = np.asarray(clusters, dtype=np.int64)
    if clusters.shape != (K,) or np.any((clusters < 0) | (clusters >= M)):
        raise ValueError(f"clusters must be (K,) indices into [0, {M})")
    if X_base.shape != (K, M, N) or grad_X.shape != (K, M, N):
        raise ValueError(f"X_base and grad_X must have shape {(K, M, N)}")
    if batch.real is not None:
        raise ValueError("perturbation stacks are built N wide: no ragged batches")

    n_draws = max(cfg.samples // 2, 1)
    signs = np.array((1.0, -1.0))
    G = signs.size
    directions = rng.normal(size=(K, n_draws, 2, N))
    v_t, v_a = directions[:, :, 0], directions[:, :, 1]  # (K, n_draws, N)

    # Layout (instance, draw, sign, kind): kind 0 perturbs the time row,
    # kind 1 the reliability row of instance k's cluster.  The stack is
    # assembled directly in cross_dtype so no full-size casts follow.
    shape = (K, n_draws, G, 2, M, N)
    T_base = batch.T.astype(cfg.cross_dtype, copy=False)
    A_base = batch.A.astype(cfg.cross_dtype, copy=False)
    T_big = np.broadcast_to(T_base[:, None, None, None], shape).copy()
    A_big = np.broadcast_to(A_base[:, None, None, None], shape).copy()
    base_t_rows = batch.T[np.arange(K), clusters]  # (K, N)
    base_a_rows = batch.A[np.arange(K), clusters]
    t_pert = base_t_rows[:, None, None, :] + (
        cfg.delta * signs[None, None, :, None] * v_t[:, :, None, :]
    )  # (K, n_draws, G, N)
    a_pert = base_a_rows[:, None, None, :] + (
        cfg.delta * signs[None, None, :, None] * v_a[:, :, None, :]
    )
    idx_k = np.arange(K)[:, None, None]
    idx_d = np.arange(n_draws)[None, :, None]
    idx_g = np.arange(G)[None, None, :]
    T_big[idx_k, idx_d, idx_g, 0, clusters[:, None, None], :] = t_pert
    A_big[idx_k, idx_d, idx_g, 1, clusters[:, None, None], :] = a_pert

    B = K * n_draws * G * 2
    gamma_big = np.broadcast_to(batch.gamma[:, None, None, None], shape[:4]).reshape(B)
    T_arr, A_arr, gammas = clamp_predictions_batch(
        T_big.reshape(B, M, N), A_big.reshape(B, M, N), gamma_big
    )
    big = BatchProblem(
        T=T_arr, A=A_arr, gamma=gammas,
        beta=batch.beta, lam=batch.lam, entropy=batch.entropy,
        dtype=cfg.cross_dtype,
    )
    x0 = (
        np.broadcast_to(X_base.astype(cfg.cross_dtype, copy=False)[:, None, None, None], shape)
        .reshape(B, M, N)
        .copy()
    )
    # Adaptive trials: the warm-started perturbation stack sits near its
    # optima, where the full-lr trial is rejected almost every iteration;
    # step memory skips those doomed evaluations.  Fine for a smoothed
    # stochastic estimator (the scalar-equivalence guarantee of the
    # cascade policy is not needed here).
    sol = solve_relaxed_batch(
        big, lr=scfg.lr, max_iters=cfg.warm_start_iters, x0=x0,
        tol=max(scfg.tol, cfg.inner_tol), patience=scfg.patience,
        adaptive_trials=True,
    )

    contracts = np.einsum(
        "kdgcmn,kmn->kdgc", sol.X.reshape(shape), grad_X
    )  # (K, n_draws, G, 2)
    base_contract = np.einsum("kmn,kmn->k", X_base, grad_X)
    diffs = (contracts - base_contract[:, None, None, None]) / (
        cfg.delta * signs[None, None, :, None]
    )
    total = n_draws * G
    dt = np.einsum("kdg,kdn->kn", diffs[:, :, :, 0], v_t) / total
    da = np.einsum("kdg,kdn->kn", diffs[:, :, :, 1], v_a) / total
    rec = get_recorder()
    if rec.enabled:
        # One fused dispatch covers K estimates; per-instance variances
        # keep the histogram comparable with the scalar estimator's.
        rec.counter_add("zo/estimates", K)
        rec.counter_add("zo/solves", B)
        rec.observe("zo/perturbation_batch", B, bounds=SIZE_BUCKETS)
        var_t = diffs[..., 0].reshape(K, -1).var(axis=1)
        var_a = diffs[..., 1].reshape(K, -1).var(axis=1)
        for k_i in range(K):
            rec.observe("zo/sample_var_t", float(var_t[k_i]), bounds=VARIANCE_BUCKETS)
            rec.observe("zo/sample_var_a", float(var_a[k_i]), bounds=VARIANCE_BUCKETS)
    return CrossZeroOrderGradients(dt=dt, da=da, solves=B)
