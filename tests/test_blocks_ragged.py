"""The ragged batched block solve must make the per-shape solve's decisions.

``_per_shape_blocks`` below is the pre-ragged driver kept verbatim (minus
telemetry and the scalar fallback) as the oracle: blocks are grouped by
``(clusters, tasks)`` shape and every group is its own unpadded
``solve_relaxed_batch`` call.  The shipped ``solve_relaxed_blocks`` groups
by cluster count only and pads tasks, so a 24x64 serving window is one
descent instead of ~3.5.  Padding columns add exactly 0.0 to every sum:
in float64 the two drivers agree to reduction order.  In the serving
float32 a reduction over a padded length rounds differently, so relaxed
iterates agree to rounding only, while everything discrete — convergence
flags, the argmax, the rounded assignment — must be equal.  Where no
padding is involved the bytes must not move.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.clusters import make_specialist_pool
from repro.matching import (
    BatchProblem,
    BlockConfig,
    MatchingProblem,
    SolverConfig,
    analyze_blocks,
    barrier_value,
    batch_barrier_gradient,
    batch_barrier_value,
    batch_kkt_vjp,
    batch_reliability_slack,
    feasible_gamma,
    round_assignment,
    solve_relaxed_batch,
    solve_relaxed_blocks,
    zo_vjp_cross,
)
from repro.matching.batch import BatchBarrierEval, _feasible_start_batch
from repro.matching.blocks import _SEED_FLOOR, _block_gammas
from repro.workloads import TaskPool

SERVING = SolverConfig(tol=1e-4, max_iters=400)


def _per_shape_blocks(problem, cfg, bcfg, x0=None):
    """``solve_relaxed_blocks`` as it was: one unpadded batch per (m, k)."""
    structure = analyze_blocks(problem)
    gammas = _block_gammas(problem, structure)
    groups: dict[tuple[int, int], list[int]] = {}
    for b, blk in enumerate(structure.blocks):
        groups.setdefault(blk.shape, []).append(b)

    X_full = np.zeros((problem.M, problem.N))
    iterations = 0
    converged = True
    for shape, members in groups.items():
        blks = [structure.blocks[b] for b in members]
        T_g = np.stack([problem.T[np.ix_(blk.cluster_idx, blk.task_idx)] for blk in blks])
        A_g = np.stack([problem.A[np.ix_(blk.cluster_idx, blk.task_idx)] for blk in blks])
        bp = BatchProblem(
            T=T_g, A=A_g, gamma=gammas[members], beta=problem.beta,
            lam=problem.lam, entropy=problem.entropy, dtype=bcfg.np_dtype,
        )
        seed = None
        if x0 is not None:
            seed = np.stack([
                x0[np.ix_(blk.cluster_idx, blk.task_idx)] for blk in blks
            ]).astype(bcfg.np_dtype)
            seed = np.maximum(seed, _SEED_FLOOR)
            seed /= seed.sum(axis=1, keepdims=True)
            cold = _feasible_start_batch(bp)
            f_seed = batch_barrier_value(seed, bp)
            f_cold = batch_barrier_value(cold, bp)
            worse = ~(f_seed < f_cold)
            seed = np.where(worse[:, None, None], cold, seed)
        sol = solve_relaxed_batch(
            bp, lr=cfg.lr, max_iters=cfg.max_iters, x0=seed,
            tol=cfg.tol, patience=cfg.patience, adaptive_trials=True,
        )
        iterations = max(iterations, sol.iterations)
        converged = converged and bool(np.all(sol.converged))
        for g, blk in enumerate(blks):
            X_full[np.ix_(blk.cluster_idx, blk.task_idx)] = sol.X[g]
    return X_full, float(barrier_value(X_full, problem)), iterations, converged, len(groups)


_CLUSTERS = make_specialist_pool(24)
_POOL = TaskPool(256, rng=0).tasks
_T = np.stack([c.true_times(_POOL) for c in _CLUSTERS])
_A = np.stack([c.true_reliabilities(_POOL) for c in _CLUSTERS])


def _window(seed: int, clusters: int = 24) -> MatchingProblem:
    """A serve_wide-shaped window: 30-64 tasks drawn from the 256 pool,
    matrices perturbed like imperfect predictions."""
    rng = np.random.default_rng(seed)
    cols = rng.choice(len(_POOL), size=int(rng.integers(30, 65)), replace=False)
    T = _T[:clusters, cols] * rng.uniform(0.9, 1.1, (clusters, cols.size))
    A = np.clip(_A[:clusters, cols] + rng.normal(0, 0.01, (clusters, cols.size)), 0.05, 0.995)
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5))


def _noisy_seed(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    W = np.maximum(X + rng.uniform(0.0, 0.15, X.shape), 1e-6)
    return W / W.sum(axis=0, keepdims=True)


def _compare(seeds, bcfg):
    """Per-solve (Δiterations, max|ΔX|, relative Δobjective) of the shipped
    driver against the oracle, cold then noisy-warm; everything discrete
    is asserted on the way."""
    out = []
    ragged = 0
    for seed in seeds:
        problem = _window(seed)
        rng = np.random.default_rng(1000 + seed)
        x0 = None
        for start in ("cold", "warm"):
            ref_X, ref_f, ref_it, ref_conv, ref_groups = _per_shape_blocks(
                problem, SERVING, bcfg, x0)
            sol = solve_relaxed_blocks(problem, SERVING, block_config=bcfg, x0=x0)
            assert sol.batched_groups == 1  # one descent per window
            ragged += ref_groups > 1
            assert sol.converged == ref_conv, (seed, start)
            assert sol.trials >= sol.iterations
            assert np.array_equal(sol.X.argmax(axis=0), ref_X.argmax(axis=0)), (seed, start)
            assert np.array_equal(
                round_assignment(sol.X, problem), round_assignment(ref_X, problem)
            ), (seed, start)
            out.append((sol.iterations - ref_it, float(np.abs(sol.X - ref_X).max()),
                        abs(sol.objective - ref_f) / abs(ref_f)))
            x0 = _noisy_seed(ref_X, rng)
    # The property the claim rests on: these windows do split raggedly.
    assert ragged >= 1.8 * len(seeds)
    return np.array(out)


def test_ragged_blocks_are_the_per_shape_blocks_in_float64():
    """Padding is exact-zero: in float64 only the reduction order differs."""
    d_it, d_x, d_f = _compare(range(12), BlockConfig(dtype="float64")).T
    assert not d_it.any()
    assert d_x.max() <= 1e-12 and d_f.max() <= 1e-12  # read 2.1e-15, 4.4e-16


def test_ragged_blocks_make_the_per_shape_decisions_in_float32():
    """The serving precision.  A float32 sum over a padded length rounds
    differently, and near the stop an improvement sits within rounding of
    ``tol``, so a block can freeze one iteration apart (read: 7 of 240
    solves, never by more than one) and the relaxed iterates then differ
    by that one step (read 7.7e-3, objective 6.3e-5 relative: inside the
    solver's own ``tol``).  What the platform acts on does not move."""
    d_it, d_x, d_f = _compare(range(44), BlockConfig()).T
    assert np.abs(d_it).max() <= 1 and np.count_nonzero(d_it) <= 0.1 * d_it.size
    assert d_x.max() <= 2e-2 and d_f.max() <= 2 * SERVING.tol


def _ragged_batch(rng, B=5, M=4, N=12, dtype=np.float32, entropy=0.0, widths=None):
    widths = rng.integers(1, N + 1, B) if widths is None else np.asarray(widths)
    real = np.arange(N) < widths[:, None]
    T = rng.uniform(0.3, 4.0, (B, M, N)) * real[:, None, :]
    A = rng.uniform(0.6, 1.0, (B, M, N)) * real[:, None, :]
    gamma = 0.6 * A.max(axis=1).sum(axis=1) / (M * widths)
    return BatchProblem(T=T, A=A, gamma=gamma, dtype=dtype, entropy=entropy, widths=widths)


def _unpadded(p: BatchProblem, b: int) -> BatchProblem:
    k = int(p.widths[b])
    return BatchProblem(T=p.T[b : b + 1, :, :k], A=p.A[b : b + 1, :, :k], gamma=p.gamma[b : b + 1],
                        dtype=p.dtype, entropy=p.entropy)


@pytest.mark.parametrize("dtype,adaptive,entropy", list(itertools.product(
    (np.float32, np.float64), (False, True), (0.0, 0.05))))
def test_full_widths_are_bit_identical_to_no_widths(dtype, adaptive, entropy):
    rng = np.random.default_rng(7)
    for _ in range(3):
        p = _ragged_batch(rng, widths=np.full(5, 12), dtype=dtype, entropy=entropy)
        plain = BatchProblem(T=p.T, A=p.A, gamma=p.gamma, dtype=dtype, entropy=entropy)
        assert p.real is None and np.array_equal(p.mn, plain.mn)
        x0 = rng.uniform(0.05, 1.0, p.T.shape)
        x0 /= x0.sum(axis=1, keepdims=True)
        for start in (None, x0):
            kw = dict(max_iters=80, tol=1e-5, adaptive_trials=adaptive, x0=start)
            a, b = solve_relaxed_batch(p, **kw), solve_relaxed_batch(plain, **kw)
            assert np.array_equal(a.X, b.X) and np.array_equal(a.objective, b.objective)
            assert (a.iterations, a.trials) == (b.iterations, b.trials)
            assert np.array_equal(a.converged, b.converged)


def test_equal_shape_groups_and_single_block_windows_keep_their_bytes():
    bcfg = BlockConfig()
    # 12 specialists x 48 pool-ordered tasks: four 3x12 blocks, one shape.
    cols = np.arange(48)
    equal = MatchingProblem(T=_T[:12, cols], A=_A[:12, cols],
                            gamma=feasible_gamma(_T[:12, cols], _A[:12, cols], quantile=0.5))
    rng = np.random.default_rng(3)
    T = rng.uniform(1.0, 2.2, (4, 10))
    A = rng.uniform(0.55, 0.99, (4, 10))
    single = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.35))
    for problem, n_blocks in ((equal, None), (single, 1)):
        shapes = set(analyze_blocks(problem).shapes)
        if n_blocks is None:
            assert len(shapes) == 1 and analyze_blocks(problem).n_blocks > 1
        x0 = None
        for _ in range(2):
            ref_X, ref_f, ref_it, ref_conv, _ = _per_shape_blocks(problem, SERVING, bcfg, x0)
            sol = solve_relaxed_blocks(problem, SERVING, block_config=bcfg, x0=x0)
            assert np.array_equal(sol.X, ref_X)
            assert (sol.objective, sol.iterations, sol.converged) == (ref_f, ref_it, ref_conv)
            x0 = _noisy_seed(ref_X, rng)


@pytest.mark.parametrize("entropy", [0.0, 0.05])
def test_wrappers_are_the_evaluator(entropy):
    rng = np.random.default_rng(11)
    for dtype in (np.float32, np.float64):
        p = _ragged_batch(rng, dtype=dtype, entropy=entropy)
        X = _feasible_start_batch(p)
        ev = BatchBarrierEval(p)
        f, state = ev.value(X)
        assert np.array_equal(batch_barrier_value(X, p), f)
        assert np.array_equal(batch_reliability_slack(X, p), state[0])
        assert np.array_equal(ev.slack(X), state[0])
        assert np.array_equal(batch_barrier_gradient(X, p), ev.gradient(state))
        floor = np.full(p.B, 0.05, dtype=dtype)
        assert np.array_equal(batch_barrier_gradient(X, p, floor), ev.gradient(state, floor))
        # State is sliceable: a sub-batch evaluator on sliced state is the
        # same gradient rows (what the active-set compaction relies on).
        keep = np.array([0, 2, 3])
        sub = tuple(None if s is None else s[keep] for s in state)
        into = np.empty((3,) + X.shape, dtype)
        assert np.array_equal(ev.take(keep, into).gradient(sub), ev.gradient(state)[keep])
        logX = np.empty_like(X[keep]) if entropy else None
        assert np.array_equal(ev._value(X[keep], keep, logX)[0], f[keep])


@pytest.mark.parametrize("entropy", [0.0, 0.05])
def test_padding_is_exact_zero(entropy):
    """A padded instance is its unpadded program: same objective (to the
    float reduction order), zero gradient and a fixed point on padding."""
    rng = np.random.default_rng(5)
    p = _ragged_batch(rng, dtype=np.float64, entropy=entropy, widths=[12, 7, 3, 1, 9])
    X = _feasible_start_batch(p)
    assert np.all(X[~np.broadcast_to(p.real, X.shape)] == 1.0 / p.M)
    grad = batch_barrier_gradient(X, p)
    assert np.all(grad[~np.broadcast_to(p.real, X.shape)] == 0.0)
    f = batch_barrier_value(X, p)
    sol = solve_relaxed_batch(p, max_iters=120, tol=1e-7)
    for b in range(p.B):
        k = int(p.widths[b])
        q = _unpadded(p, b)
        assert batch_barrier_value(X[b : b + 1, :, :k], q)[0] == pytest.approx(f[b], rel=1e-12)
        alone = solve_relaxed_batch(q, max_iters=120, tol=1e-7)
        assert sol.objective[b] == pytest.approx(alone.objective[0], rel=1e-6)
        assert np.abs(sol.X[b, :, :k] - alone.X[0]).max() <= 1e-6
        assert np.allclose(sol.X[b, :, k:], 1.0 / p.M, rtol=1e-12, atol=0)


def test_ragged_inputs_fail_closed():
    rng = np.random.default_rng(9)
    p = _ragged_batch(rng, widths=[12, 7, 3, 1, 9])
    kw = dict(T=p.T, A=p.A, gamma=p.gamma, dtype=np.float32)
    for bad in ([12, 7, 3, 0, 9], [13, 7, 3, 1, 9], [12, 7, 3, 1], [12.0, 7, 3, 1, 9]):
        with pytest.raises(ValueError, match="widths"):
            BatchProblem(**kw, widths=bad)
    with pytest.raises(ValueError, match="strictly positive"):  # padding claimed real
        BatchProblem(**kw, widths=[12, 8, 3, 1, 9])
    with pytest.raises(ValueError, match="strictly positive"):  # no widths: all real
        BatchProblem(**kw)
    for name in ("T", "A"):
        dirty = np.array(getattr(p, name))
        dirty[1, 2, 10] = 0.5
        with pytest.raises(ValueError, match="padding"):
            BatchProblem(**{**kw, name: dirty}, widths=p.widths)

    # A caller's x0 has its padding reset to the uniform column.
    x0 = rng.uniform(0.05, 1.0, p.T.shape)
    x0 /= x0.sum(axis=1, keepdims=True)
    clean = np.where(p.real, x0, 1.0 / p.M)
    a = solve_relaxed_batch(p, max_iters=30, x0=x0)
    b = solve_relaxed_batch(p, max_iters=30, x0=clean)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.objective, b.objective)

    # The adjoints hard-code M·N; they refuse a ragged batch.
    p64 = _ragged_batch(rng, dtype=np.float64, entropy=0.05, widths=[12, 7, 3, 1, 9])
    X = solve_relaxed_batch(p64, max_iters=30).X
    with pytest.raises(ValueError, match="ragged"):
        batch_kkt_vjp(X, p64, np.ones_like(X))
    with pytest.raises(ValueError, match="ragged"):
        zo_vjp_cross(p64, X, np.zeros(p64.B, dtype=int), np.ones_like(X), rng=0)
