"""Properties of the fused batched training path.

Three layers are pinned down here:

1. :func:`solve_relaxed_batch` finds the same per-instance optima as the
   scalar :func:`solve_relaxed` under identical hyperparameters — also
   with entropy regularization, infeasible warm starts (repair), float32
   batches, and the adaptive trial policy.
2. :func:`batch_kkt_vjp` agrees with the scalar :func:`kkt_vjp` per
   instance (the closed-form contractions vs the explicit cross-derivative
   blocks).
3. The MFCP fused round: the batched path trains to the same losses as
   the scalar (paper-literal) round within stochastic tolerance, and
   automatically falls back to the scalar round for the non-convex
   parallel (ζ) objective where no batched convex solver applies.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.matching import (
    MatchingProblem,
    SolverConfig,
    ZeroOrderConfig,
    feasible_gamma,
    kkt_vjp,
    solve_relaxed,
    zo_vjp_cross,
)
from repro.matching.batch import BatchProblem, solve_relaxed_batch
from repro.matching.batch_vjp import batch_kkt_vjp
from repro.matching.objectives import barrier_value
from repro.matching.speedup import ExponentialDecaySpeedup
from repro.methods import MFCP, MFCPConfig, MatchSpec, FitContext
from repro.predictors.training import TrainConfig
from repro.telemetry import recording
from repro.workloads import TaskPool

from tests.conftest import PerClusterMFCP


def _random_problems(seed: int, B: int = 5, M: int = 4, N: int = 9,
                     entropy: float = 0.0) -> list[MatchingProblem]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(B):
        T = rng.uniform(0.2, 2.5, (M, N))
        A = rng.uniform(0.55, 0.99, (M, N))
        out.append(MatchingProblem(
            T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.35), entropy=entropy
        ))
    return out


def _as_batch(problems: list[MatchingProblem], **kwargs) -> BatchProblem:
    p0 = problems[0]
    return BatchProblem(
        T=np.stack([p.T for p in problems]),
        A=np.stack([p.A for p in problems]),
        gamma=np.array([p.gamma for p in problems]),
        beta=p0.beta, lam=p0.lam, entropy=p0.entropy, **kwargs,
    )


class TestBatchScalarEquivalence:
    """solve_relaxed_batch ≡ solve_relaxed, instance by instance."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("entropy", [0.0, 0.05])
    def test_matches_scalar_from_same_start(self, seed, entropy):
        problems = _random_problems(seed, entropy=entropy)
        bp = _as_batch(problems)
        x0 = np.stack([p.feasible_start() for p in problems])
        bs = solve_relaxed_batch(bp, lr=0.5, max_iters=250, x0=x0,
                                 tol=1e-7, patience=5)
        cfg = SolverConfig(lr=0.5, max_iters=250, tol=1e-7, patience=5)
        for b, p in enumerate(problems):
            sc = solve_relaxed(p, cfg, x0=x0[b])
            assert bs.objective[b] == pytest.approx(sc.objective, abs=1e-4)
            # The batch iterate is a genuine optimum of the same problem:
            # evaluating it with the scalar objective reproduces its value.
            assert barrier_value(bs.X[b], p) == pytest.approx(
                bs.objective[b], abs=1e-9
            )
            assert p.is_strictly_feasible(bs.X[b])
        np.testing.assert_allclose(bs.X.sum(axis=1), 1.0, atol=1e-9)

    def test_infeasible_warm_start_repaired(self):
        problems = _random_problems(7)
        bp = _as_batch(problems)
        # Concentrate every task on the least reliable cluster: infeasible
        # (negative slack) for these gammas, so the solver must swap in
        # its interior blend start instead of dividing by the bad slack.
        x0 = np.zeros(bp.T.shape)
        worst = np.stack([p.A for p in problems]).argmin(axis=1)
        x0[np.arange(bp.B)[:, None], worst, np.arange(bp.N)[None, :]] = 1.0
        bs = solve_relaxed_batch(bp, lr=0.5, max_iters=250, x0=x0,
                                 tol=1e-7, patience=5)
        cfg = SolverConfig(lr=0.5, max_iters=250, tol=1e-7, patience=5)
        for b, p in enumerate(problems):
            assert p.is_strictly_feasible(bs.X[b])
            sc = solve_relaxed(p, cfg)  # scalar cold start
            assert bs.objective[b] == pytest.approx(sc.objective, abs=1e-3)

    def test_float32_batch_matches_float64(self):
        problems = _random_problems(11)
        bp64 = _as_batch(problems)
        bp32 = _as_batch(problems, dtype=np.float32)
        bs64 = solve_relaxed_batch(bp64, lr=0.5, max_iters=200, tol=1e-7)
        bs32 = solve_relaxed_batch(bp32, lr=0.5, max_iters=200, tol=1e-7)
        assert bs32.X.dtype == np.float32
        np.testing.assert_allclose(bs32.objective, bs64.objective, atol=1e-3)

    def test_adaptive_trials_reach_same_optima(self):
        problems = _random_problems(13)
        bp = _as_batch(problems)
        base = solve_relaxed_batch(bp, lr=0.5, max_iters=250, tol=1e-7)
        adapt = solve_relaxed_batch(bp, lr=0.5, max_iters=250, tol=1e-7,
                                    adaptive_trials=True)
        np.testing.assert_allclose(adapt.objective, base.objective, atol=1e-4)


class TestBatchKKTAgreement:
    """The batched adjoint ≡ B scalar Eq. (15) solves."""

    def _solved_batch(self, entropy: float):
        problems = _random_problems(3, B=6, entropy=entropy)
        bp = _as_batch(problems)
        bs = solve_relaxed_batch(bp, lr=0.5, max_iters=400, tol=1e-9,
                                 patience=8)
        gX = np.random.default_rng(5).normal(size=bp.T.shape)
        return problems, bp, bs, gX

    @pytest.mark.parametrize("entropy", [0.0, 0.05])
    def test_matches_scalar_kkt_vjp(self, entropy):
        problems, bp, bs, gX = self._solved_batch(entropy)
        kg = batch_kkt_vjp(bs.X, bp, gX)
        for b, p in enumerate(problems):
            sg = kkt_vjp(bs.X[b], p, gX[b])
            # Near-degenerate optima (entropy=0 drives entries to 0) give
            # large but consistent adjoints — compare in relative terms.
            scale_t = max(float(np.abs(sg.dT).max()), 1e-12)
            scale_a = max(float(np.abs(sg.dA).max()), 1e-12)
            assert np.abs(kg.dT[b] - sg.dT).max() / scale_t < 1e-4
            assert np.abs(kg.dA[b] - sg.dA).max() / scale_a < 1e-4

    def test_singular_instances_fall_back_and_are_counted(self):
        """An exactly singular saddle system: equal times of 2^20 swallow
        the ridge, zero reliabilities null the λ term, and X = 1/2 leaves
        the log-sum-exp Hessian rank-deficient on the constraint's null
        space.  The stacked solve falls back once, each of the B scalar
        solves falls back to least squares, and both are counted."""
        B, M, N = 3, 2, 2
        bp = BatchProblem(T=np.full((B, M, N), 2.0**20), A=np.zeros((B, M, N)),
                          gamma=np.full(B, -0.5), beta=1.0, lam=0.01)
        gX = np.random.default_rng(2).normal(size=(B, M, N))
        with recording() as rec:
            kg = batch_kkt_vjp(np.full((B, M, N), 0.5), bp, gX)
            counters = rec.aggregate()["counters"]
        assert counters["train/kkt_stacked_fallbacks"]["value"] == 1
        assert counters["train/kkt_lstsq_fallbacks"]["value"] == B
        assert np.isfinite(kg.dT).all() and np.isfinite(kg.dA).all()
        with recording() as rec:  # a regular batch counts nothing
            problems, bp, bs, gX = self._solved_batch(0.05)
            batch_kkt_vjp(bs.X, bp, gX)
            counters = rec.aggregate()["counters"]
        assert "train/kkt_stacked_fallbacks" not in counters
        assert "train/kkt_lstsq_fallbacks" not in counters


class TestCrossZeroOrder:
    """The fused cross-cluster ZO estimator (one solve for all K·2S)."""

    def _setup(self):
        problems = _random_problems(17, B=4, M=4, N=8)
        bp = _as_batch(problems)
        bs = solve_relaxed_batch(bp, lr=0.5, max_iters=300, tol=1e-7)
        rng = np.random.default_rng(23)
        gX = rng.normal(size=bp.T.shape) / (bp.M * bp.N)
        clusters = np.arange(4) % bp.M
        return bp, bs.X, clusters, gX

    def test_deterministic_given_rng(self):
        bp, X, clusters, gX = self._setup()
        cfg = ZeroOrderConfig(samples=4, delta=0.05, warm_start_iters=40)
        g1 = zo_vjp_cross(bp, X, clusters, gX, cfg,
                          rng=np.random.default_rng(9))
        g2 = zo_vjp_cross(bp, X, clusters, gX, cfg,
                          rng=np.random.default_rng(9))
        np.testing.assert_array_equal(g1.dt, g2.dt)
        np.testing.assert_array_equal(g1.da, g2.da)

    def test_float32_stack_tracks_float64(self):
        bp, X, clusters, gX = self._setup()
        fast = ZeroOrderConfig(samples=4, delta=0.05, warm_start_iters=40)
        exact = replace(fast, cross_dtype=np.float64, inner_tol=0.0)
        g32 = zo_vjp_cross(bp, X, clusters, gX, fast,
                           rng=np.random.default_rng(9))
        g64 = zo_vjp_cross(bp, X, clusters, gX, exact,
                           rng=np.random.default_rng(9))
        for a, b in ((g32.dt, g64.dt), (g32.da, g64.da)):
            cos = float(np.sum(a * b)
                        / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-30))
            assert cos > 0.99
        assert g32.dt.dtype == np.float64  # contractions promote back


class TestMFCPBatchedRound:
    """End to end: the fused round is a drop-in for the scalar round."""

    CFG = MFCPConfig(
        epochs=4, pretrain=TrainConfig(epochs=30),
        zero_order=ZeroOrderConfig(samples=4, delta=0.05,
                                   warm_start_iters=40, vectorized=True),
        validation_rounds=0,
    )

    @staticmethod
    def _fresh_ctx():
        # A fit consumes ctx.rng (round sampling), so comparisons need one
        # identically-seeded context per fit, not a shared one.
        pool = TaskPool(40, rng=21)
        clusters = make_setting("A")
        train, _ = pool.split(0.7, rng=1)
        return FitContext.build(clusters, train, MatchSpec(), rng=2)

    @pytest.fixture()
    def ctx(self):
        return self._fresh_ctx()

    @pytest.mark.parametrize("gradient", ["analytic", "forward"])
    def test_batched_losses_track_scalar(self, gradient):
        mb = MFCP(gradient, self.CFG).fit(self._fresh_ctx())
        ms = PerClusterMFCP(gradient, self.CFG).fit(self._fresh_ctx())
        assert len(mb.loss_history) == len(ms.loss_history)
        assert all(np.isfinite(v) for v in mb.loss_history)
        # Same rounds, same pretrained starting point: the first-epoch
        # regret proxies are computed from the same optima (the fused
        # round only changes how they are obtained).
        assert mb.loss_history[0] == pytest.approx(
            ms.loss_history[0], abs=1e-4
        )

    def test_parallel_objective_falls_back_to_scalar_round(self, ctx, monkeypatch):
        # ζ speedup ⇒ non-convex objective: no batched convex solver, so
        # the fused path must defer to the per-cluster scalar round (FG
        # only; AD rejects parallel specs outright).
        spec = replace(ctx.spec, speedup=(ExponentialDecaySpeedup(),))
        pctx = replace(ctx, spec=spec)
        m = MFCP("forward", self.CFG)
        monkeypatch.setattr(MFCP, "_train_round_batched", None)  # calling it raises
        m.fit(pctx)
        assert len(m.loss_history) == self.CFG.epochs
        assert all(np.isfinite(v) for v in m.loss_history)

    def test_timing_counters_populated(self, ctx):
        m = MFCP("analytic", self.CFG).fit(ctx)
        assert {"pretrain", "solve", "vjp", "optimizer"} <= set(m.timings)
        assert all(v >= 0 for v in m.timings.values())
