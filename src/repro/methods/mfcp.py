"""MFCP: the Matching-Focused Cluster Performance Predictor (paper §3).

Training pipeline (Fig. 3 / Algorithm 2):

1. **Warm start** — short MSE pretraining of every cluster's predictor
   pair.  (The bilevel loss is only informative once predictions are in a
   sane range; starting the interior-point solves from random nets wastes
   most of the budget.  Documented deviation — see DESIGN.md.)
2. **Regret training** — per epoch, sample an allocation round of N train
   tasks, take the measured performance as ground truth (T, A), and for
   each cluster i (Alg. 2 line 3) form the semi-predicted matrices
   ``T̂ = [T with row i ← m_ω_i(z)]``, ``Â = [A with row i ← m_φ_i(z)]``.
   Solve the relaxed matching X*(T̂, Â) (Algorithm 1), form the regret
   upstream gradient ``dL/dX* = (1/N) ∇_X F(X*, T, A)`` (the oracle term
   of Eq. 12 is constant in ω, φ), and pull it back to the predictions:

   - ``gradient="analytic"`` (MFCP-AD): KKT adjoint solve, Eq. (15);
   - ``gradient="forward"`` (MFCP-FG): zeroth-order estimation, Alg. 2.

   The prediction gradients are then backpropagated through the predictor
   networks by the autograd tape, and ω and φ are updated on alternating
   epochs ("we fix ω when optimizing φ, and fix φ when optimizing ω").
   The M same-shape heads of a kind are one stacked
   :class:`~repro.predictors.models.HeadBank`: one forward before the
   round's solves, one backward/clip/Adam step after its pullbacks (the
   heads are independent, so this is Algorithm 2's per-cluster update).

**Fused batched round**: Algorithm 2's literal per-cluster loop solves M
relaxed instances (plus, for MFCP-FG, M×2S perturbed ones) sequentially —
yet they are same-shape copies of the identical convex barrier program.
The batched path assembles all of them into one
:class:`repro.matching.batch.BatchProblem`, solves them in a single
vectorized mirror-descent program, pulls all M upstream gradients back in
one stacked KKT adjoint (:func:`repro.matching.batch_vjp.batch_kkt_vjp`)
or one cross-cluster zeroth-order batch
(:func:`repro.matching.zeroth_order.zo_vjp_cross`).  :meth:`MFCP._round`
picks it per round exactly when the batch kernel expresses the round's
program (:func:`repro.matching.batch.batchable`); non-convex ζ objectives
and the Table 1 ablation knobs run the per-cluster loop.  See DESIGN.md
"Batched training path" for the exact semantics deltas.

Per-phase wall-clock totals are recorded as telemetry spans
(``train/pretrain`` / ``train/solve`` / ``train/vjp`` /
``train/optimizer`` / ``train/validation``; see :mod:`repro.telemetry`)
so speedups are measured, not asserted — the platform benchmark's
``train_mfcp`` workload reads them.  :attr:`MFCP.timings` is a derived
per-phase view of the last fit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.matching.batch import (
    BatchProblem,
    batch_barrier_gradient,
    batchable,
    clamp_predictions_batch,
    solve_relaxed_batch,
)
from repro.matching.batch_vjp import batch_kkt_vjp
from repro.matching.kkt import kkt_vjp
from repro.matching.objectives import barrier_gradient, reliability_value
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import SolverConfig, solve_relaxed
from repro.matching.zeroth_order import ZeroOrderConfig, zo_vjp, zo_vjp_cross
from repro.methods.base import HIDDEN, BaseMethod, FitContext
from repro.nn import Adam, Tensor
from repro import telemetry
from repro.predictors.models import HeadBank, PredictorPair, predict_pairs
from repro.predictors.training import TrainConfig, fit_pairs
from repro.utils.rng import spawn
from repro.workloads.taskpool import Task

__all__ = ["MFCPConfig", "MFCP"]

#: Per-head gradient-norm clip of the regret updates.
GRAD_CLIP = 5.0


@dataclass(frozen=True)
class MFCPConfig:
    """Hyperparameters of the regret-training phase."""

    epochs: int = 60  # regret epochs (each touches every cluster)
    round_size: int = 5  # N tasks per sampled training round
    lr: float = 1e-3  # Adam lr for regret updates
    pretrain: TrainConfig = TrainConfig(epochs=120)
    #: vectorized=True dispatches all perturbed solves to the batch solver
    #: on convex instances (identical estimates, ~5-10x faster); the
    #: non-convex ζ objective falls back to scalar solves automatically.
    zero_order: ZeroOrderConfig = ZeroOrderConfig(samples=8, delta=0.05, vectorized=True)
    #: Floor on the true-problem slack when forming the upstream regret
    #: gradient: a predicted matching that is infeasible under the *true*
    #: reliabilities would make Eq. (12)'s barrier infinite; flooring the
    #: slack keeps the gradient finite and pointing back into feasibility.
    slack_floor: float = 1e-3
    #: Validation-based model selection: every ``validate_every`` epochs,
    #: score the current predictors by deployment regret on
    #: ``validation_rounds`` held-out rounds sampled from the training set,
    #: and keep the best snapshot (restored at the end of fit).  Guards
    #: against the regret-SGD drift occasionally degrading a good warm
    #: start; 0 disables.
    validation_rounds: int = 4
    validate_every: int = 5

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.round_size <= 0:
            raise ValueError("epochs and round_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.slack_floor <= 0:
            raise ValueError("slack_floor must be positive")
        if self.validation_rounds < 0 or self.validate_every <= 0:
            raise ValueError("validation_rounds must be >= 0, validate_every > 0")


class MFCP(BaseMethod):
    """MFCP-AD (``gradient="analytic"``) and MFCP-FG (``gradient="forward"``)."""

    #: Whether the round's reliability update is norm-clipped like its time
    #: update (:meth:`_round` overrides that give the reliability head a
    #: plain MSE anchor step say no).
    _clip_reliability = True

    def __init__(
        self,
        gradient: str = "analytic",
        config: MFCPConfig | None = None,
    ) -> None:
        super().__init__()
        if gradient not in ("analytic", "forward"):
            raise ValueError(f"gradient must be 'analytic' or 'forward', got {gradient!r}")
        self.gradient = gradient
        self.name = "MFCP-AD" if gradient == "analytic" else "MFCP-FG"
        self.config = config or MFCPConfig()
        self._pairs: list[PredictorPair] = []
        self.loss_history: list[float] = []
        self._phase_totals: dict[str, float] = {}

    # ------------------------------------------------------------------ #

    @property
    def timings(self) -> dict[str, float]:
        """Per-phase wall-clock seconds of the last fit (pretrain / solve /
        vjp / optimizer / validation) — a derived view of the ``train/*``
        telemetry spans that the platform benchmark reads."""
        return dict(self._phase_totals)

    @contextmanager
    def _phase(self, key: str):
        """One training phase: opens the ``train/<key>`` telemetry span and
        mirrors its wall clock into the :attr:`timings` view (which
        must keep accumulating even when telemetry is off)."""
        t0 = time.perf_counter()
        with telemetry.span(f"train/{key}"):
            try:
                yield
            finally:
                self._phase_totals[key] = (
                    self._phase_totals.get(key, 0.0) + time.perf_counter() - t0
                )

    def _fit(self, ctx: FitContext) -> None:
        if self.gradient == "analytic" and ctx.spec.speedup is not None:
            raise ValueError(
                "MFCP-AD requires the convex sequential objective; "
                "use MFCP-FG for parallel execution (paper §4.5)"
            )
        cfg = self.config
        self._phase_totals = {}
        # 1. Warm start with MSE pretraining.
        with self._phase("pretrain"):
            self._pairs = fit_pairs(ctx.datasets, ctx.feature_dim, HIDDEN,
                                    ctx.standardizer, cfg.pretrain, ctx.rng)

        # 2. Regret training: the M heads of a kind are one bank under one
        # Adam.  The banks live for this call only (see HeadBank).
        time_bank = HeadBank([p.time for p in self._pairs])
        rel_bank = HeadBank([p.reliability for p in self._pairs])
        opt_time = Adam(time_bank.params, lr=cfg.lr)
        opt_rel = Adam(rel_bank.params, lr=cfg.lr)

        def update(bank: HeadBank, opt: Adam, out: Tensor, grad: np.ndarray,
                   clip: bool = True) -> None:
            opt.zero_grad()
            out.backward(grad)
            if clip:
                bank.clip_grad_norm(GRAD_CLIP)
            opt.step()

        n_train = len(ctx.train_tasks)
        round_size = min(cfg.round_size, n_train)
        Z_all = ctx.features(ctx.train_tasks)
        T_all = np.stack([ds.t for ds in ctx.datasets])  # (M, n_train) measured
        A_all = np.stack([ds.a for ds in ctx.datasets])

        # Held-out validation rounds for model selection (fixed once so all
        # epoch snapshots are scored on the same instances).
        val_rng = spawn(ctx.rng)
        val_idx, val_problems = [], []
        for _ in range(cfg.validation_rounds):
            idx = val_rng.choice(n_train, size=round_size, replace=False)
            try:
                val_problems.append(
                    ctx.spec.build_problem(T_all[:, idx], A_all[:, idx], training=True))
            except ValueError:
                continue
            val_idx.append(idx)
        val_Z = Z_all[np.stack(val_idx)] if val_problems else None  # (R, N, F)
        best_score = (self._validation_score(ctx, val_Z, val_problems)
                      if val_problems else None)
        best_state = self._snapshot() if val_problems else None
        # Validation score of the weights as they are now; None once they move.
        score = best_score

        self.loss_history = []
        for epoch in range(cfg.epochs):
            idx = ctx.rng.choice(n_train, size=round_size, replace=False)
            Z = Z_all[idx]
            T_true, A_true = T_all[:, idx], A_all[:, idx]
            try:
                true_problem = ctx.spec.build_problem(T_true, A_true, training=True)
            except ValueError:
                continue  # degenerate round (γ unattainable); resample next epoch
            # Alg. 2 line 3 for every cluster at once: row i of (t̂, â) is
            # cluster i's prediction of this round.
            with self._phase("optimizer"):
                t_hat = time_bank.forward(time_bank.prepare(Z))
                a_hat = rel_bank.forward(rel_bank.prepare(Z))
            epoch_loss, dts, das = self._round(ctx, Z, t_hat.data, a_hat.data, true_problem)
            # Heads are independent, so one update after all M pullbacks is
            # the per-cluster update of Algorithm 2.  ω and φ move jointly:
            # §3.3's alternating schedule was no more stable and half as
            # sample-efficient at small budgets (see DESIGN.md).
            with self._phase("optimizer"):
                update(time_bank, opt_time, t_hat, dts)
                update(rel_bank, opt_rel, a_hat, das, clip=self._clip_reliability)
            score = None
            self.loss_history.append(epoch_loss)
            telemetry.observe("train/epoch_regret_proxy", epoch_loss)
            if val_problems and (epoch + 1) % cfg.validate_every == 0:
                score = self._validation_score(ctx, val_Z, val_problems)
                if score < best_score:  # type: ignore[operator]
                    best_score = score
                    best_state = self._snapshot()
        if val_problems and best_state is not None:
            if score is None:
                score = self._validation_score(ctx, val_Z, val_problems)
            if score > best_score:  # type: ignore[operator]
                self._restore(best_state)

    def _round(
        self,
        ctx: FitContext,
        Z: np.ndarray,
        t_hat: np.ndarray,
        a_hat: np.ndarray,
        true_problem: MatchingProblem,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """One epoch's loss and ``(M, N)`` regret gradients w.r.t. every
        cluster's predictions ``(t̂, â)`` — the one hook :meth:`_fit` calls,
        and what a method with its own training signal overrides.  MFCP
        fuses the round where the batch kernel expresses its program."""
        if batchable(true_problem, ctx.spec.solver):
            return self._train_round_batched(ctx, Z, t_hat, a_hat, true_problem)
        # Queryable, not silent: ζ rounds and ablation specs land here.
        telemetry.counter_add("train/scalar_fallback_rounds")
        return self._train_round(ctx, Z, t_hat, a_hat, true_problem)

    # ------------------------------------------------------------------ #
    # Scalar (paper-literal) round: one cluster at a time.
    # ------------------------------------------------------------------ #

    def _train_round(
        self,
        ctx: FitContext,
        Z: np.ndarray,
        t_hat: np.ndarray,
        a_hat: np.ndarray,
        true_problem: MatchingProblem,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """:meth:`_round`, cluster by cluster (Algorithm 2 as printed)."""
        cfg = self.config
        M, N = true_problem.M, true_problem.N
        T_true = np.array(true_problem.T)
        A_true = np.array(true_problem.A)
        with self._phase("solve"):
            oracle_sol = solve_relaxed(true_problem, ctx.spec.solver)
        total_loss = 0.0
        dts, das = np.empty((M, N)), np.empty((M, N))

        for i in range(M):
            # Alg. 2 line 3: only cluster i's rows are predicted.
            T_hat = T_true.copy()
            A_hat = A_true.copy()
            T_hat[i] = t_hat[i]
            A_hat[i] = a_hat[i]
            pred_problem = true_problem.with_predictions(T_hat, A_hat)
            with self._phase("solve"):
                sol = solve_relaxed(pred_problem, ctx.spec.solver, x0=oracle_sol.X)

            g_X = self._upstream_gradient(sol.X, true_problem)
            total_loss += self._regret_proxy(sol.X, oracle_sol.X, true_problem)

            with self._phase("vjp"):
                if self.gradient == "analytic":
                    kg = kkt_vjp(sol.X, pred_problem, g_X)
                    dts[i], das[i] = kg.dT[i], kg.dA[i]
                else:
                    zg = zo_vjp(
                        pred_problem, sol, i, g_X,
                        cfg.zero_order, solver_config=ctx.spec.solver, rng=spawn(ctx.rng),
                    )
                    dts[i], das[i] = zg.dt, zg.da
        return total_loss / M, dts, das

    # ------------------------------------------------------------------ #
    # Fused batched round: all M clusters in one cross-cluster solve.
    # ------------------------------------------------------------------ #

    def _train_round_batched(
        self,
        ctx: FitContext,
        Z: np.ndarray,
        t_hat: np.ndarray,
        a_hat: np.ndarray,
        true_problem: MatchingProblem,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """:meth:`_round` as a single batched NumPy program (see module
        docs)."""
        cfg = self.config
        M, N = true_problem.M, true_problem.N
        T_true = np.array(true_problem.T)
        A_true = np.array(true_problem.A)
        scfg: SolverConfig = ctx.spec.solver

        # The semi-predicted matrices are assembled by one diagonal row write.
        diag = np.arange(M)
        # Instances 0..M−1 are the semi-predicted problems; instance M is
        # the oracle (fully measured) problem, so the whole epoch — oracle
        # included — is one batched solve.  (The scalar path warm-starts
        # the pred solves from the oracle solution instead; the fused batch
        # cold-starts all instances from the feasible blend, which changes
        # nothing at the optimum of these convex programs — see DESIGN.md.)
        T_stack = np.broadcast_to(T_true, (M + 1, M, N)).copy()
        A_stack = np.broadcast_to(A_true, (M + 1, M, N)).copy()
        T_stack[diag, diag] = t_hat
        A_stack[diag, diag] = a_hat
        T_b, A_b, gammas = clamp_predictions_batch(T_stack, A_stack, true_problem.gamma)
        full_batch = BatchProblem(
            T=T_b, A=A_b, gamma=gammas,
            beta=true_problem.beta, lam=true_problem.lam, entropy=true_problem.entropy,
        )
        with self._phase("solve"):
            full_sol = solve_relaxed_batch(
                full_batch,
                lr=scfg.lr,
                max_iters=scfg.max_iters,
                tol=scfg.tol,
                patience=scfg.patience,
            )
        X = full_sol.X[:M]  # (M, M, N) semi-predicted optima
        X_oracle = full_sol.X[M]
        batch = BatchProblem(
            T=T_b[:M], A=A_b[:M], gamma=gammas[:M],
            beta=true_problem.beta, lam=true_problem.lam, entropy=true_problem.entropy,
        )

        # Batched upstream gradients under the *true* problem, slack-floored
        # exactly like the scalar _upstream_gradient (flooring the slack ≡
        # shifting γ so the floored slack is attained at X*).
        true_batch = BatchProblem(
            T=np.broadcast_to(T_true, (M, M, N)),
            A=np.broadcast_to(A_true, (M, M, N)),
            gamma=np.full(M, true_problem.gamma),
            beta=true_problem.beta,
            lam=true_problem.lam,
            entropy=true_problem.entropy,
        )
        slack = np.einsum("bmn,mn->b", X, A_true) / (M * N) - true_problem.gamma
        g_X = batch_barrier_gradient(
            X, true_batch, slack=np.maximum(slack, cfg.slack_floor)
        ) / N

        # Monitoring loss: batched Eq. (12) regret proxy on the relaxed
        # matchings (LSE makespan under the truth, oracle-centered).
        loads = np.einsum("bmn,mn->bm", X, T_true)
        z = true_problem.beta * loads
        shift = z.max(axis=1, keepdims=True)
        lse = (np.log(np.exp(z - shift).sum(axis=1)) + shift[:, 0]) / true_problem.beta
        oracle_cost = self._regret_reference(X_oracle, true_problem)
        total_loss = float(np.mean(lse - oracle_cost)) / N

        with self._phase("vjp"):
            if self.gradient == "analytic":
                kg = batch_kkt_vjp(X, batch, g_X)
                dts = kg.dT[diag, diag]  # (M, N): instance i, cluster-i rows
                das = kg.dA[diag, diag]
            else:
                zg = zo_vjp_cross(
                    batch, X, diag, g_X,
                    cfg.zero_order, solver_config=scfg, rng=spawn(ctx.rng),
                )
                dts, das = zg.dt, zg.da
        return total_loss, dts, das

    # ------------------------------------------------------------------ #

    def _snapshot(self) -> list[tuple[dict, dict]]:
        """State dicts of every predictor pair (for model selection)."""
        return [(p.time.state_dict(), p.reliability.state_dict()) for p in self._pairs]

    def _restore(self, state: list[tuple[dict, dict]]) -> None:
        for pair, (ts, rs) in zip(self._pairs, state):
            pair.time.load_state_dict(ts)
            pair.reliability.load_state_dict(rs)

    def _validation_score(
        self, ctx: FitContext, val_Z: np.ndarray, val_problems: list[MatchingProblem]
    ) -> float:
        """Mean deployment regret proxy of the current predictors over the
        held-out rounds (``val_Z``: their ``(R, N, F)`` features): solve
        the predicted problem, round, score under the truth (smaller is
        better)."""
        from repro.matching.objectives import decision_cost
        from repro.matching.rounding import round_assignment

        scfg = ctx.spec.solver
        with self._phase("validation"):
            T_hat, A_hat = predict_pairs(self._pairs, val_Z)  # (R, M, N)
            pred_problems = [true.with_predictions(T_hat[b], A_hat[b])
                             for b, true in enumerate(val_problems)]
            if batchable(val_problems[0], scfg):  # one spec: all rounds alike
                # All held-out rounds solved in one batch (same scoring rule).
                T_b, A_b, g_b = clamp_predictions_batch(
                    T_hat, A_hat, np.array([p.gamma for p in val_problems]))
                first = val_problems[0]
                bp = BatchProblem(T=T_b, A=A_b, gamma=g_b, beta=first.beta,
                                  lam=first.lam, entropy=first.entropy)
                relaxed = solve_relaxed_batch(
                    bp, lr=scfg.lr, max_iters=scfg.max_iters, tol=scfg.tol,
                    patience=scfg.patience,
                ).X
            else:
                relaxed = [solve_relaxed(p, scfg).X for p in pred_problems]
            total = 0.0
            for X, pred, true in zip(relaxed, pred_problems, val_problems):
                total += decision_cost(round_assignment(X, pred), true) / true.N
            return total / len(val_problems)

    def _upstream_gradient(
        self, X_star: np.ndarray, true_problem: MatchingProblem
    ) -> np.ndarray:
        """``dL/dX* = (1/N) ∇_X F(X, T, A)|_{X*}`` with a slack floor.

        If the predicted matching is infeasible under the true
        reliabilities, evaluating Eq. (12)'s barrier gradient at the true
        slack would blow up; flooring the slack keeps a large-but-finite
        pull towards feasibility (an exact soft extension of the barrier).
        """
        slack = reliability_value(X_star, true_problem)
        problem = true_problem
        if slack < self.config.slack_floor:
            # Shift γ so the floored slack is attained exactly at X*.
            problem = replace(
                true_problem, gamma=true_problem.gamma - (self.config.slack_floor - slack)
            )
        return barrier_gradient(X_star, problem) / true_problem.N

    @staticmethod
    def _regret_reference(
        X_oracle: np.ndarray, true_problem: MatchingProblem
    ) -> float:
        from repro.matching.objectives import smooth_cost

        return smooth_cost(X_oracle, true_problem)

    @staticmethod
    def _regret_proxy(
        X_pred: np.ndarray, X_oracle: np.ndarray, true_problem: MatchingProblem
    ) -> float:
        """Monitoring value of the Eq. (12) loss on the relaxed matchings."""
        from repro.matching.objectives import smooth_cost

        return (
            smooth_cost(X_pred, true_problem) - smooth_cost(X_oracle, true_problem)
        ) / true_problem.N

    # ------------------------------------------------------------------ #

    def predict(self, tasks: list[Task]) -> tuple[np.ndarray, np.ndarray]:
        if not self._pairs:
            raise RuntimeError("MFCP.predict called before fit")
        return predict_pairs(self._pairs, np.stack([t.features for t in tasks]))
