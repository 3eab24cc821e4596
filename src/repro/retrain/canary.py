"""Canary gate: shadow-evaluating a refit candidate before it serves.

A candidate that looks fine on its own training loss can still be worse
than the live model *where it matters* — on fresh traffic, and on the
decisions the matcher derives from it.  The gate therefore scores the
candidate against the live model on three axes, all computed offline
(shadow mode: the candidate touches no production decision):

- **time accuracy** — MSE in log-time space over the held-out labels'
  successful executions, the exact loss the time head optimizes;
- **reliability calibration** — Brier score of â against the binary
  realized outcome over all held-out labels;
- **decision regret** — for a cache of recent windows, re-run the
  deployment pipeline (predict → relax → round) under each model's
  predictions and compare the *true* per-task makespan of the resulting
  assignments (the paper's Eq. 6 numerator, same re-solve idiom as
  :class:`repro.monitor.attribution.RegretAttributor`).  Accuracy gates
  alone miss the asymmetry of decision losses — a model can have lower
  MSE yet rank clusters worse; this axis is what "joint prediction and
  matching" demands of a promotion gate.

The candidate is promoted only if it clears every axis:
``candidate <= ratio_max * live + ABS_SLACK`` per metric, where the
additive slack keeps near-zero live scores from demanding the
impossible.  Insufficient holdout is an automatic **fail** — "not enough
evidence" must never promote.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.matching.objectives import makespan
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import SolverConfig
from repro.metrics.regret import deployment_matching
from repro.predictors.models import PredictorPair
from repro.retrain.buffer import Label

__all__ = ["CanaryWindow", "CanaryDecision", "CanaryGate"]

#: Per-axis promotion bounds: ``candidate <= ratio_max * live + ABS_SLACK``.
TIME_RATIO_MAX = 1.0
BRIER_RATIO_MAX = 1.05
REGRET_RATIO_MAX = 1.02
ABS_SLACK = 1e-3


@dataclass(frozen=True)
class CanaryWindow:
    """One cached dispatch window, replayable under alternative models."""

    window: int
    pair_rows: tuple[int, ...]  # pair-list indices of the window's up clusters
    T: np.ndarray  # true times, shape (m, k)
    A: np.ndarray  # true reliabilities, shape (m, k)
    gamma: float
    Z: np.ndarray  # raw task features, shape (k, d)


@dataclass(frozen=True)
class CanaryDecision:
    """The gate's verdict with every per-axis score it was based on."""

    passed: bool
    reasons: tuple[str, ...]  # failed axes (empty when passed)
    n_holdout: int
    n_windows: int
    time_mse_candidate: float
    time_mse_live: float
    brier_candidate: float
    brier_live: float
    regret_candidate: float
    regret_live: float

    def metrics(self) -> "dict[str, float]":
        """Flat scalar dict for checkpoint metadata and telemetry."""
        return {
            "canary_passed": float(self.passed),
            "canary_holdout": float(self.n_holdout),
            "canary_windows": float(self.n_windows),
            "time_mse_candidate": self.time_mse_candidate,
            "time_mse_live": self.time_mse_live,
            "brier_candidate": self.brier_candidate,
            "brier_live": self.brier_live,
            "regret_candidate": self.regret_candidate,
            "regret_live": self.regret_live,
        }


def _accuracy_scores(
    pairs: "list[PredictorPair]",
    pair_index: "dict[int, int]",
    holdout: "list[Label]",
) -> "tuple[float, float]":
    """(log-time MSE over successes, Brier over all) for one model."""
    sq_time: "list[float]" = []
    sq_rel: "list[float]" = []
    by_cluster: "dict[int, list[Label]]" = {}
    for label in holdout:
        by_cluster.setdefault(label.cluster_id, []).append(label)
    for cid in sorted(by_cluster):
        group = by_cluster[cid]
        pair = pairs[pair_index[cid]]
        Z = np.stack([l.features for l in group])
        t_hat, a_hat = pair.predict(Z)
        a = np.array([float(l.success) for l in group])
        sq_rel.extend(((a_hat - a) ** 2).tolist())
        ok = [i for i, l in enumerate(group) if l.success]
        if ok:
            t = np.array([group[i].realized_hours for i in ok])
            err = np.log(t_hat[ok]) - np.log(t)
            sq_time.extend((err ** 2).tolist())
    time_mse = float(np.mean(sq_time)) if sq_time else float("nan")
    brier = float(np.mean(sq_rel)) if sq_rel else float("nan")
    return time_mse, brier


def _decision_cost(
    pairs: "list[PredictorPair]",
    windows: "list[CanaryWindow]",
    solver: SolverConfig,
) -> float:
    """Mean per-task true makespan of the model's replayed decisions."""
    costs: "list[float]" = []
    for w in windows:
        rows = [pairs[i].predict(w.Z) for i in w.pair_rows]
        T_hat = np.stack([r[0] for r in rows])
        A_hat = np.stack([r[1] for r in rows])
        truth = MatchingProblem(T=w.T, A=w.A, gamma=w.gamma)
        decision = truth.with_predictions(T_hat, A_hat)
        X = deployment_matching(decision, solver_config=solver)
        costs.append(makespan(X, truth) / truth.N)
    return float(np.mean(costs)) if costs else float("nan")


class CanaryGate:
    """Three-axis promotion gate comparing a candidate to the live model."""

    def __init__(
        self,
        *,
        min_holdout: int = 12,
        solver_config: "SolverConfig | None" = None,
    ) -> None:
        if min_holdout < 1:
            raise ValueError("min_holdout must be >= 1")
        self.min_holdout = min_holdout
        self.solver_config = solver_config or SolverConfig(tol=1e-4, max_iters=300)

    def evaluate(
        self,
        candidate: "list[PredictorPair]",
        live: "list[PredictorPair]",
        pair_index: "dict[int, int]",
        holdout: "list[Label]",
        windows: "list[CanaryWindow]",
    ) -> CanaryDecision:
        """Score candidate vs live; only labels/windows given are used.

        ``pair_index`` maps cluster id → position in the pair lists (the
        dispatcher's cluster order).  Holdout labels must already be
        causally observable — the controller filters on ``end <= now``
        before calling.
        """
        reasons: "list[str]" = []
        if len(holdout) < self.min_holdout:
            reasons.append(f"insufficient_holdout({len(holdout)}<{self.min_holdout})")
            nan = float("nan")
            return CanaryDecision(
                passed=False, reasons=tuple(reasons),
                n_holdout=len(holdout), n_windows=len(windows),
                time_mse_candidate=nan, time_mse_live=nan,
                brier_candidate=nan, brier_live=nan,
                regret_candidate=nan, regret_live=nan,
            )
        t_cand, b_cand = _accuracy_scores(candidate, pair_index, holdout)
        t_live, b_live = _accuracy_scores(live, pair_index, holdout)
        r_cand = _decision_cost(candidate, windows, self.solver_config)
        r_live = _decision_cost(live, windows, self.solver_config)

        def worse(cand: float, ref: float, ratio: float) -> bool:
            # NaN never clears a gate except when both sides lack data
            # (e.g. no cached windows: the axis is vacuously equal).
            if np.isnan(cand) and np.isnan(ref):
                return False
            if np.isnan(cand) or np.isnan(ref):
                return True
            return cand > ratio * ref + ABS_SLACK

        if worse(t_cand, t_live, TIME_RATIO_MAX):
            reasons.append("time_mse")
        if worse(b_cand, b_live, BRIER_RATIO_MAX):
            reasons.append("brier")
        if worse(r_cand, r_live, REGRET_RATIO_MAX):
            reasons.append("decision_regret")
        return CanaryDecision(
            passed=not reasons, reasons=tuple(reasons),
            n_holdout=len(holdout), n_windows=len(windows),
            time_mse_candidate=t_cand, time_mse_live=t_live,
            brier_candidate=b_cand, brier_live=b_live,
            regret_candidate=r_cand, regret_live=r_live,
        )
