"""Online regret attribution: where did this window's makespan go?

For a sampled subset of dispatch windows the attributor re-solves the
window's matching in hindsight with the *true* matrices the snapshot
carries and decomposes the realized gap into two causes:

- **prediction gap** — ``f(X_exec, T) − f(X_oracle, T)``: the makespan
  the executed (prediction-driven) assignment paid over the assignment
  the same relax-and-round pipeline would have produced from the truth.
  This is exactly the paper's Eq. (6) regret numerator: the oracle runs
  the same two steps as :func:`repro.metrics.regret.deployment_matching`
  (relaxed solve, then rounding), spelled out here because the slack
  below needs the fractional ``X`` as well.
- **rounding slack** — ``f(X_oracle, T) − f(X_frac, T)``: what the
  rounding step itself costs relative to the fractional relaxed optimum.
  This part is *not* the predictor's fault; separating it keeps drift
  detectors fed by the prediction gap from alerting on solver artifacts.

Both terms are per-task normalized (the Eq. 6 convention).

Sampling is deterministic (every ``sample_every``-th window), never
random — replaying the same trace reproduces the same attributions
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.matching.objectives import makespan
from repro.matching.problem import MatchingProblem
from repro.matching.relaxed import SolverConfig, solve_relaxed
from repro.matching.rounding import round_assignment
from repro.serve.dispatcher import WindowSnapshot

__all__ = ["WindowAttribution", "RegretAttributor"]


@dataclass(frozen=True)
class WindowAttribution:
    """Per-task-normalized decomposition of one window's hindsight gap."""

    window: int
    n_tasks: int
    n_clusters: int
    cost_executed: float  # f(X_exec, T_true)
    cost_oracle: float  # f(round(relax(T_true)), T_true)
    cost_fractional: float  # f(X_frac, T_true), the relaxed lower anchor
    prediction_gap: float  # (cost_executed - cost_oracle) / N
    rounding_slack: float  # (cost_oracle - cost_fractional) / N

    @property
    def total_gap(self) -> float:
        """Identity: prediction gap + rounding slack, per task."""
        return self.prediction_gap + self.rounding_slack


class RegretAttributor:
    """Hindsight re-solver over a deterministic sample of windows.

    The last window of each ``sample_every``-window block (windows
    ``N−1, 2N−1, …``; every window when ``sample_every=1``) is re-solved
    from the snapshot's true ``T``/``A`` with the same deployment
    pipeline the dispatcher used.  End-of-block sampling keeps short
    runs from paying a fixed re-solve on window 0, so monitoring cost
    amortizes at the configured rate from the first window on.
    """

    def __init__(
        self,
        *,
        sample_every: int = 8,
        solver_config: SolverConfig | None = None,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.solver_config = solver_config or SolverConfig(tol=1e-4, max_iters=300)
        self.attributions: "list[WindowAttribution]" = []

    def wants(self, window: int) -> bool:
        return (window + 1) % self.sample_every == 0

    def attribute(self, snapshot: WindowSnapshot) -> "WindowAttribution | None":
        """Decompose one window; ``None`` when the window is not sampled."""
        if not self.wants(snapshot.window):
            return None
        # Hindsight problem from the snapshot's ground truth.  Makespan
        # depends only on T, so default penalty knobs are fine here; the
        # oracle pipeline mirrors deployment_matching exactly.
        problem = MatchingProblem(T=snapshot.T, A=snapshot.A, gamma=snapshot.gamma)
        relaxed = solve_relaxed(problem, self.solver_config)
        X_oracle = round_assignment(relaxed.X, problem)
        cost_exec = makespan(snapshot.X, problem)
        cost_oracle = makespan(X_oracle, problem)
        cost_frac = makespan(relaxed.X, problem)
        n = problem.N
        attribution = WindowAttribution(
            window=snapshot.window,
            n_tasks=n,
            n_clusters=problem.M,
            cost_executed=cost_exec,
            cost_oracle=cost_oracle,
            cost_fractional=cost_frac,
            prediction_gap=(cost_exec - cost_oracle) / n,
            rounding_slack=(cost_oracle - cost_frac) / n,
        )
        self.attributions.append(attribution)
        return attribution

    def summary(self) -> dict:
        """Aggregate view over all sampled windows so far."""
        if not self.attributions:
            return {"sampled": 0}
        pred = [a.prediction_gap for a in self.attributions]
        slack = [a.rounding_slack for a in self.attributions]
        return {
            "sampled": len(self.attributions),
            "prediction_gap_mean": sum(pred) / len(pred),
            "prediction_gap_max": max(pred),
            "rounding_slack_mean": sum(slack) / len(slack),
            "rounding_slack_max": max(slack),
        }
