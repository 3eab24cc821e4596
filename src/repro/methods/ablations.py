"""Ablation variants of MFCP for Table 1.

The paper ablates three design choices of the gradient pipeline:

1. **Maximum loss** → :class:`MFCPLinearLoss`: the time-cost functional is
   simplified to the *sum* of cluster times (a linear function), both in
   training and in the deployment decision;
2. **Interior-point method** → :class:`MFCPHardPenalty`: the logarithmic
   barrier is replaced by the hard hinge penalty
   ``λ · max(0, γ − g(X, A))``;
3. **Zeroth-order gradient estimation** → plain ``MFCP(gradient="forward")``
   evaluated on the convex (exclusive) setting, against
   ``MFCP(gradient="analytic")``.

Variants 1–2 subclass MFCP and only swap the problem-construction knobs in
the spec, so the training loop, gradients and rounding are shared code.
"""

from __future__ import annotations

from dataclasses import replace

from repro.matching.problem import MatchingProblem
from repro.methods.base import FitContext
from repro.methods.mfcp import MFCP, MFCPConfig

__all__ = ["MFCPLinearLoss", "MFCPHardPenalty", "make_table1_methods"]

#: The hinge penalty needs a much larger weight than the barrier's λ to
#: influence decisions at all: the barrier diverges near the boundary
#: while the hinge grows only linearly past it.
_HINGE_LAM = 5.0


class MFCPLinearLoss(MFCP):
    """Table 1 ablation (1): linear (sum) time cost instead of the max."""

    def __init__(self, gradient: str = "analytic", config: MFCPConfig | None = None) -> None:
        super().__init__(gradient, config)
        self.name = "MFCP (linear loss)"

    def _fit(self, ctx: FitContext) -> None:
        super()._fit(replace(ctx, spec=replace(ctx.spec, cost="linear")))

    def _decision_problem(self, problem: MatchingProblem) -> MatchingProblem:
        return replace(problem, cost="linear")


class MFCPHardPenalty(MFCP):
    """Table 1 ablation (2): hinge penalty instead of the log barrier."""

    def __init__(self, gradient: str = "analytic", config: MFCPConfig | None = None) -> None:
        super().__init__(gradient, config)
        self.name = "MFCP (hard penalty)"

    def _fit(self, ctx: FitContext) -> None:
        spec = replace(ctx.spec, penalty="hinge", lam=_HINGE_LAM)
        super()._fit(replace(ctx, spec=spec))

    def _decision_problem(self, problem: MatchingProblem) -> MatchingProblem:
        return replace(problem, penalty="hinge", lam=_HINGE_LAM)


def make_table1_methods(config: MFCPConfig | None = None) -> list[MFCP]:
    """The four rows of Table 1 in paper order:
    (1) linear loss, (2) hard penalty, (3) zeroth-order gradients, MFCP."""
    return [
        MFCPLinearLoss("analytic", config),
        MFCPHardPenalty("analytic", config),
        MFCP("forward", config),
        MFCP("analytic", config),
    ]
