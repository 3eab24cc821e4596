"""Common interface for the compared methods (paper §4.1.2).

Every method consumes one :class:`FitContext` (clusters + measured training
data + matching hyperparameters) and then answers allocation rounds through
``decide`` — producing a binary matching for a given ground-truth problem,
using only its own *predictions* of that problem's matrices.  The
evaluation harness computes regret/reliability/utilization from the
returned matching against the ground truth.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

from repro.clusters.cluster import Cluster
from repro.matching.problem import MatchingProblem, feasible_gamma
from repro.matching.relaxed import RelaxedSolution, SolverConfig, solve_relaxed
from repro.matching.rounding import round_assignment
from repro.matching.speedup import SpeedupFunction
from repro.predictors.dataset import ClusterDataset, Standardizer, build_datasets
from repro.utils.rng import as_generator
from repro.workloads.taskpool import Task

__all__ = ["MatchSpec", "FitContext", "BaseMethod", "Decision"]

#: Hidden layer sizes of every method's per-cluster predictor heads.
HIDDEN = (32, 32)
#: τ for training-time solves (keeps KKT well-posed).
TRAIN_ENTROPY = 0.05


@dataclass(frozen=True)
class MatchSpec:
    """Matching hyperparameters shared by training and evaluation.

    ``gamma_quantile`` positions the reliability threshold between the
    uniform-assignment value (0) and the best achievable (1) on each round
    — see :func:`repro.matching.problem.feasible_gamma`; the platform
    applies the same rule at training and deployment.
    """

    gamma_quantile: float = 0.5
    beta: float = 5.0
    lam: float = 0.01
    speedup: tuple[SpeedupFunction, ...] | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    cost: str = "makespan"  # "linear" for Table 1 ablation (1)
    penalty: str = "log_barrier"  # "hinge" for Table 1 ablation (2)

    def build_problem(
        self, T: np.ndarray, A: np.ndarray, *, training: bool = False
    ) -> MatchingProblem:
        """Instantiate Eq. (2)'s relaxation for one allocation round."""
        gamma = feasible_gamma(T, A, quantile=self.gamma_quantile)
        return MatchingProblem(
            T=T,
            A=A,
            gamma=gamma,
            beta=self.beta,
            lam=self.lam,
            entropy=TRAIN_ENTROPY if training else 0.0,
            speedup=self.speedup,
            cost=self.cost,
            penalty=self.penalty,
        )


@dataclass
class FitContext:
    """Everything a method may use at training time."""

    clusters: list[Cluster]
    train_tasks: list[Task]
    spec: MatchSpec
    rng: np.random.Generator
    datasets: list[ClusterDataset] = field(default_factory=list)
    standardizer: Standardizer | None = None

    @staticmethod
    def build(
        clusters: list[Cluster],
        train_tasks: list[Task],
        spec: MatchSpec,
        rng: np.random.Generator | int | None = None,
    ) -> "FitContext":
        """Measure the training tasks on every cluster and standardize."""
        rng = as_generator(rng)
        datasets = build_datasets(clusters, train_tasks, rng)
        standardizer = Standardizer.fit(datasets[0].Z)
        return FitContext(
            clusters=clusters,
            train_tasks=train_tasks,
            spec=spec,
            rng=rng,
            datasets=datasets,
            standardizer=standardizer,
        )

    @property
    def feature_dim(self) -> int:
        return self.train_tasks[0].features.shape[0]

    @property
    def M(self) -> int:
        return len(self.clusters)

    def features(self, tasks: list[Task]) -> np.ndarray:
        return np.stack([t.features for t in tasks])


@dataclass(frozen=True)
class Decision:
    """Full outcome of one allocation decision (serving-layer entry point).

    ``X`` is the rounded binary matching the platform executes; ``relaxed``
    carries the interior iterate, iteration count and step memory a
    warm-start cache feeds back into the next window's solve; ``problem``
    is the *decision* problem (built from predictions) the solve ran on.
    """

    X: np.ndarray
    relaxed: RelaxedSolution
    problem: MatchingProblem


class BaseMethod(ABC):
    """A matching method: fit once, then decide allocation rounds."""

    #: Short name used in tables (e.g. "TSM", "MFCP-AD").
    name: str = "base"

    def __init__(self) -> None:
        self._fitted = False
        self._spec: MatchSpec | None = None

    # ------------------------------------------------------------------ #

    def fit(self, ctx: FitContext) -> "BaseMethod":
        """Train on the context; returns self for chaining."""
        self._spec = ctx.spec
        self._fit(ctx)
        self._fitted = True
        return self

    @abstractmethod
    def _fit(self, ctx: FitContext) -> None:
        """Method-specific training."""

    @abstractmethod
    def predict(self, tasks: list[Task]) -> tuple[np.ndarray, np.ndarray]:
        """Predicted (T̂, Â) matrices for an allocation round, shape (M, N)."""

    # ------------------------------------------------------------------ #

    def decide(self, true_problem: MatchingProblem, tasks: list[Task]) -> np.ndarray:
        """Produce the binary matching for one round.

        Default behaviour is the paper's deployment pipeline: build the
        problem from *predicted* matrices, solve the relaxation, round.
        Methods that alter the decision objective (ablations) override
        :meth:`_decision_problem`.
        """
        return self.decide_full(true_problem, tasks).X

    def decide_full(
        self,
        true_problem: MatchingProblem,
        tasks: list[Task],
        *,
        x0: np.ndarray | None = None,
        solver: SolverConfig | None = None,
        predictions: "tuple[np.ndarray, np.ndarray] | None" = None,
        solve_mode: str = "scalar",
        block_config=None,
        profiler=None,
    ) -> Decision:
        """The deployment pipeline with its serving hooks exposed.

        Parameters
        ----------
        x0:
            Warm start for the relaxed solve (e.g. the previous window's
            iterate from :class:`repro.serve.cache.WarmStartCache`); must
            be column-stochastic, falls back to the cold interior start if
            infeasible for this instance.
        solver:
            Override of the spec's solver config (step-memory consumers
            reopen at a remembered learning rate).
        predictions:
            Precomputed ``(T̂, Â)`` matrices — the serving layer memoizes
            predictor forward passes for repeated task specs and injects
            them here instead of re-running :meth:`predict`.
        solve_mode:
            One of :data:`repro.serve.dispatcher.SOLVE_MODES`, which the
            dispatcher's config checks.  ``"scalar"`` (default) runs the
            dense :func:`~repro.matching.relaxed.solve_relaxed`;
            ``"blocks"`` runs :func:`~repro.matching.blocks.solve_relaxed_blocks` —
            decompose into viability components, solve as one batched
            float32 instance (``block_config`` is its
            :class:`~repro.matching.blocks.BlockConfig`).
        profiler:
            Optional :class:`repro.telemetry.profiler.StageProfiler`.
            When given, the pipeline's relaxed solve and rounding run
            under ``relaxed`` / ``rounding`` stages (nested below
            whatever stage the caller holds open — the dispatcher's
            ``solve``), so the latency budget splits solver time from
            rounding time.
        """
        if not self._fitted:
            raise RuntimeError(f"{self.name}: decide() called before fit()")
        if profiler is None:
            from repro.telemetry.profiler import NULL_PROFILER as profiler
        with profiler.stage("predict"):
            T_hat, A_hat = self.predict(tasks) if predictions is None else predictions
        problem = self._decision_problem(true_problem.with_predictions(T_hat, A_hat))
        cfg = solver or self._solver_config()
        with profiler.stage("relaxed"):
            if solve_mode == "blocks":
                from repro.matching.blocks import solve_relaxed_blocks

                sol = solve_relaxed_blocks(problem, cfg, block_config=block_config,
                                           x0=x0)
            else:
                sol = solve_relaxed(problem, cfg, x0=x0)
        with profiler.stage("rounding"):
            X = round_assignment(sol.X, problem)
        return Decision(X=X, relaxed=sol, problem=problem)

    def _decision_problem(self, problem: MatchingProblem) -> MatchingProblem:
        """Hook for ablations to alter the decision objective."""
        return problem

    def _solver_config(self) -> SolverConfig:
        assert self._spec is not None
        return self._spec.solver

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, fitted={self._fitted})"
