"""Matching core: problem container, objectives, solvers, differentiation.

This package implements the paper's optimization machinery end to end:
Eq. (2) problem, Eq. (8)/(9) smoothing and barrier, Algorithm 1 relaxed
solver, exact discrete solvers, rounding, Eq. (15) KKT differentiation,
and Algorithm 2 zeroth-order gradient estimation.
"""

from repro.matching.batch import (
    BatchBarrierEval,
    BatchProblem,
    BatchSolution,
    batch_barrier_gradient,
    batch_barrier_value,
    batch_reliability_slack,
    batchable,
    clamp_predictions_batch,
    solve_relaxed_batch,
)
from repro.matching.batch_vjp import BatchKKTGradients, batch_kkt_vjp
from repro.matching.blocks import (
    Block,
    BlockConfig,
    BlockSolution,
    BlockStructure,
    analyze_blocks,
    solve_relaxed_blocks,
    viability_mask,
)
from repro.matching.exact import ExactSolution, solve_branch_and_bound, solve_bruteforce
from repro.matching.frank_wolfe import FrankWolfeConfig, solve_frank_wolfe
from repro.matching.kkt import KKTGradients, kkt_jacobians, kkt_vjp
from repro.matching.objectives import (
    BarrierDerivatives,
    BarrierEval,
    barrier_gradient,
    barrier_second_derivatives,
    barrier_value,
    cluster_loads,
    linear_cost,
    makespan,
    reliability_value,
    smooth_makespan,
)
from repro.matching.problem import MatchingProblem, feasible_gamma
from repro.matching.relaxed import (
    RelaxedSolution,
    SolverConfig,
    project_simplex_columns,
    solve_relaxed,
)
from repro.matching.rounding import (
    assignment_from_labels,
    labels_from_assignment,
    round_assignment,
)
from repro.matching.speedup import (
    ExponentialDecaySpeedup,
    IdentitySpeedup,
    SpeedupFunction,
)
from repro.matching.zeroth_order import (
    CrossZeroOrderGradients,
    ZeroOrderConfig,
    ZeroOrderGradients,
    zo_vjp,
    zo_vjp_cross,
)

__all__ = [
    "MatchingProblem",
    "feasible_gamma",
    "cluster_loads",
    "makespan",
    "linear_cost",
    "smooth_makespan",
    "reliability_value",
    "BarrierEval",
    "barrier_value",
    "barrier_gradient",
    "BarrierDerivatives",
    "barrier_second_derivatives",
    "SolverConfig",
    "RelaxedSolution",
    "solve_relaxed",
    "project_simplex_columns",
    "round_assignment",
    "assignment_from_labels",
    "labels_from_assignment",
    "ExactSolution",
    "solve_bruteforce",
    "solve_branch_and_bound",
    "FrankWolfeConfig",
    "solve_frank_wolfe",
    "batchable",
    "BatchProblem",
    "BatchSolution",
    "solve_relaxed_batch",
    "BatchBarrierEval",
    "batch_barrier_value",
    "batch_barrier_gradient",
    "batch_reliability_slack",
    "clamp_predictions_batch",
    "BatchKKTGradients",
    "batch_kkt_vjp",
    "BlockConfig",
    "Block",
    "BlockStructure",
    "BlockSolution",
    "viability_mask",
    "analyze_blocks",
    "solve_relaxed_blocks",
    "KKTGradients",
    "kkt_vjp",
    "kkt_jacobians",
    "ZeroOrderConfig",
    "ZeroOrderGradients",
    "CrossZeroOrderGradients",
    "zo_vjp",
    "zo_vjp_cross",
    "IdentitySpeedup",
    "ExponentialDecaySpeedup",
    "SpeedupFunction",
]
