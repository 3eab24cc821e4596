"""Numerical verification of the paper's Theorems 1–5 (used by tests and
the ablation benchmarks)."""

from repro.theory.convergence import (
    ConvexConvergence,
    NonConvexConvergence,
    convex_convergence_study,
    nonconvex_convergence_study,
)
from repro.theory.feasibility import FeasibilityStats, feasibility_study
from repro.theory.gradient_error import GradientErrorPoint, gradient_error_study
from repro.theory.smoothing import (
    SmoothingSweep,
    smooth_max_gap,
    sweep_beta,
    theorem1_bound,
)

__all__ = [
    "smooth_max_gap",
    "theorem1_bound",
    "SmoothingSweep",
    "sweep_beta",
    "FeasibilityStats",
    "feasibility_study",
    "GradientErrorPoint",
    "gradient_error_study",
    "ConvexConvergence",
    "convex_convergence_study",
    "NonConvexConvergence",
    "nonconvex_convergence_study",
]
