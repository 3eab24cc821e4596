"""Numerical verification of Theorem 1 (smooth approximation of the max).

For ``f̃(v) = (1/β) log Σ exp(β v_i)`` the classical bounds are

    max(v)  ≤  f̃(v)  ≤  max(v) + log(M)/β,

so ``f̃ → max`` uniformly as β → ∞ at rate O(log M / β).  The functions
here evaluate the bound and the empirical gap over instance families; the
Table-1-adjacent ablation bench sweeps β with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.functional import logsumexp_np

__all__ = ["smooth_max_gap", "theorem1_bound", "SmoothingSweep", "sweep_beta"]


def smooth_max_gap(values: np.ndarray, beta: float) -> float:
    """``f̃(v) − max(v)`` (always in [0, log(M)/β])."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    values = np.asarray(values, dtype=np.float64)
    lse = float(logsumexp_np(beta * values)) / beta
    return lse - float(values.max())


def theorem1_bound(m: int, beta: float) -> float:
    """The Theorem 1 upper bound ``log(M)/β`` on the smoothing gap."""
    if m <= 0 or beta <= 0:
        raise ValueError("m and beta must be positive")
    return float(np.log(m) / beta)


@dataclass(frozen=True)
class SmoothingSweep:
    """Result of a β sweep: empirical max gap vs. theoretical bound."""

    betas: np.ndarray
    empirical_gap: np.ndarray  # worst case over instances, per β
    bound: np.ndarray

    def holds(self) -> bool:
        return bool(np.all(self.empirical_gap <= self.bound + 1e-12))


def sweep_beta(
    betas: "list[float] | np.ndarray",
    *,
    m: int = 3,
    instances: int = 50,
    rng: np.random.Generator | int | None = None,
) -> SmoothingSweep:
    """Empirically measure the smoothing gap across random load vectors."""
    gen = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    betas_arr = np.asarray(betas, dtype=np.float64)
    if np.any(betas_arr <= 0):
        raise ValueError("all betas must be positive")
    samples = gen.uniform(0.0, 3.0, size=(instances, m))
    gaps = np.array(
        [max(smooth_max_gap(v, b) for v in samples) for b in betas_arr]
    )
    bounds = np.array([theorem1_bound(m, b) for b in betas_arr])
    return SmoothingSweep(betas=betas_arr, empirical_gap=gaps, bound=bounds)
