"""Speedup-ratio functions ζ for parallel task execution (paper §3.4).

When a cluster runs several tasks concurrently, the realized total time is
``ζ_i(k) · Σ t`` where ``k`` is the number of tasks on the cluster and
``ζ_i`` captures the scheduler's parallel efficiency.  §4.5 instantiates ζ
as "an exponential decay curve from 1 to 0.6" — one task gives no overlap
(ζ=1) while many tasks saturate at a 40% reduction.

Implementations must be smooth in ``k`` because Algorithm 1 evaluates them
at *fractional* loads ``k_i = x_iᵀ1`` of the relaxed assignment, and the
non-convex objective (Eq. 16/17) differentiates through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["SpeedupFunction", "IdentitySpeedup", "ExponentialDecaySpeedup"]


@runtime_checkable
class SpeedupFunction(Protocol):
    """Smooth map from (fractional) task count to a time multiplier."""

    def value(self, k: np.ndarray) -> np.ndarray:
        """ζ(k); defined for k >= 0, with ζ(k) ∈ (0, 1]."""
        ...

    def derivative(self, k: np.ndarray) -> np.ndarray:
        """dζ/dk — needed by the analytic gradient of Eq. (17)."""
        ...


@dataclass(frozen=True)
class IdentitySpeedup:
    """Sequential-exclusive execution: ζ ≡ 1 (the paper's base setting)."""

    def value(self, k: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(k, dtype=np.float64))

    def derivative(self, k: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(k, dtype=np.float64))


@dataclass(frozen=True)
class ExponentialDecaySpeedup:
    """§4.5's ζ: exponential decay from 1 (at k=1) towards ``floor``.

    ``ζ(k) = floor + (1 − floor) · exp(−rate · max(k − 1, 0))``

    The max() keeps ζ=1 for sub-unit fractional loads; it is smoothed with
    a softplus so the derivative exists everywhere (gradient descent on the
    relaxed problem crosses k=1 freely).
    """

    floor: float = 0.6
    rate: float = 0.5
    smoothing: float = 8.0  # softplus sharpness for the (k-1)+ hinge

    def __post_init__(self) -> None:
        if not 0.0 < self.floor <= 1.0:
            raise ValueError(f"floor must be in (0, 1], got {self.floor}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.smoothing <= 0:
            raise ValueError(f"smoothing must be > 0, got {self.smoothing}")

    def _hinge(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Smooth (k−1)+ and its derivative via softplus."""
        z = self.smoothing * (np.asarray(k, dtype=np.float64) - 1.0)
        hinge = np.logaddexp(0.0, z) / self.smoothing
        dhinge = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        return hinge, dhinge

    def value(self, k: np.ndarray) -> np.ndarray:
        hinge, _ = self._hinge(k)
        return self.floor + (1.0 - self.floor) * np.exp(-self.rate * hinge)

    def derivative(self, k: np.ndarray) -> np.ndarray:
        hinge, dhinge = self._hinge(k)
        return -(1.0 - self.floor) * self.rate * np.exp(-self.rate * hinge) * dhinge
