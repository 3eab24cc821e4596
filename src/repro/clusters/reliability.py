"""Ground-truth reliability models.

Reliability ``a ∈ (0, 1]`` is the probability a task completes successfully
on a cluster (paper §2.1).  Third-party clusters fail through connection
interruptions and hardware faults; both scale with exposure time, so the
core model is a survival function ``exp(-hazard · t)`` on top of a
per-cluster base reliability, with an extra memory-pressure failure mode
(OOM-adjacent instability) — making reliability *task-dependent*, as the
paper's footnote 1 requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clusters.hardware import HardwareProfile
from repro.workloads.specs import ModelSpec

__all__ = ["ReliabilityModel", "draw_attempt"]

#: Reliability floor — even the flakiest assignment has some chance.
_MIN_RELIABILITY = 0.05
#: Ceiling below 1: no distributed execution is certain.
_MAX_RELIABILITY = 0.999


def draw_attempt(a: float, rng: np.random.Generator) -> tuple[bool, float]:
    """One execution attempt under reliability ``a``: ``(success, fraction)``.

    A success runs its whole duration (fraction 1.0); a failure aborts at a
    uniform fraction in [0.05, 0.95) of it, wasting that cluster time.  The
    execution simulator and the serving loop both draw through here.
    """
    if rng.random() < a:
        return True, 1.0
    return False, float(rng.uniform(0.05, 0.95))


@dataclass(frozen=True)
class ReliabilityModel:
    """Deterministic map ``(ModelSpec, execution time) → success probability``.

    Parameters
    ----------
    hardware:
        Supplies ``base_reliability`` and ``hazard_per_hour``.
    memory_fail_scale:
        Strength of the memory-pressure failure mode: tasks using more than
        ~70% of device memory become increasingly fragile.
    """

    hardware: HardwareProfile
    memory_fail_scale: float = 0.15

    def __post_init__(self) -> None:
        if self.memory_fail_scale < 0:
            raise ValueError("memory_fail_scale must be >= 0")

    def reliability(self, spec: ModelSpec, exec_time_hours: float) -> float:
        """Ground-truth success probability of one task on this cluster."""
        return self._probabilities((spec,), (exec_time_hours,))[0]

    def reliabilities(self, specs: "Sequence[ModelSpec]", times: np.ndarray) -> np.ndarray:
        """Ground-truth success probabilities of ``specs`` run for ``times`` hours."""
        if len(specs) != len(times):
            raise ValueError("specs and times must have matching lengths")
        return np.array(self._probabilities(specs, times.tolist()))

    def _probabilities(
        self, specs: "Sequence[ModelSpec]", times: "Sequence[float]"
    ) -> "list[float]":
        """The reliability model, one loop over ``(spec, hours)`` pairs.

        Base reliability × survival ``exp(-hazard · t)`` × the memory
        failure factor ``exp(-scale · max(0, pressure - 0.7) · 10)``,
        clamped to ``[_MIN_RELIABILITY, _MAX_RELIABILITY]``.  As in
        :meth:`PerfModel._hours`, only whole sub-expressions are hoisted and
        ``min`` / ``max`` keep their tie and NaN rule, so every value has the
        bits of the formula evaluated pair by pair.  Below 0.7 pressure the
        memory factor is the exponential of a constant, taken once per call.
        """
        hw = self.hardware
        neg_hazard = -hw.hazard_per_hour
        memory = hw.memory_gb
        neg_scale = -self.memory_fail_scale
        base = hw.base_reliability
        calm = math.exp(neg_scale * 0.0 * 10.0)
        out = []
        append = out.append
        for spec, t in zip(specs, times):
            if t < 0:
                raise ValueError("execution time must be non-negative")
            excess = spec.memory_gb / memory - 0.7
            mem_ok = math.exp(neg_scale * excess * 10.0) if excess > 0.0 else calm
            a = base * math.exp(neg_hazard * t) * mem_ok
            a = _MIN_RELIABILITY if _MIN_RELIABILITY > a else a
            append(_MAX_RELIABILITY if _MAX_RELIABILITY < a else a)
        return out
