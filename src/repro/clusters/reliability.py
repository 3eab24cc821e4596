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

import numpy as np

from repro.clusters.hardware import HardwareProfile
from repro.clusters.perf_models import PerfModel
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
        if exec_time_hours < 0:
            raise ValueError("execution time must be non-negative")
        survival = math.exp(-self.hardware.hazard_per_hour * exec_time_hours)
        pressure = spec.memory_gb / self.hardware.memory_gb
        mem_ok = math.exp(-self.memory_fail_scale * max(0.0, pressure - 0.7) * 10.0)
        a = self.hardware.base_reliability * survival * mem_ok
        return min(max(a, _MIN_RELIABILITY), _MAX_RELIABILITY)

    def reliabilities(self, specs: "list[ModelSpec]", times: np.ndarray) -> np.ndarray:
        """Vectorized convenience over a task list."""
        if len(specs) != len(times):
            raise ValueError("specs and times must have matching lengths")
        return np.array([self.reliability(s, t) for s, t in zip(specs, times.tolist())])
