"""Ground-truth execution-time models for heterogeneous clusters.

This is the synthetic replacement for the Xirang measurements (DESIGN.md
§2).  Execution time of a training run is derived from a roofline-style
physics model, then distorted by a cluster-archetype *response shape* —
the paper's Fig. 2 motif where one cluster's time grows linearly in the
workload while another's grows exponentially, producing crossings that MSE
predictors misrank.

The model is intentionally a function of the task's *interpretable*
attributes (FLOPs, memory pressure, batch size, family), not of the
embedded feature vector the predictors see — the predictors must learn an
imperfect mapping, which is the regime MFCP targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.clusters.hardware import HardwareProfile
from repro.workloads.specs import ModelSpec

__all__ = ["ResponseShape", "PerfModel"]


class ResponseShape(str, Enum):
    """Archetype nonlinearity applied on top of the roofline base time."""

    LINEAR = "linear"  # well-run cluster: time ∝ work
    MEMORY_EXP = "memory_exp"  # small-memory devices: exp penalty near capacity
    SATURATING = "saturating"  # good pipelining: sublinear in work
    CONGESTED = "congested"  # shared fabric: superlinear in work


@dataclass(frozen=True)
class PerfModel:
    """Deterministic map ``ModelSpec → execution time (hours)`` for a cluster.

    Parameters
    ----------
    hardware:
        The cluster's hardware profile.
    shape:
        Archetype response shape (see :class:`ResponseShape`).
    base_utilization:
        Fraction of peak the software stack achieves on perfectly sized
        workloads (0.2–0.6 is realistic).
    batch_half_point:
        Batch size at which utilization reaches half its asymptote
        (small batches underutilize wide devices).
    shape_strength:
        Magnitude of the archetype nonlinearity (e.g. the exponent
        deviation for SATURATING/CONGESTED, the memory-penalty scale for
        MEMORY_EXP).
    """

    hardware: HardwareProfile
    shape: ResponseShape = ResponseShape.LINEAR
    base_utilization: float = 0.35
    batch_half_point: float = 24.0
    shape_strength: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_utilization <= 1.0:
            raise ValueError("base_utilization must be in (0, 1]")
        if self.batch_half_point <= 0:
            raise ValueError("batch_half_point must be positive")
        if self.shape_strength < 0:
            raise ValueError("shape_strength must be >= 0")

    # ------------------------------------------------------------------ #

    def execution_time(self, spec: ModelSpec) -> float:
        """Ground-truth execution time in hours (strictly positive)."""
        return self._hours((spec,))[0]

    def execution_times(self, specs: "Sequence[ModelSpec]") -> np.ndarray:
        """Ground-truth execution times (hours) of ``specs``, one per spec."""
        return np.array(self._hours(specs))

    def _hours(self, specs: "Sequence[ModelSpec]") -> "list[float]":
        """The time model, one loop over ``specs``.

        Roofline base time: the training run's FLOPs over the attainable
        throughput, ``min(peak, intensity × bandwidth)`` scaled by the
        achieved utilization (base utilization × batch factor × family
        affinity × 2, capped at 1).  The archetype response shape then
        distorts it so that shapes cross within the realistic workload
        range (Fig. 2's motivating example), and a mild penalty applies
        once the task's memory pressure (demand over device memory) passes
        0.8.

        Only whole sub-expressions of the per-spec formula are hoisted, and
        ``min(a, b)`` / ``max(a, b)`` are spelled ``b if b < a else a`` /
        ``b if b > a else a`` (their tie and NaN rule), so every value has
        the bits of the formula evaluated spec by spec
        (``tests/test_truth_exact.py``).
        """
        hw = self.hardware
        affinity = hw.family_affinity.get
        half_point = self.batch_half_point
        base_util = self.base_utilization
        peak = hw.peak_tflops * 1e12
        bandwidth = hw.mem_bandwidth_gbs
        memory = hw.memory_gb
        shape = self.shape
        memory_exp = shape is ResponseShape.MEMORY_EXP
        exponent = None
        if memory_exp:
            # Exponential blow-up as the task approaches device memory
            # (capped: beyond ~100% pressure the job thrashes but the
            # scheduler shards it rather than slowing down further).  The
            # strength is calibrated so the worst cliff is ~3x, matching
            # observed swap/recompute penalties rather than a pathological
            # 10x that would make single mispredictions dominate regret.
            strength = self.shape_strength * 1.0
        elif shape is ResponseShape.SATURATING:
            # Sublinear: pipelining hides a growing fraction of the work.
            exponent = 1.0 / (1.0 + 0.18 * self.shape_strength)
        elif shape is ResponseShape.CONGESTED:
            # Superlinear: shared interconnect congests on big jobs.
            exponent = 1.0 + 0.15 * self.shape_strength
        elif shape is not ResponseShape.LINEAR:  # pragma: no cover - exhaustive over enum
            raise ValueError(f"unknown shape {shape}")
        out = []
        append = out.append
        for spec in specs:
            batch = spec.batch_size
            util = base_util * (batch / (batch + half_point)) * affinity(spec.family, 1.0) * 2.0
            util = util if util < 1.0 else 1.0
            bw_bound = spec.arithmetic_intensity * bandwidth * 1e9
            t = spec.total_flops / ((bw_bound if bw_bound < peak else peak) * util * 3600.0)
            pressure = spec.memory_gb / memory
            if memory_exp:
                t = t * math.exp(strength * (1.0 if 1.0 < pressure else pressure))
            elif exponent is not None:
                t = t**exponent
            # Universal mild memory penalty (swapping starts before exhaustion).
            if pressure > 0.8:
                t *= 1.0 + 0.5 * (pressure - 0.8)
            append(1e-4 if 1e-4 > t else t)
        return out
