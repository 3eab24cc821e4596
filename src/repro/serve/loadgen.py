"""Load generation: the arrival processes the serving tier is driven by.

Three arrival processes cover the traffic regimes a resource exchange
platform sees in production:

- :class:`PoissonLoad` — homogeneous Poisson stream (the steady state);
- :class:`BurstyLoad` — a two-state Markov-modulated Poisson process
  (quiet base rate, exponential-duration bursts at a high rate) modelling
  batch-submission spikes;
- :class:`DiurnalLoad` — a sinusoidal day/night rate profile realized by
  thinning, modelling the human-driven daily cycle.

A load is anything with ``draw(horizon_hours, rng) -> [(hour, task), ...]``;
:class:`repro.serve.dispatcher.Dispatcher` consumes the drawn list, and
all draws are fully determined by the passed generator, in this order
(``TestLoadgen::test_draw_schedule_frozen`` pins it): per arrival one
exponential gap, for a diurnal load one uniform for thinning, then one
``rng.integers(len(pool))`` for the task; a bursty load adds one
exponential per phase.  Drawing them in blocks would move every serve
digest.  Throughput and latency are measured by
``python3 -m benchmarks.platform``, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.workloads.taskpool import Task, TaskPool

__all__ = [
    "PoissonLoad",
    "BurstyLoad",
    "DiurnalLoad",
    "make_load",
    "LOAD_PATTERNS",
]


@dataclass(frozen=True)
class PoissonLoad:
    """Homogeneous Poisson arrivals sampled from a task pool."""

    pool: TaskPool
    rate_per_hour: float

    def __post_init__(self) -> None:
        if self.rate_per_hour <= 0:
            raise ValueError(f"rate_per_hour must be > 0, got {self.rate_per_hour}")

    def draw(self, horizon_hours: float, rng: np.random.Generator) -> "list[tuple[float, Task]]":
        if horizon_hours <= 0:
            raise ValueError("horizon must be positive")
        rng = as_generator(rng)
        tasks, pick, gap = self.pool.tasks, rng.integers, rng.exponential
        n, scale = len(tasks), 1.0 / self.rate_per_hour
        events: list[tuple[float, Task]] = []
        t = 0.0
        while True:
            t += gap(scale)
            if t >= horizon_hours:
                return events
            events.append((t, tasks[pick(n)]))


@dataclass(frozen=True)
class BurstyLoad:
    """Two-state MMPP: base-rate quiet phases, high-rate burst phases.

    Phases alternate (starting quiet) with exponential durations; within a
    phase arrivals are Poisson at that phase's rate.
    """

    pool: TaskPool
    base_rate: float
    burst_rate: float
    mean_quiet_hours: float = 1.5
    mean_burst_hours: float = 0.5

    def __post_init__(self) -> None:
        if self.base_rate <= 0 or self.burst_rate <= 0:
            raise ValueError("base_rate and burst_rate must be > 0")
        if self.burst_rate <= self.base_rate:
            raise ValueError("burst_rate must exceed base_rate")
        if self.mean_quiet_hours <= 0 or self.mean_burst_hours <= 0:
            raise ValueError("phase durations must be > 0")

    def draw(self, horizon_hours: float, rng: np.random.Generator) -> "list[tuple[float, Task]]":
        if horizon_hours <= 0:
            raise ValueError("horizon must be positive")
        rng = as_generator(rng)
        tasks, pick, gap = self.pool.tasks, rng.integers, rng.exponential
        n = len(tasks)
        events: list[tuple[float, Task]] = []
        t = 0.0
        bursting = False
        while t < horizon_hours:
            mean = self.mean_burst_hours if bursting else self.mean_quiet_hours
            phase_end = min(t + gap(mean), horizon_hours)
            scale = 1.0 / (self.burst_rate if bursting else self.base_rate)
            s = t
            while True:
                s += gap(scale)
                if s >= phase_end:
                    break
                events.append((s, tasks[pick(n)]))
            t = phase_end
            bursting = not bursting
        return events


@dataclass(frozen=True)
class DiurnalLoad:
    """Sinusoidal day/night rate profile realized by Poisson thinning.

    Instantaneous rate: ``trough + (peak - trough) * (1 + sin(2π(t/period
    + phase))) / 2`` — peak-rate candidates are thinned by the rate ratio,
    the textbook non-homogeneous Poisson construction.
    """

    pool: TaskPool
    peak_rate: float
    trough_rate: float
    period_hours: float = 24.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.trough_rate <= 0 or self.peak_rate <= self.trough_rate:
            raise ValueError("need 0 < trough_rate < peak_rate")
        if self.period_hours <= 0:
            raise ValueError("period_hours must be > 0")

    def rate_at(self, t: float) -> float:
        wave = 0.5 * (1.0 + math.sin(2.0 * math.pi * (t / self.period_hours + self.phase)))
        return self.trough_rate + (self.peak_rate - self.trough_rate) * wave

    def draw(self, horizon_hours: float, rng: np.random.Generator) -> "list[tuple[float, Task]]":
        if horizon_hours <= 0:
            raise ValueError("horizon must be positive")
        rng = as_generator(rng)
        tasks, pick, gap, uniform = self.pool.tasks, rng.integers, rng.exponential, rng.random
        n, scale = len(tasks), 1.0 / self.peak_rate
        events: list[tuple[float, Task]] = []
        t = 0.0
        while True:
            t += gap(scale)
            if t >= horizon_hours:
                return events
            if uniform() < self.rate_at(t) / self.peak_rate:
                events.append((t, tasks[pick(n)]))


#: The load shapes by CLI pattern name, each built at a mean ``rate``.
LOAD_PATTERNS = {
    "poisson": lambda pool, rate: PoissonLoad(pool, rate),
    # Quiet 3/4 of the time at half rate, bursts at 2.5x: mean ≈ rate.
    "bursty": lambda pool, rate: BurstyLoad(pool, base_rate=0.5 * rate,
                                            burst_rate=2.5 * rate),
    # Symmetric swing around the requested mean.
    "diurnal": lambda pool, rate: DiurnalLoad(pool, peak_rate=1.6 * rate,
                                              trough_rate=0.4 * rate),
}


def make_load(pattern: str, pool: TaskPool, rate_per_hour: float):
    """Factory keyed by CLI pattern name, normalized to a mean ``rate``."""
    if rate_per_hour <= 0:
        raise ValueError(f"rate_per_hour must be > 0, got {rate_per_hour}")
    if pattern not in LOAD_PATTERNS:
        raise ValueError(f"unknown load pattern {pattern!r}")
    return LOAD_PATTERNS[pattern](pool, rate_per_hour)
