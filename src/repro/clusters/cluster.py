"""The Cluster: hardware + performance + reliability, with noisy measurement.

A :class:`Cluster` answers two questions:

- ``true_time/true_reliability`` — the ground truth the platform can only
  observe by actually running tasks (used to build T and A);
- ``measure`` — a *noisy* observation of that ground truth, which is what
  predictor training data looks like in practice (log-normal timing noise,
  reliability estimated from a finite number of trial runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clusters.hardware import HardwareProfile
from repro.clusters.perf_models import PerfModel
from repro.clusters.reliability import ReliabilityModel
from repro.utils.rng import as_generator
from repro.workloads.taskpool import Task

__all__ = ["Cluster", "Measurement", "truth_matrices"]


@dataclass(frozen=True)
class Measurement:
    """One noisy observation of a task on a cluster."""

    task_id: int
    cluster_id: int
    time_hours: float
    reliability: float


@dataclass(frozen=True)
class Cluster:
    """One third-party cluster managed by the exchange platform."""

    cluster_id: int
    perf: PerfModel
    rel: ReliabilityModel
    timing_noise_std: float = 0.08  # std of log-normal measurement noise
    reliability_trials: int = 25  # runs used to estimate â in measurements

    def __post_init__(self) -> None:
        if self.timing_noise_std < 0:
            raise ValueError("timing_noise_std must be >= 0")
        if self.reliability_trials <= 0:
            raise ValueError("reliability_trials must be positive")
        if self.perf.hardware is not self.rel.hardware:
            raise ValueError("perf and reliability models must share one hardware profile")

    @property
    def hardware(self) -> HardwareProfile:
        return self.perf.hardware

    @property
    def name(self) -> str:
        return self.hardware.name

    # -- ground truth ---------------------------------------------------- #

    def true_time(self, task: Task) -> float:
        """Ground-truth execution time (hours) of ``task`` on this cluster."""
        return self.perf.execution_time(task.spec)

    def true_reliability(self, task: Task) -> float:
        """Ground-truth success probability of ``task`` on this cluster."""
        return self.rel.reliability(task.spec, self.true_time(task))

    def true_times(self, tasks: "list[Task]") -> np.ndarray:
        return self.perf.execution_times([t.spec for t in tasks])

    def true_reliabilities(self, tasks: "list[Task]") -> np.ndarray:
        specs = [t.spec for t in tasks]
        return self.rel.reliabilities(specs, self.perf.execution_times(specs))

    # -- noisy measurement ------------------------------------------------ #

    def measure(self, task: Task, rng: np.random.Generator | int | None = None) -> Measurement:
        """Run ``task`` once and observe noisy (time, reliability) values."""
        return self.measure_batch((task,), rng)[0]

    def measure_batch(
        self, tasks: "Sequence[Task]", rng: np.random.Generator | int | None = None
    ) -> list[Measurement]:
        """Run each of ``tasks`` once, in order, on one generator.

        Timing noise is multiplicative log-normal (run-to-run jitter);
        reliability is the empirical success fraction over
        ``reliability_trials`` Bernoulli runs, clipped away from {0, 1}.
        The truth comes from the models' loops; the draws are per task, a
        normal then the trials, so a batch draws what its tasks measured
        one by one would.
        """
        rng = as_generator(rng)
        specs = [t.spec for t in tasks]
        times = self.perf.execution_times(specs)
        rels = self.rel.reliabilities(specs, times)
        trials = self.reliability_trials
        out = []
        for task, t, a in zip(tasks, times.tolist(), rels.tolist()):
            t_obs = t * float(np.exp(rng.normal(0.0, self.timing_noise_std)))
            successes = np.count_nonzero(rng.random(trials) < a)
            a_obs = min(max(successes / trials, 0.02), 0.995)
            out.append(Measurement(task.task_id, self.cluster_id, t_obs, a_obs))
        return out


def truth_matrices(
    clusters: "Sequence[Cluster]", tasks: "list[Task]"
) -> "tuple[np.ndarray, np.ndarray]":
    """True ``(T, A)`` of ``tasks`` on ``clusters``: one row per cluster.

    Reads each cluster through ``true_times`` and ``true_reliabilities``
    only, so a wrapper that times or counts those two calls sees every read.
    """
    return (np.stack([c.true_times(tasks) for c in clusters]),
            np.stack([c.true_reliabilities(tasks) for c in clusters]))
