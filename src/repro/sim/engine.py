"""Execute a matching on the synthetic clusters.

Two execution modes mirroring the paper's two settings:

- **sequential** (§2.1's base model [17, 21, 33]): each cluster runs its
  assigned tasks one at a time with exclusive access;
- **parallel** (§3.4): a cluster runs all its tasks concurrently as a
  malleable batch, finishing after ``ζ(k) · Σ t`` — each task's realized
  span is the batch window (fair-share scheduling).

Clusters never interact, so each one is a FIFO chain starting at t = 0;
a single heap of running tasks keyed ``(end, seq)`` only fixes the order
of the random draws across clusters: a task draws when it starts, which
is when its predecessor finishes, and finishes that tie go in start order.

Failures: each (task, cluster) pair fails with probability ``1 − a`` (the
ground-truth reliability, drawn by :func:`repro.clusters.draw_attempt`);
a failed task aborts at a uniformly random fraction of its nominal
duration, wasting that cluster time, and may be retried up to
``max_retries`` times.

With jitter and failures disabled, the sequential simulator's makespan is
*exactly* the analytic ``makespan(X, problem)`` — the integration tests
assert this equivalence, tying the optimization layer to the execution
substrate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.clusters.cluster import Cluster
from repro.clusters.reliability import draw_attempt
from repro.matching.rounding import labels_from_assignment
from repro.matching.speedup import IdentitySpeedup, SpeedupFunction
from repro.sim.trace import SimulationResult, TaskOutcome, TaskRecord
from repro.telemetry import SIZE_BUCKETS, TIME_BUCKETS_S, get_recorder, span
from repro.utils.rng import as_generator
from repro.workloads.taskpool import Task

__all__ = ["ExecutionConfig", "simulate_matching"]


@dataclass(frozen=True)
class ExecutionConfig:
    """Knobs of the execution run."""

    mode: str = "sequential"  # "sequential" | "parallel"
    jitter_std: float = 0.0  # log-normal runtime jitter (0 = deterministic)
    failures: bool = False  # draw Bernoulli failures from true reliability
    max_retries: int = 0  # re-queue failed tasks up to this many times
    speedup: SpeedupFunction | None = None  # ζ for parallel mode

    def __post_init__(self) -> None:
        if self.mode not in ("sequential", "parallel"):
            raise ValueError(f"mode must be 'sequential' or 'parallel', got {self.mode!r}")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def simulate_matching(
    clusters: "list[Cluster]",
    tasks: "list[Task]",
    X: np.ndarray,
    config: ExecutionConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> SimulationResult:
    """Run matching ``X`` (binary M×N) to completion and return the trace."""
    cfg = config or ExecutionConfig()
    rng = as_generator(rng)
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (len(clusters), len(tasks)):
        raise ValueError(f"X must have shape {(len(clusters), len(tasks))}, got {X.shape}")
    result = SimulationResult(cluster_busy={c.cluster_id: 0.0 for c in clusters})
    # Each cluster's tasks, in assignment order.
    queues: list[list[int]] = [[] for _ in clusters]
    for j, lbl in enumerate(labels_from_assignment(X)):
        queues[int(lbl)].append(j)

    run = _run_sequential if cfg.mode == "sequential" else _run_parallel
    with span("sim/run"):
        end = run(clusters, tasks, queues, cfg, rng, result)
    result.makespan = max(end, max(result.cluster_busy.values(), default=0.0))
    rec = get_recorder()
    if rec.enabled:
        rec.counter_add("sim/rounds")
        rec.counter_add("sim/tasks", len(tasks))
        rec.observe("sim/makespan", result.makespan, bounds=TIME_BUCKETS_S)
    return result


def _duration(
    cluster: Cluster, task: Task, cfg: ExecutionConfig, rng: np.random.Generator
) -> float:
    t = cluster.true_time(task)
    if cfg.jitter_std > 0:
        t *= float(np.exp(rng.normal(0.0, cfg.jitter_std)))
    return t


def _draw_outcome(
    cluster: Cluster, task: Task, cfg: ExecutionConfig, rng: np.random.Generator
) -> tuple[TaskOutcome, float]:
    """(outcome, completed_fraction_of_duration)."""
    if not cfg.failures:
        return TaskOutcome.SUCCESS, 1.0
    success, frac = draw_attempt(cluster.true_reliability(task), rng)
    return (TaskOutcome.SUCCESS if success else TaskOutcome.FAILED), frac


def _run_sequential(clusters, tasks, queues, cfg, rng, result) -> float:
    """Run every cluster's queue back to back; returns the last finish."""
    rec = get_recorder()
    tele = rec.enabled
    attempts = [0] * len(tasks)
    running: list[tuple] = []  # (end, seq, cluster index, task index, start, outcome, busy)
    seq = count()

    def start(i: int, now: float) -> None:
        if not queues[i]:
            return
        j = queues[i].pop(0)
        attempts[j] += 1
        duration = _duration(clusters[i], tasks[j], cfg, rng)
        outcome, frac = _draw_outcome(clusters[i], tasks[j], cfg, rng)
        busy = duration * frac
        if tele:
            # Depth of the cluster's remaining queue and how long this
            # task waited for the cluster (t=0 is the assignment instant,
            # so the wait IS the start time).
            rec.observe("sim/queue_depth", len(queues[i]), bounds=SIZE_BUCKETS)
            rec.observe("sim/task_wait", now, bounds=TIME_BUCKETS_S)
        heapq.heappush(running, (now + busy, next(seq), i, j, now, outcome, busy))

    for i in range(len(clusters)):
        start(i, 0.0)
    now = 0.0
    while running:
        now, _, i, j, begun, outcome, busy = heapq.heappop(running)
        cid = clusters[i].cluster_id
        result.cluster_busy[cid] += busy
        if outcome is TaskOutcome.FAILED and attempts[j] <= cfg.max_retries:
            queues[i].append(j)  # re-queue at the back
            if tele:
                rec.counter_add("sim/retries")
        else:
            result.records.append(
                TaskRecord(tasks[j].task_id, cid, begun, now, outcome, attempts[j]))
            if tele and outcome is TaskOutcome.FAILED:
                rec.counter_add("sim/failures")
        start(i, now)
    return now


def _run_parallel(clusters, tasks, queues, cfg, rng, result) -> float:
    """Run each cluster's tasks as one batch; returns the longest window."""
    zeta: SpeedupFunction = cfg.speedup or IdentitySpeedup()
    rec = get_recorder()
    batches = []  # (window, order, cluster, assigned)
    for cluster, assigned in zip(clusters, queues):
        if not assigned:
            continue
        durations = [_duration(cluster, tasks[j], cfg, rng) for j in assigned]
        window = float(zeta.value(np.array(float(len(assigned))))) * sum(durations)
        result.cluster_busy[cluster.cluster_id] = window
        if rec.enabled:
            rec.observe("sim/queue_depth", len(assigned), bounds=SIZE_BUCKETS)
            rec.observe("sim/batch_window", window, bounds=TIME_BUCKETS_S)
        batches.append((window, len(batches), cluster, assigned))
    # Outcomes draw as the batches finish: shortest window first.
    window = 0.0
    for window, _, cluster, assigned in sorted(batches):
        for j in assigned:
            outcome, frac = _draw_outcome(cluster, tasks[j], cfg, rng)
            end = window if outcome is TaskOutcome.SUCCESS else window - window * (1 - frac)
            result.records.append(
                TaskRecord(tasks[j].task_id, cluster.cluster_id, 0.0, max(end, 0.0), outcome))
    return window
