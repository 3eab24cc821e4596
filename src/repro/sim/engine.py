"""Execute a matching on the synthetic clusters as a discrete-event run.

Two execution modes mirroring the paper's two settings:

- **sequential** (§2.1's base model [17, 21, 33]): each cluster runs its
  assigned tasks one at a time with exclusive access;
- **parallel** (§3.4): a cluster runs all its tasks concurrently as a
  malleable batch, finishing after ``ζ(k) · Σ t`` — each task's realized
  span is the batch window (fair-share scheduling).

Failures: each (task, cluster) pair fails with probability ``1 − a`` (the
ground-truth reliability); a failed task aborts at a uniformly random
fraction of its nominal duration, wasting that cluster time, and may be
retried up to ``max_retries`` times.

With jitter and failures disabled, the sequential simulator's makespan is
*exactly* the analytic ``makespan(X, problem)`` — the integration tests
assert this equivalence, tying the optimization layer to the execution
substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clusters.cluster import Cluster
from repro.matching.rounding import labels_from_assignment
from repro.matching.speedup import IdentitySpeedup, SpeedupFunction
from repro.sim.events import Simulator
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
    labels = labels_from_assignment(X)

    result = SimulationResult()
    sim = Simulator()
    per_cluster: dict[int, list[int]] = {c.cluster_id: [] for c in clusters}
    for j, lbl in enumerate(labels):
        per_cluster[clusters[int(lbl)].cluster_id].append(j)

    with span("sim/run"):
        if cfg.mode == "sequential":
            _run_sequential(sim, clusters, tasks, per_cluster, cfg, rng, result)
        else:
            _run_parallel(sim, clusters, tasks, per_cluster, cfg, rng, result)
        end = sim.run()
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
    a = cluster.true_reliability(task)
    if rng.random() < a:
        return TaskOutcome.SUCCESS, 1.0
    return TaskOutcome.FAILED, float(rng.uniform(0.05, 0.95))


def _run_sequential(
    sim: Simulator,
    clusters: "list[Cluster]",
    tasks: "list[Task]",
    per_cluster: dict[int, list[int]],
    cfg: ExecutionConfig,
    rng: np.random.Generator,
    result: SimulationResult,
) -> None:
    rec = get_recorder()
    tele = rec.enabled

    def make_worker(cluster: Cluster, queue: list[int]):
        """Build the FIFO worker chain for one cluster (factory avoids the
        classic late-binding-in-a-loop closure bug)."""
        attempts: dict[int, int] = {}

        def start_next(s: Simulator) -> None:
            if not queue:
                return
            j = queue.pop(0)
            task = tasks[j]
            attempts[j] = attempts.get(j, 0) + 1
            duration = _duration(cluster, task, cfg, rng)
            outcome, frac = _draw_outcome(cluster, task, cfg, rng)
            task_span = duration * frac
            start_time = s.now
            if tele:
                # Per-event state: depth of the cluster's remaining queue
                # and how long this task waited for the cluster (t=0 is
                # the assignment instant, so the wait IS the start time).
                rec.observe("sim/queue_depth", len(queue), bounds=SIZE_BUCKETS)
                rec.observe("sim/task_wait", start_time, bounds=TIME_BUCKETS_S)

            def finish(s2: Simulator) -> None:
                result.cluster_busy[cluster.cluster_id] += task_span
                if outcome is TaskOutcome.FAILED and attempts[j] <= cfg.max_retries:
                    queue.append(j)  # re-queue at the back
                    if tele:
                        rec.counter_add("sim/retries")
                else:
                    result.records.append(
                        TaskRecord(task.task_id, cluster.cluster_id,
                                   start_time, s2.now, outcome, attempts[j])
                    )
                    if tele and outcome is TaskOutcome.FAILED:
                        rec.counter_add("sim/failures")
                start_next(s2)

            s.schedule(task_span, finish)

        return start_next

    for cluster in clusters:
        result.cluster_busy[cluster.cluster_id] = 0.0
        # Sequential clusters serve their tasks in assignment order.
        sim.schedule(0.0, make_worker(cluster, list(per_cluster[cluster.cluster_id])))


def _run_parallel(
    sim: Simulator,
    clusters: "list[Cluster]",
    tasks: "list[Task]",
    per_cluster: dict[int, list[int]],
    cfg: ExecutionConfig,
    rng: np.random.Generator,
    result: SimulationResult,
) -> None:
    zeta: SpeedupFunction = cfg.speedup or IdentitySpeedup()
    rec = get_recorder()
    tele = rec.enabled
    for cluster in clusters:
        assigned = per_cluster[cluster.cluster_id]
        result.cluster_busy[cluster.cluster_id] = 0.0
        if not assigned:
            continue
        durations = {j: _duration(cluster, tasks[j], cfg, rng) for j in assigned}
        k = len(assigned)
        window = float(zeta.value(np.array(float(k)))) * sum(durations.values())
        result.cluster_busy[cluster.cluster_id] = window
        if tele:
            rec.observe("sim/queue_depth", k, bounds=SIZE_BUCKETS)
            rec.observe("sim/batch_window", window, bounds=TIME_BUCKETS_S)

        def finish_batch(s: Simulator, cluster=cluster, assigned=assigned,
                         window=window) -> None:
            for j in assigned:
                outcome, frac = _draw_outcome(cluster, tasks[j], cfg, rng)
                end = s.now if outcome is TaskOutcome.SUCCESS else s.now - window * (1 - frac)
                result.records.append(
                    TaskRecord(tasks[j].task_id, cluster.cluster_id,
                               s.now - window, max(end, s.now - window), outcome)
                )

        sim.schedule(window, finish_batch)
