"""Execution traces produced by the cluster simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["TaskOutcome", "TaskRecord", "SimulationResult"]


class TaskOutcome(str, Enum):
    SUCCESS = "success"
    FAILED = "failed"


@dataclass(frozen=True)
class TaskRecord:
    """One task's realized execution on a cluster."""

    task_id: int
    cluster_id: int
    start: float
    end: float
    outcome: TaskOutcome
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("task record ends before it starts")


@dataclass
class SimulationResult:
    """Aggregate outcome of executing one matching."""

    records: list[TaskRecord] = field(default_factory=list)
    cluster_busy: dict[int, float] = field(default_factory=dict)
    makespan: float = 0.0

    @property
    def success_rate(self) -> float:
        if not self.records:
            raise ValueError("empty simulation result")
        ok = sum(1 for r in self.records if r.outcome is TaskOutcome.SUCCESS)
        return ok / len(self.records)

    @property
    def utilization(self) -> float:
        """Realized busy-time fraction: Σ busy / (M · makespan)."""
        if self.makespan <= 0 or not self.cluster_busy:
            raise ValueError("utilization undefined for an empty simulation")
        total = sum(self.cluster_busy.values())
        return total / (len(self.cluster_busy) * self.makespan)

    def summary(self) -> str:
        busy = ", ".join(f"c{cid}={b:.2f}h" for cid, b in sorted(self.cluster_busy.items()))
        return (
            f"makespan={self.makespan:.2f}h success={self.success_rate:.1%} "
            f"utilization={self.utilization:.1%} busy[{busy}]"
        )
