"""Execution substrate: run a matching on the clusters and trace it."""

from repro.sim.engine import ExecutionConfig, simulate_matching
from repro.sim.trace import SimulationResult, TaskOutcome, TaskRecord

__all__ = [
    "ExecutionConfig",
    "simulate_matching",
    "SimulationResult",
    "TaskOutcome",
    "TaskRecord",
]
