"""Discrete-event execution substrate: event kernel, cluster engine, traces."""

from repro.sim.engine import ExecutionConfig, simulate_matching
from repro.sim.events import Event, Simulator
from repro.sim.trace import SimulationResult, TaskOutcome, TaskRecord

__all__ = [
    "Event",
    "Simulator",
    "ExecutionConfig",
    "simulate_matching",
    "SimulationResult",
    "TaskOutcome",
    "TaskRecord",
]
