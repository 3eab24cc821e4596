"""Evaluation metrics of §4.1.3: regret, reliability, cluster utilization."""

from repro.metrics.calibration import (
    ReliabilityCalibration,
    TimeAccuracy,
    per_task_rank_accuracy,
    reliability_calibration,
    time_accuracy,
)
from repro.metrics.regret import (
    RegretBreakdown,
    deployment_matching,
    regret,
    regret_breakdown,
)
from repro.metrics.reliability import mean_assigned_reliability
from repro.metrics.report import MetricSample, MethodReport, aggregate, comparison_table
from repro.metrics.utilization import cluster_utilization

__all__ = [
    "regret",
    "regret_breakdown",
    "RegretBreakdown",
    "deployment_matching",
    "mean_assigned_reliability",
    "cluster_utilization",
    "MetricSample",
    "MethodReport",
    "aggregate",
    "comparison_table",
    "TimeAccuracy",
    "time_accuracy",
    "ReliabilityCalibration",
    "reliability_calibration",
    "per_task_rank_accuracy",
]
