"""Cluster substrate: hardware profiles, ground-truth performance and
reliability models, and the archetype catalog with the paper's settings
A/B/C.  Replaces the proprietary Xirang platform measurements (DESIGN.md §2).
"""

from repro.clusters.cluster import Cluster, Measurement, truth_matrices
from repro.clusters.hardware import HardwareProfile
from repro.clusters.perf_models import PerfModel, ResponseShape
from repro.clusters.catalog import (
    ARCHETYPES,
    SETTINGS,
    archetype_names,
    make_cluster,
    make_pool,
    make_setting,
    make_specialist_pool,
    shard_pool,
)
from repro.clusters.reliability import ReliabilityModel, draw_attempt

__all__ = [
    "Cluster",
    "Measurement",
    "truth_matrices",
    "HardwareProfile",
    "PerfModel",
    "ResponseShape",
    "ReliabilityModel",
    "draw_attempt",
    "ARCHETYPES",
    "SETTINGS",
    "archetype_names",
    "make_cluster",
    "make_pool",
    "make_setting",
    "make_specialist_pool",
    "shard_pool",
]
