"""Cluster archetype catalog and the paper's experimental settings.

§4.3: "we perform three experiment sets, each randomly selecting clusters
(settings A, B, C)".  We define a catalog of realistic archetypes whose
response shapes differ (the Fig. 2 heterogeneity), and fixed triples for
settings A/B/C plus a ``make_pool`` sampler for larger, randomized pools.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clusters.cluster import Cluster
from repro.clusters.hardware import HardwareProfile
from repro.clusters.perf_models import PerfModel, ResponseShape
from repro.clusters.reliability import ReliabilityModel
from repro.utils.rng import as_generator
from repro.workloads.specs import Family

__all__ = [
    "ARCHETYPES",
    "archetype_names",
    "make_cluster",
    "make_setting",
    "make_pool",
    "make_specialist_pool",
    "shard_pool",
    "SETTINGS",
]


def _profile(**kw: object) -> HardwareProfile:
    return HardwareProfile(**kw)  # type: ignore[arg-type]


#: Archetype catalog: (hardware, response shape, base utilization, shape strength).
#: Peak/utilization pairs are calibrated so *effective* throughput ratios stay
#: within ~3x across archetypes — an exchange platform mixes generations, but
#: a cluster nobody should ever win is useless for studying matching — while
#: family affinities span ~0.45-1.35 to create the Fig. 2 crossings.
ARCHETYPES: dict[str, tuple[HardwareProfile, ResponseShape, float, float]] = {
    # Flagship training pod: fast, transformer-optimized, dependable.
    "a100-dgx": (
        _profile(
            name="a100-dgx",
            peak_tflops=312.0,
            mem_bandwidth_gbs=2039.0,
            memory_gb=80.0,
            family_affinity={Family.TRANSFORMER: 1.35, Family.CONV: 0.95,
                             Family.RNN: 0.60, Family.MLP: 0.90},
            base_reliability=0.990,
            hazard_per_hour=0.020,
        ),
        ResponseShape.LINEAR,
        0.45,
        1.0,
    ),
    # Previous-gen enterprise cluster (large V100 slice): strong cuDNN convs,
    # weak transformers, small per-device memory -> exponential blow-up.
    "v100-legacy": (
        _profile(
            name="v100-legacy",
            peak_tflops=250.0,
            mem_bandwidth_gbs=900.0,
            memory_gb=32.0,
            family_affinity={Family.CONV: 1.35, Family.TRANSFORMER: 0.60,
                             Family.RNN: 1.10, Family.MLP: 1.00},
            base_reliability=0.950,
            hazard_per_hour=0.060,
        ),
        ResponseShape.MEMORY_EXP,
        0.38,
        1.0,
    ),
    # University lab of consumer GPUs: cheap, very small memory, flaky power.
    "rtx-lab": (
        _profile(
            name="rtx-lab",
            peak_tflops=180.0,
            mem_bandwidth_gbs=1008.0,
            memory_gb=24.0,
            family_affinity={Family.CONV: 1.25, Family.TRANSFORMER: 0.80,
                             Family.MLP: 1.20, Family.RNN: 0.90},
            base_reliability=0.900,
            hazard_per_hour=0.150,
        ),
        ResponseShape.MEMORY_EXP,
        0.30,
        1.1,
    ),
    # Systolic-array pod: superb on large static batches, poor on RNNs,
    # pipelining makes it sublinear in work.
    "tpu-pod": (
        _profile(
            name="tpu-pod",
            peak_tflops=275.0,
            mem_bandwidth_gbs=1200.0,
            memory_gb=64.0,
            family_affinity={Family.CONV: 1.20, Family.TRANSFORMER: 1.20,
                             Family.RNN: 0.45, Family.MLP: 1.25},
            base_reliability=0.970,
            hazard_per_hour=0.030,
        ),
        ResponseShape.SATURATING,
        0.50,
        1.2,
    ),
    # Enterprise virtualization farm: mid-range generalist behind a shared,
    # congested fabric -- superlinear on big jobs, mediocre reliability.
    "enterprise-farm": (
        _profile(
            name="enterprise-farm",
            peak_tflops=220.0,
            mem_bandwidth_gbs=800.0,
            memory_gb=48.0,
            family_affinity={Family.CONV: 0.95, Family.TRANSFORMER: 0.95,
                             Family.RNN: 0.90, Family.MLP: 1.00},
            base_reliability=0.930,
            hazard_per_hour=0.080,
        ),
        ResponseShape.CONGESTED,
        0.33,
        1.0,
    ),
    # Edge aggregation site: slower but extremely dependable on-prem ops.
    "edge-site": (
        _profile(
            name="edge-site",
            peak_tflops=160.0,
            mem_bandwidth_gbs=600.0,
            memory_gb=40.0,
            family_affinity={Family.MLP: 1.20, Family.RNN: 1.15,
                             Family.CONV: 0.90, Family.TRANSFORMER: 0.75},
            base_reliability=0.995,
            hazard_per_hour=0.010,
        ),
        ResponseShape.LINEAR,
        0.35,
        1.0,
    ),
}

#: The paper's three fixed cluster combinations (M = 3 each).
SETTINGS: dict[str, tuple[str, str, str]] = {
    "A": ("a100-dgx", "v100-legacy", "tpu-pod"),
    "B": ("v100-legacy", "rtx-lab", "enterprise-farm"),
    "C": ("a100-dgx", "edge-site", "rtx-lab"),
}


def archetype_names() -> list[str]:
    return list(ARCHETYPES)


def make_cluster(archetype: str, cluster_id: int) -> Cluster:
    """Instantiate one cluster from the catalog."""
    if archetype not in ARCHETYPES:
        raise KeyError(f"unknown archetype {archetype!r}; options: {archetype_names()}")
    hw, shape, util, strength = ARCHETYPES[archetype]
    perf = PerfModel(hardware=hw, shape=shape, base_utilization=util, shape_strength=strength)
    rel = ReliabilityModel(hardware=hw)
    return Cluster(cluster_id=cluster_id, perf=perf, rel=rel)


def make_setting(name: str) -> list[Cluster]:
    """Build the fixed cluster triple for setting ``"A"``, ``"B"`` or ``"C"``."""
    if name not in SETTINGS:
        raise KeyError(f"unknown setting {name!r}; options: {sorted(SETTINGS)}")
    return [make_cluster(a, i) for i, a in enumerate(SETTINGS[name])]


def make_pool(m: int, rng: np.random.Generator | int | None = None) -> list[Cluster]:
    """Sample a pool of ``m`` clusters (with replacement beyond catalog size)."""
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    rng = as_generator(rng)
    names = list(ARCHETYPES)
    chosen = rng.choice(names, size=m, replace=m > len(names))
    return [make_cluster(str(a), i) for i, a in enumerate(chosen)]


#: A specialist's affinity for its own family and for every other one.
ON_AFFINITY = 1.25
OFF_AFFINITY = 0.10


def make_specialist_pool(m: int) -> list[Cluster]:
    """A fleet of family-specialized clusters (the sharded-platform regime).

    The catalog's generalist affinities (~0.45-1.35) keep every cluster
    plausible for every task — deliberate for the paper's settings, but it
    means the task-cluster viability graph is one connected component and
    block decomposition has nothing to split.  Real exchange platforms
    also contain *specialist* shards (a transformer pod is 10x+ off-pace
    on RNNs); this builder amplifies the catalog's hardware into one
    specialist per workload :class:`~repro.workloads.specs.Family`,
    round-robin over families and archetypes, keeping each archetype's
    speed, memory, reliability, and response shape but replacing its
    affinity map with ``ON_AFFINITY`` for its own family and
    ``OFF_AFFINITY`` for the rest.  The resulting execution-time spread
    (≈ ``on/off`` ≥ 10x) makes the viability components split by family —
    the scaling benchmark's block-structured instances.  Deterministic:
    no RNG.
    """
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    families = list(Family)
    arch = list(ARCHETYPES.values())
    clusters = []
    for i in range(m):
        fam = families[i % len(families)]
        hw0, shape, util, strength = arch[i % len(arch)]
        hw = HardwareProfile(
            name=f"spec-{fam.value}-{i}",
            peak_tflops=hw0.peak_tflops,
            mem_bandwidth_gbs=hw0.mem_bandwidth_gbs,
            memory_gb=hw0.memory_gb,
            family_affinity={f: (ON_AFFINITY if f is fam else OFF_AFFINITY)
                             for f in families},
            base_reliability=hw0.base_reliability,
            hazard_per_hour=hw0.hazard_per_hour,
        )
        clusters.append(Cluster(
            cluster_id=i,
            perf=PerfModel(hardware=hw, shape=shape, base_utilization=util,
                           shape_strength=strength),
            rel=ReliabilityModel(hardware=hw),
        ))
    return clusters


def _dominant_family(cluster: Cluster) -> tuple[int, float]:
    """Sort key for family sharding: (family rank, -affinity strength).

    The rank is the :class:`Family` enum position of the cluster's
    strongest affinity, so specialists for the same family sort together;
    stronger specialists come first within a family.  Clusters with an
    empty affinity map rank after every family.
    """
    affinity = cluster.hardware.family_affinity
    if not affinity:
        return (len(Family), 0.0)
    families = list(Family)
    best = max(affinity, key=lambda f: (affinity[f], -families.index(f)))
    return (families.index(best), -affinity[best])


def shard_pool(clusters: Sequence[Cluster], n_shards: int) -> list[list[Cluster]]:
    """Partition a cluster pool into ``n_shards`` family-coherent shards.

    Clusters are ordered by dominant family (strongest
    ``family_affinity`` entry, ties broken by :class:`Family` order,
    then ``cluster_id``) and dealt round-robin, so each shard receives a
    contiguous run of same-family specialists when the pool is built by
    :func:`make_specialist_pool` and a balanced mix otherwise.  The
    shards exactly partition the input: every cluster lands in one shard
    and ``cluster_id`` values are preserved.  Deterministic: no RNG.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if n_shards > len(clusters):
        raise ValueError(
            f"n_shards={n_shards} exceeds pool size {len(clusters)}"
        )
    ordered = sorted(clusters, key=lambda c: (*_dominant_family(c), c.cluster_id))
    shards: list[list[Cluster]] = [[] for _ in range(n_shards)]
    for i, cluster in enumerate(ordered):
        shards[i % n_shards].append(cluster)
    return shards
