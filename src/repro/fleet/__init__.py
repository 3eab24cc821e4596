"""repro.fleet — the sharded multi-dispatcher platform (DESIGN.md §15).

One :class:`FleetController` partitions the cluster pool, routes the
admission stream deterministically across N per-shard dispatchers
(consistent hashing or load-aware; automatic re-route around full-shard
outages), and drives every shard from one shared simulated clock so the
merged event trace reproduces byte-for-byte from a seed.
:class:`FleetRetrainController` closes the learning loop fleet-wide —
pooled labels, one candidate, a per-shard canary panel, same-epoch
hot-swap with one weights digest, and an any-shard-degraded rollback.
:class:`repro.monitor.TraceReplay` rebuilds and verifies a whole fleet
run from its per-shard JSONL logs.
"""

from repro.fleet.config import PARTITIONS, FleetConfig
from repro.fleet.controller import FleetController, FleetStats
from repro.fleet.retrain import FleetRetrainController, FleetRetrainOutcome
from repro.fleet.router import (
    ROUTING_POLICIES,
    HashRing,
    HashRouter,
    LoadAwareRouter,
    full_down_intervals,
    make_router,
)

__all__ = [
    "FleetConfig",
    "PARTITIONS",
    "FleetController",
    "FleetStats",
    "FleetRetrainController",
    "FleetRetrainOutcome",
    "HashRing",
    "HashRouter",
    "LoadAwareRouter",
    "ROUTING_POLICIES",
    "make_router",
    "full_down_intervals",
]
