"""repro.serve — the online serving layer.

Turns the batch reproduction into a continuously operating platform
service (ROADMAP north star; see DESIGN.md §10):

- :mod:`repro.serve.dispatcher` — event-driven micro-batching dispatch
  loop with bounded admission, load shedding, and cluster dropout/rejoin
  handling (:class:`ServeLoop` is its stepable per-run state machine);
- :mod:`repro.serve.cache` — warm-start solver cache (previous window's
  relaxed columns + step memory) and predictor forward memoization;
- :mod:`repro.serve.registry` — versioned predictor checkpoint registry
  with mid-run hot-swap;
- :mod:`repro.serve.loadgen` — Poisson/bursty/diurnal load generation
  (speed is measured by ``python3 -m benchmarks.platform``);
- :mod:`repro.serve.config` — the typed :class:`ServeConfig` facade and
  :func:`build_platform`, the one-call constructor wiring dispatcher,
  quality monitor, checkpoint registry, and the closed-loop retraining
  controller together.
"""

from repro.serve.cache import (
    PredictionMemo,
    WarmStartCache,
    batch_size_bucket,
    make_cache_key,
)
from repro.serve.dispatcher import (
    Dispatcher,
    DispatcherConfig,
    Outage,
    ServeCallback,
    ServeLoop,
    ServeRecord,
    ServeStats,
    WindowSnapshot,
)
from repro.serve.loadgen import (
    BurstyLoad,
    DiurnalLoad,
    PoissonLoad,
    make_load,
)
from repro.serve.config import Platform, ServeConfig, build_platform, build_stack
from repro.serve.registry import (
    CHECKPOINT_FORMAT,
    CheckpointInfo,
    ModelRegistry,
    weights_digest,
)

__all__ = [
    "ServeConfig",
    "Platform",
    "build_platform",
    "build_stack",
    "Dispatcher",
    "DispatcherConfig",
    "Outage",
    "ServeRecord",
    "ServeStats",
    "ServeCallback",
    "ServeLoop",
    "WindowSnapshot",
    "WarmStartCache",
    "PredictionMemo",
    "batch_size_bucket",
    "make_cache_key",
    "ModelRegistry",
    "CheckpointInfo",
    "CHECKPOINT_FORMAT",
    "weights_digest",
    "PoissonLoad",
    "BurstyLoad",
    "DiurnalLoad",
    "make_load",
]
