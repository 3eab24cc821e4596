"""Typed configuration of a sharded fleet (nested :class:`ServeConfig`).

:class:`FleetConfig` is to :class:`repro.fleet.FleetController` what
:class:`repro.serve.ServeConfig` is to a single dispatcher: one frozen,
validated, JSON round-trippable description of the whole deployment.
The nested ``serve`` section describes every *per-shard* stack knob (the
serve-seed convention included); the fleet-level fields describe how the
admission stream and the cluster pool split across shards.

Partition modes
---------------
``"replicate"``
    Every shard serves the full cluster set of ``serve.setting`` with a
    copy of the same trained predictor stack — the admission stream is
    what gets sharded.  This is the throughput-scaling mode (per-shard
    windows shrink with 1/N) and the only mode supporting fleet-wide
    retraining, since a single candidate checkpoint must mean the same
    thing on every shard.
``"family"``
    The cluster pool is a :func:`repro.clusters.make_specialist_pool`
    fleet of ``pool_m`` clusters, partitioned family-coherently by
    :func:`repro.clusters.shard_pool`; each shard trains its own
    predictors for its own clusters.  This is the data-locality mode —
    a shard only ever matches onto hardware it models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.fleet.router import ROUTING_POLICIES
from repro.serve.config import ServeConfig
from repro.utils.validation import FIELD_TYPES, check_choices, check_known_keys

__all__ = ["FleetConfig", "PARTITIONS"]

PARTITIONS = ("replicate", "family")


@dataclass(frozen=True)
class FleetConfig:
    """Complete, validated description of one fleet run."""

    n_shards: int = 4
    #: ``"hash"`` = consistent hashing on task identity (cache-affine,
    #: stable under resharding); ``"load"`` = least-loaded with hash
    #: tie-break (levels bursts).  See :mod:`repro.fleet.router`.
    routing: str = field(default="hash", metadata={"choices": ROUTING_POLICIES})
    partition: str = field(default="replicate", metadata={"choices": PARTITIONS})
    #: Specialist-pool size for ``partition="family"`` (ignored for
    #: ``"replicate"``); must be at least ``n_shards``.
    pool_m: int = 8
    #: The per-shard serving stack.  ``shard``/``instance`` must be
    #: unset (the controller stamps them per shard via
    #: :meth:`shard_config`) and ``retrain`` must be ``None`` — fleet
    #: retraining is orchestrated centrally by
    #: :class:`repro.fleet.FleetRetrainController`, never by N
    #: independent per-shard controllers racing one registry.
    #: ``monitor`` is rejected too: the controller wires none, and the
    #: shard logs record ``serve`` as replay truth (observers attach
    #: through ``callbacks_factory``).
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {self.n_shards}")
        check_choices(self)
        if self.partition == "family" and self.pool_m < self.n_shards:
            raise ValueError(
                f"family partition needs pool_m >= n_shards "
                f"(got pool_m={self.pool_m}, n_shards={self.n_shards})")
        if self.serve.shard is not None:
            raise ValueError(
                "serve.shard must be unset in a FleetConfig — the fleet "
                "controller stamps the shard identity per shard")
        if self.serve.retrain is not None:
            raise ValueError(
                "serve.retrain must be None in a FleetConfig — use "
                "repro.fleet.FleetRetrainController for fleet-wide retraining")
        if self.serve.monitor is not None:
            raise ValueError(
                "serve.monitor must be None in a FleetConfig — attach "
                "observers per shard through run(callbacks_factory=...)")

    # ------------------------------------------------------------------ #
    # JSON round-trip (meta["fleet"] in per-shard run logs).
    # ------------------------------------------------------------------ #

    def to_params(self) -> dict:
        """The JSON-serializable dict stored in ``meta["fleet"]``."""
        params = {f.name: getattr(self, f.name) for f in fields(self)}
        params["serve"] = self.serve.to_params()
        return params

    @classmethod
    def from_params(cls, params: dict) -> "FleetConfig":
        """Inverse of :meth:`to_params`; a missing or an unknown key
        raises ``ValueError`` naming it."""
        missing = [f.name for f in fields(cls) if f.name not in params]
        if missing:
            raise ValueError(f"fleet params missing {missing}")
        check_known_keys(cls, params, "fleet")
        # Per-shard logs stamp the shard into meta["serve"]; the
        # fleet-level config is shard-agnostic by construction.
        serve = {**params["serve"], "shard": None, "instance": None}
        values = {f.name: FIELD_TYPES[f.type](params[f.name])
                  for f in fields(cls) if f.name != "serve"}
        return cls(**values, serve=ServeConfig.from_params(serve))

    def with_overrides(self, **changes: Any) -> "FleetConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Derived per-shard configs.
    # ------------------------------------------------------------------ #

    def shard_config(self, shard: int) -> ServeConfig:
        """The nested serve config with shard identity stamped in.

        The stamp is a pure label (run-log meta + recorder base labels);
        it never changes the stack, so every shard's dispatcher remains
        an exact clone of the unsharded one — the property that makes
        the 1-shard fleet trace byte-identical to a plain serve run.
        """
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard must be in [0, {self.n_shards}), got {shard}")
        return self.serve.with_overrides(shard=str(shard))

    def router_window_hours(self) -> float:
        """Trailing window of the load-aware depth proxy.

        A few dispatch windows' worth of arrivals: long enough to see
        sustained imbalance, short enough to track bursts.
        """
        return 4.0 * self.serve.max_wait_hours
