"""Typed serving configuration and the one-call platform builder.

:class:`ServeConfig` describes a serving run to the CLI, the JSONL meta
header and the replay layer: one frozen dataclass holding every stack
knob, with nested :class:`~repro.monitor.quality.
MonitorConfig` and :class:`~repro.retrain.RetrainConfig` sections for
the observability and closed-loop-learning subsystems, validated at
construction and JSON round-trippable (``to_params``/``from_params`` —
the exact dict written to and read from ``meta["serve"]``).

:func:`build_platform` turns a config into a ready :class:`Platform`:
pool → clusters → trained method → dispatcher, plus (when configured)
the quality monitor, the checkpoint registry, and the retrain
controller — wired together (drift listener, callbacks, registry
bootstrap) exactly once, here, instead of in every caller.

Layering note: this module lives in :mod:`repro.serve` but the monitor
and retrain layers sit *above* serve, so those imports happen lazily
inside the functions that need them — a plain dispatcher build never
touches the higher layers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any

from repro.clusters import SETTINGS
from repro.matching.relaxed import SolverConfig
from repro.serve.dispatcher import (
    SHED_POLICIES,
    SOLVE_MODES,
    Dispatcher,
    DispatcherConfig,
    Outage,
    ServeStats,
)
from repro.serve.registry import ModelRegistry
from repro.utils.validation import FIELD_TYPES, check_choices, check_known_keys

if TYPE_CHECKING:  # layering: monitor/retrain import serve, not vice versa
    from repro.monitor.quality import MonitorConfig, QualityMonitor
    from repro.retrain.loop import RetrainConfig, RetrainController
    from repro.telemetry.profiler import StageProfiler

__all__ = ["ServeConfig", "Platform", "build_platform"]

#: Window-seed source: ``"cache"`` (last-window columns) or ``"off"``
#: (always cold).
WARM_STARTS = ("cache", "off")


@dataclass(frozen=True)
class ServeConfig:
    """Complete, validated description of one serving run.

    The flat fields are the stack's knobs; the ``monitor``/``retrain``
    sections opt into the observability and closed-loop retraining
    subsystems.  A field's ``metadata["choices"]`` is its allowed set.
    """

    setting: str = field(default="A", metadata={"choices": SETTINGS})
    pool_size: int = 64
    seed: int = 0
    train_epochs: int = 120
    solver_tol: float = 1e-4
    solver_max_iters: int = 400
    #: ``max_batch`` … ``solve_mode`` are :class:`DispatcherConfig`'s knobs,
    #: validated there; ``warm_start`` is its bool as a choice.
    max_batch: int = 16
    max_wait_hours: float = 0.25
    queue_capacity: int = 128
    shed_policy: str = field(default="reject", metadata={"choices": SHED_POLICIES})
    warm_start: str = field(default="cache", metadata={"choices": WARM_STARTS})
    solve_mode: str = field(default="scalar", metadata={"choices": SOLVE_MODES})
    #: Attach a :class:`repro.telemetry.StageProfiler` to the dispatcher:
    #: per-stage latency budgets (form/predict/seed/solve/…), flamegraph
    #: export, ``stats.profile``.  Wall-clock only — never perturbs the
    #: assignment trace — and zero-cost when off.
    profile: bool = False
    monitor: "MonitorConfig | None" = None
    retrain: "RetrainConfig | None" = None
    #: Checkpoint registry directory; required when ``retrain`` is set.
    registry_root: "str | None" = None
    #: Fleet identity: which shard of a sharded deployment this run is
    #: (``repro.fleet`` stamps it per shard; ``serve run --shard`` sets it
    #: for hand-rolled fleets) and an optional instance name.  Pure
    #: labels — they never change the stack or the trace, but they ride
    #: ``meta["serve"]`` into run logs and replay, and become the
    #: recorder's base labels via :meth:`identity_labels`.
    shard: "str | None" = None
    instance: "str | None" = None
    #: See :attr:`DispatcherConfig.journey_sample`.
    journey_sample: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pool_size", "train_epochs", "solver_max_iters"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be positive")
        check_choices(self)
        self.dispatcher_config()  # validates the knobs it carries
        for name in ("shard", "instance"):  # label values; normalize to str
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                object.__setattr__(self, name, str(value))

    # ------------------------------------------------------------------ #
    # JSON round-trip (meta["serve"] in run logs; CLI flag plumbing).
    # ------------------------------------------------------------------ #

    def to_params(self) -> dict:
        """The JSON-serializable dict stored in a run log's meta header."""
        params: "dict[str, Any]" = {f.name: getattr(self, f.name) for f in fields(self)}
        params["monitor"] = asdict(self.monitor) if self.monitor is not None else None
        params["retrain"] = self.retrain.to_params() if self.retrain is not None else None
        return params

    @classmethod
    def from_params(cls, params: dict) -> "ServeConfig":
        """Inverse of :meth:`to_params`; a missing or an unknown key
        raises ``ValueError`` naming it."""
        missing = [f.name for f in fields(cls) if f.name not in params]
        if missing:
            raise ValueError(f"serve params missing {missing}")
        check_known_keys(cls, params, "serve")
        # Scalars are coerced by their annotation; Optional fields pass through.
        values = {f.name: FIELD_TYPES.get(f.type, lambda v: v)(params[f.name])
                  for f in fields(cls)}
        if values["monitor"] is not None:
            from repro.monitor.quality import MonitorConfig

            monitor = dict(values["monitor"])
            check_known_keys(MonitorConfig, monitor, "monitor")
            sc = monitor.get("solver_config")
            if sc:
                check_known_keys(SolverConfig, sc, "monitor solver_config")
            monitor["solver_config"] = SolverConfig(**sc) if sc else None
            values["monitor"] = MonitorConfig(**monitor)
        if values["retrain"] is not None:
            from repro.retrain.loop import RetrainConfig

            values["retrain"] = RetrainConfig.from_params(values["retrain"])
        return cls(**values)

    def with_overrides(self, **changes: Any) -> "ServeConfig":
        """A copy with the given fields replaced (frozen-friendly)."""
        return replace(self, **changes)

    def identity_labels(self) -> "dict[str, str]":
        """Base labels for the run's recorder (``shard``/``instance``).

        Empty dict when neither is set, so ``identity_labels() or None``
        is the value to hand :func:`repro.telemetry.recording`.
        """
        labels: "dict[str, str]" = {}
        if self.shard is not None:
            labels["shard"] = self.shard
        if self.instance is not None:
            labels["instance"] = self.instance
        return labels

    # ------------------------------------------------------------------ #
    # Derived configs (the serve-seed convention in one place).
    # ------------------------------------------------------------------ #

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tol=self.solver_tol, max_iters=self.solver_max_iters)

    def dispatcher_config(self) -> DispatcherConfig:
        return DispatcherConfig(
            max_batch=self.max_batch,
            max_wait_hours=self.max_wait_hours,
            queue_capacity=self.queue_capacity,
            shed_policy=self.shed_policy,
            warm_start=self.warm_start != "off",
            solve_mode=self.solve_mode,
            journey_sample=self.journey_sample,
        )


@dataclass
class Platform:
    """A fully wired serving stack, ready to consume an arrival stream."""

    config: ServeConfig
    pool: Any  # TaskPool
    clusters: list
    method: Any  # trained BaseMethod
    spec: Any  # MatchSpec
    dispatcher: Dispatcher
    monitor: "QualityMonitor | None" = None
    controller: "RetrainController | None" = None
    registry: "ModelRegistry | None" = None
    profiler: "StageProfiler | None" = None

    def load(self, pattern: str = "poisson", rate_per_hour: float = 30.0):
        """A load generator over this platform's pool (CLI pattern names)."""
        from repro.serve.loadgen import make_load

        return make_load(pattern, self.pool, rate_per_hour)

    def run(
        self,
        events,
        *,
        outages: "list[Outage] | None" = None,
    ) -> ServeStats:
        """Drive the dispatcher (seeded ``seed + 4`` by convention)."""
        return self.dispatcher.run(events, rng=self.config.seed + 4,
                                   outages=outages or None)


def build_stack(config: ServeConfig):
    """Construct the core stack: ``(pool, clusters, method, spec, dcfg)``.

    Follows the serve-seed convention exactly: pool on ``seed``,
    train/test split on ``seed + 1``, fit context on ``seed + 2`` (the
    load generator uses ``seed + 3`` and the dispatcher ``seed + 4``).
    Shared by :func:`build_platform`, the ``repro serve run`` CLI path,
    and trace replay — replays match original runs by construction.
    """
    from repro.clusters import make_setting
    from repro.methods import TSM, FitContext, MatchSpec
    from repro.predictors.training import TrainConfig
    from repro.workloads.taskpool import TaskPool

    pool = TaskPool(config.pool_size, rng=config.seed)
    clusters = make_setting(config.setting)
    train_tasks, _ = pool.split(0.6, rng=config.seed + 1)
    spec = MatchSpec(solver=config.solver_config())
    ctx = FitContext.build(clusters, train_tasks, spec, rng=config.seed + 2)
    method = TSM(train_config=TrainConfig(epochs=config.train_epochs)).fit(ctx)
    return pool, clusters, method, spec, config.dispatcher_config()


def build_platform(
    config: ServeConfig,
    *,
    registry_root: "str | None" = None,
    stack=None,
) -> Platform:
    """Build and wire the full platform a :class:`ServeConfig` describes.

    - ``config.monitor`` set → a :class:`QualityMonitor` observes the run;
    - ``config.retrain`` set → a :class:`ModelRegistry` (at
      ``config.registry_root``, overridable via ``registry_root`` — replay
      uses a scratch directory) plus a bound
      :class:`~repro.retrain.RetrainController`; a drift-style trigger
      auto-creates a default monitor when none was configured, and the
      monitor's ``retrain_suggested`` alerts are wired to the controller;
    - ``stack`` accepts a prebuilt :func:`build_stack` result so tests
      replaying one config several times train the predictor once.
    """
    pool, clusters, method, spec, dcfg = stack or build_stack(config)

    monitor = controller = registry = None
    callbacks = []
    if config.monitor is not None:
        from repro.monitor.quality import QualityMonitor

        monitor = QualityMonitor(config.monitor)
    if config.retrain is not None:
        from repro.retrain.loop import RetrainController

        root = registry_root or config.registry_root
        if root is None:
            raise ValueError(
                "retraining requires a registry: set ServeConfig.registry_root "
                "or pass registry_root to build_platform"
            )
        registry = ModelRegistry(root)
        controller = RetrainController(config.retrain,
                                       solver_config=config.solver_config())
        if monitor is None and config.retrain.trigger in ("drift", "both"):
            from repro.monitor.quality import MonitorConfig, QualityMonitor

            monitor = QualityMonitor(MonitorConfig())
        if monitor is not None:
            monitor.add_retrain_listener(controller.notify_drift)
    if monitor is not None:
        callbacks.append(monitor)
    if controller is not None:
        callbacks.append(controller)
    profiler = None
    if config.profile:
        from repro.telemetry.profiler import StageProfiler

        profiler = StageProfiler()

    dispatcher = Dispatcher(clusters, method, spec, dcfg,
                            registry=registry, callbacks=callbacks,
                            profiler=profiler)
    if controller is not None:
        controller.bind(dispatcher)
    return Platform(
        config=config, pool=pool, clusters=clusters, method=method, spec=spec,
        dispatcher=dispatcher, monitor=monitor, controller=controller,
        registry=registry, profiler=profiler,
    )
