"""The closed-loop retraining controller (drift → refit → canary → swap).

:class:`RetrainController` is a :class:`~repro.serve.dispatcher.ServeCallback`
that rides the dispatcher's window stream and closes the learning loop:

1. **harvest** — every dispatched window's realized outcomes land in a
   :class:`~repro.retrain.buffer.ReplayBuffer` (orphaned dispatches are
   voided through ``on_requeue`` before they can poison a training set);
2. **trigger** — a drift alert from :class:`repro.monitor.quality.
   QualityMonitor` (wired via ``notify_drift``) or a periodic schedule
   arms a refit; ``trigger="manual"`` never self-triggers — the setting
   :class:`~repro.fleet.FleetRetrainController` runs with, since it
   starts its refits centrally;
3. **refit** — a :class:`~repro.retrain.policy.RefitJob` trains candidate
   pairs cooperatively, ``steps_per_window`` minibatches per dispatched
   window, so training never blocks matching and the event loop stays
   deterministic;
4. **canary** — the finished candidate is shadow-scored against the live
   model by :class:`~repro.retrain.canary.CanaryGate` on held-out recent
   labels and cached decision windows.  Pass → the checkpoint registers
   with the live version as its *parent*, is promoted, and a hot-swap is
   queued for the next window.  Fail → it registers tagged
   ``canary-rejected`` for audit but the live pointer never moves;
5. **guard** — for ``guard_windows`` windows after a swap the controller
   watches the served time-prediction error; degradation beyond
   ``GUARD_RATIO`` × the pre-swap baseline (:func:`_guard_verdict`, the
   rule the fleet controller applies per shard) rolls the registry back
   along the lineage chain and queues a rollback swap.

Everything the controller does is keyed to simulated time and a config
seed, so an equal-seed re-run reproduces the identical sequence of
triggers, candidates, verdicts, and swaps — the property the replay
layer (:mod:`repro.monitor.replay`) verifies for swapped runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.matching.relaxed import SolverConfig
from repro.predictors.models import PredictorPair
from repro.predictors.training import TrainConfig
from repro.retrain.buffer import Label, ReplayBuffer
from repro.retrain.canary import CanaryGate
from repro.retrain.harvest import WindowHarvester
from repro.retrain.policy import REFIT_MODES, RefitJob
from repro.serve.dispatcher import Dispatcher, ServeCallback, ServeStats, WindowSnapshot
from repro.serve.registry import ModelRegistry, _pairs_of
from repro.telemetry import get_recorder
from repro.utils.rng import as_generator
from repro.utils.validation import check_choices, check_known_keys

__all__ = ["RetrainConfig", "RetrainController", "build_refit"]

TRIGGERS = ("drift", "periodic", "both", "manual")
#: A swap is rolled back when the served error of its guard windows
#: exceeds this multiple of the pre-swap baseline.
GUARD_RATIO = 1.5


def _guard_verdict(window_mse: "list[tuple[int, float]]", swap_window: int,
                   config: "RetrainConfig") -> dict:
    """The post-swap guard: post error vs the pre-swap baseline.

    Baseline is the mean served MSE over the last ``guard_windows``
    windows *before* the swap epoch; post is the first ``guard_windows``
    windows served by the new weights.  No post-swap evidence abstains
    (cannot be degraded).
    """
    pre = [m for w, m in window_mse if w < swap_window][-config.guard_windows:]
    post = [m for w, m in window_mse if w >= swap_window][:config.guard_windows]
    baseline = float(np.mean(pre)) if pre else float("nan")
    post_mse = float(np.mean(post)) if post else float("nan")
    degraded = bool(
        np.isfinite(baseline) and baseline > 0 and np.isfinite(post_mse)
        and post_mse > GUARD_RATIO * baseline)
    return {"baseline_mse": baseline, "post_mse": post_mse,
            "n_pre": len(pre), "n_post": len(post), "degraded": degraded}


def _register_verdict(registry: ModelRegistry, job: RefitJob, passed: bool,
                      config: "RetrainConfig", metrics: "dict | None" = None):
    """The registry side of a canary verdict, with the live version as parent.

    A failed candidate is kept for audit tagged ``canary-rejected`` and
    the live pointer stays; a passed one is saved as ``refit-{mode}`` and
    promoted to live.  Returns ``(info, parent)``.
    """
    parent = registry.live()
    tag = f"refit-{job.mode}" if passed else "canary-rejected"
    info = registry.save(job.pairs, config=config, metrics=metrics, tag=tag,
                         parent=parent)
    if passed:
        registry.set_live(info.version)
    return info, parent


@dataclass(frozen=True)
class RetrainConfig:
    """Flat, JSON-safe knobs of the closed retraining loop."""

    # Trigger policy.
    trigger: str = field(default="drift", metadata={"choices": TRIGGERS})
    period_windows: int = 0  # periodic cadence (0 = never), used by periodic/both
    cooldown_windows: int = 16  # windows between retrain attempts
    # Label harvesting / sampling.
    min_labels: int = 32  # observable labels required to arm a refit
    min_cluster_labels: int = 8
    sample_size: int = 256
    # Refit optimization (feeds TrainConfig).
    mode: str = field(default="incremental", metadata={"choices": REFIT_MODES})
    steps_per_window: int = 8  # cooperative minibatch budget per dispatch
    epochs: int = 40
    lr: float = 5e-3
    # Canary gate.
    canary_min_holdout: int = 12
    canary_windows: int = 6  # recent windows cached for decision-regret replay
    # Post-swap guard.
    guard_windows: int = 10
    # Determinism.
    seed: int = 0

    def __post_init__(self) -> None:
        check_choices(self)
        if self.trigger in ("periodic", "both") and self.period_windows <= 0:
            raise ValueError("periodic trigger requires period_windows > 0")
        for name in ("min_labels", "min_cluster_labels", "sample_size",
                     "steps_per_window", "epochs",
                     "canary_min_holdout", "guard_windows"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # JSON round-trip (serving params in run logs; CLI flag parsing).
    def to_params(self) -> dict:
        return asdict(self)

    @classmethod
    def from_params(cls, params: dict) -> "RetrainConfig":
        check_known_keys(cls, params, "retrain")
        return cls(**params)

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, lr=self.lr, batch_size=16)

    def canary_gate(self, solver_config: "SolverConfig | None") -> CanaryGate:
        return CanaryGate(min_holdout=self.canary_min_holdout,
                          solver_config=solver_config)


def _bootstrap_registry(registry: ModelRegistry, method: object,
                        config: RetrainConfig) -> None:
    """Give every later refit a parent to record — and a rollback target.

    An empty registry gets the currently fitted model registered and
    promoted; a populated one without a live pointer promotes its latest.
    """
    _pairs_of(method)  # fail fast on oracle-style methods
    if not registry.versions():
        info = registry.save(method, config=config, tag="bootstrap")
        registry.set_live(info.version)
    elif registry.live() is None:
        registry.set_live(registry.latest())


def build_refit(
    buffer: ReplayBuffer,
    now: float,
    live_pairs: "list[PredictorPair]",
    cluster_ids: "list[int]",
    config: RetrainConfig,
    rng: np.random.Generator,
) -> "tuple[RefitJob, list[Label], list[Label]] | None":
    """Sample → split hold-out → :meth:`RefitJob.build` on ``buffer``.

    Returns ``(job, train, holdout)``, or ``None`` when the evidence
    floor is not met (too few observable labels at ``now``, or no
    cluster with ``min_cluster_labels``) — the caller should wait for
    more traffic.  Draws from ``rng`` in a fixed order (the sample, then
    the job's spawns), which the replay layer's swap digests depend on.
    """
    if len(buffer.ready(now)) < config.min_labels:
        return None
    sampled = buffer.sample(now, config.sample_size, rng)
    train, holdout = buffer.split_holdout(sampled)
    try:
        job = RefitJob.build(
            live_pairs, cluster_ids, ReplayBuffer.datasets(train),
            mode=config.mode, config=config.train_config(), rng=rng,
            min_cluster_labels=config.min_cluster_labels,
        )
    except ValueError:
        return None
    return job, train, holdout


class RetrainController(ServeCallback):
    """Serve callback running the harvest → refit → canary → guard loop."""

    def __init__(
        self,
        config: "RetrainConfig | None" = None,
        *,
        solver_config: "SolverConfig | None" = None,
    ) -> None:
        self.config = cfg = config or RetrainConfig()
        self.registry: "ModelRegistry | None" = None  # the dispatcher's, from bind
        self.buffer = ReplayBuffer()
        self.evidence = WindowHarvester(self.buffer, {},
                                        canary_windows=cfg.canary_windows)
        self.gate = cfg.canary_gate(solver_config)
        self._rng = as_generator(cfg.seed)
        self.state = "idle"  # idle | training | guard
        self.dispatcher: "Dispatcher | None" = None
        self._cluster_ids: "list[int]" = []
        self._drift_reason: "str | None" = None
        self._cooldown_until = 0  # window number before which no trigger arms
        self._last_trigger_window = 0
        self._job: "RefitJob | None" = None
        self._holdout: "list[Label]" = []
        #: Full ``(window, served log-time MSE)`` history — one tuple per
        #: window with completed tasks; the guard metric, and the
        #: before/after evidence tests and examples use to show a swap
        #: actually helped.
        self.window_errors = self.evidence.window_mse
        self._guard: "dict | None" = None
        # Audit trail for tests/examples: every verdict the loop produced.
        self.events: "list[dict]" = []

    # ------------------------------------------------------------------ #
    # Wiring.
    # ------------------------------------------------------------------ #

    def bind(self, dispatcher: Dispatcher) -> "RetrainController":
        """Attach to a dispatcher (must carry the checkpoint registry).

        Bootstraps the registry when empty: the currently fitted model is
        registered and promoted so every later refit has a parent to
        record — and a rollback target.
        """
        if dispatcher.registry is None:
            raise ValueError("retraining requires a dispatcher with a registry")
        self.registry = dispatcher.registry
        self.dispatcher = dispatcher
        self._cluster_ids = [c.cluster_id for c in dispatcher.clusters]
        self.evidence.pair_index = {
            cid: i for i, cid in enumerate(self._cluster_ids)}
        _bootstrap_registry(self.registry, dispatcher.method, self.config)
        return self

    def notify_drift(self, alert: object) -> None:
        """Drift-trigger entry point (wired to the quality monitor)."""
        reason = getattr(alert, "message", None) or (
            alert.get("message") if isinstance(alert, dict) else None)
        self._drift_reason = f"drift: {reason}" if reason else "drift"

    # ------------------------------------------------------------------ #
    # Serve callbacks.
    # ------------------------------------------------------------------ #

    def on_requeue(self, task_id: int, arrival: float, t: float) -> None:
        self.evidence.on_requeue(task_id, arrival, t)

    def on_window(self, snapshot: WindowSnapshot) -> None:
        self.evidence.on_window(snapshot)
        jt = getattr(self.dispatcher, "journeys", None)
        if jt is not None:
            # Retrain provenance: each batch member's label entered the
            # replay buffer from this window (a later requeue discards
            # it again — the ``requeued`` journey event marks that).
            for j, tid in enumerate(snapshot.task_ids):
                jt.record(int(tid), float(snapshot.arrival[j]), "harvested",
                          snapshot.time, window=snapshot.window,
                          buffer_size=len(self.buffer))
        if self.state == "training":
            self._advance_training(snapshot)
        elif self.state == "guard":
            self._advance_guard(snapshot)
        if self.state == "idle":
            reason = self._trigger_reason(snapshot.window)
            if reason is not None:
                self._start_job(snapshot, reason)

    def on_finish(self, stats: ServeStats) -> None:
        rec = get_recorder()
        if rec.enabled:
            rec.event("retrain/summary", state=self.state,
                      buffer=self.buffer.stats(),
                      events=[e["kind"] for e in self.events])

    # ------------------------------------------------------------------ #
    # Trigger → job.
    # ------------------------------------------------------------------ #

    def _trigger_reason(self, window: int) -> "str | None":
        if window < self._cooldown_until:
            return None
        cfg = self.config
        if cfg.trigger in ("drift", "both") and self._drift_reason is not None:
            reason, self._drift_reason = self._drift_reason, None
            return reason
        if cfg.trigger in ("periodic", "both") and cfg.period_windows > 0:
            if window - self._last_trigger_window >= cfg.period_windows:
                return f"periodic: every {cfg.period_windows} windows"
        return None

    def _verdict(self, kind: str, counter: "str | None" = None,
                 log_only: "dict | None" = None, **entry) -> None:
        """Record one verdict: an ``events`` entry and a ``retrain/<kind>``
        event (plus ``counter``); ``log_only`` fields go to the event only."""
        self.events.append({"kind": kind, **entry})
        rec = get_recorder()
        if rec.enabled:
            if counter is not None:
                rec.counter_add(counter)
            rec.event(f"retrain/{kind}", **entry, **(log_only or {}))

    def _start_job(self, snapshot: WindowSnapshot, reason: str) -> None:
        cfg = self.config
        refit = build_refit(
            self.buffer, snapshot.time, _pairs_of(self.dispatcher.method),
            self._cluster_ids, cfg, self._rng)
        if refit is None:
            # Not enough evidence yet; retry after a short backoff rather
            # than burning a trigger every window.
            self._cooldown_until = snapshot.window + max(1, cfg.cooldown_windows // 4)
            self._drift_reason = self._drift_reason or reason
            return
        job, train, holdout = refit
        self._job = job
        self._holdout = holdout
        self._last_trigger_window = snapshot.window
        self.state = "training"
        self._verdict("triggered", "retrain/jobs",
                      {"mode": cfg.mode, "total_steps": job.total_steps},
                      window=snapshot.window, reason=reason,
                      n_train=len(train), n_holdout=len(holdout))

    # ------------------------------------------------------------------ #
    # Training → canary → swap.
    # ------------------------------------------------------------------ #

    def _advance_training(self, snapshot: WindowSnapshot) -> None:
        job = self._job
        assert job is not None
        ran = job.run_steps(self.config.steps_per_window)
        rec = get_recorder()
        if rec.enabled and ran:
            rec.counter_add("retrain/steps", ran)
        if not job.done:
            return
        self._finish_job(snapshot, job)

    def _finish_job(self, snapshot: WindowSnapshot, job: RefitJob) -> None:
        cfg = self.config
        rec = get_recorder()
        live_pairs = _pairs_of(self.dispatcher.method)
        holdout = [l for l in self._holdout if l.end <= snapshot.time]
        decision = self.gate.evaluate(
            job.pairs, live_pairs, self.evidence.pair_index, holdout,
            list(self.evidence.windows),
        )
        metrics = {**decision.metrics(),
                   "refit_steps": float(job.steps_done),
                   "refit_labels": float(job.n_labels)}
        self._job = None
        self._holdout = []
        self._cooldown_until = snapshot.window + cfg.cooldown_windows
        if rec.enabled:
            rec.event("retrain/canary", window=snapshot.window,
                      passed=decision.passed, reasons=list(decision.reasons),
                      **{k: v for k, v in decision.metrics().items()
                         if k != "canary_passed"})
        info, live_version = _register_verdict(self.registry, job,
                                               decision.passed, cfg, metrics)
        if not decision.passed:
            self.state = "idle"
            self._verdict("rejected", "retrain/rejections",
                          window=snapshot.window, version=info.version,
                          reasons=list(decision.reasons))
            return
        self.dispatcher.request_swap(info.version, reason="retrain")
        baseline = _guard_verdict(self.window_errors, snapshot.window + 1,
                                  cfg)["baseline_mse"]
        self._guard = {"after_window": snapshot.window,
                       "pre_count": len(self.window_errors),
                       "version": info.version}
        self.state = "guard"
        self._verdict("promoted", "retrain/promotions", {"digest": info.digest},
                      window=snapshot.window, version=info.version,
                      parent=live_version, baseline_mse=baseline)

    # ------------------------------------------------------------------ #
    # Post-swap guard.
    # ------------------------------------------------------------------ #

    def _advance_guard(self, snapshot: WindowSnapshot) -> None:
        guard = self._guard
        assert guard is not None
        cfg = self.config
        # The swap applies at the dispatch *after* the request; only
        # windows served by the new model count toward the verdict.
        if len(self.window_errors) - guard["pre_count"] < cfg.guard_windows:
            return
        verdict = _guard_verdict(self.window_errors, guard["after_window"] + 1,
                                 cfg)
        post, baseline = verdict["post_mse"], verdict["baseline_mse"]
        self._guard = None
        self.state = "idle"
        if not verdict["degraded"]:
            self._verdict("guard_passed", window=snapshot.window,
                          version=guard["version"], post_mse=post,
                          baseline_mse=baseline)
            return
        info = self.registry.rollback()
        self.dispatcher.request_swap(info.version, reason="rollback")
        self._cooldown_until = snapshot.window + cfg.cooldown_windows
        self._verdict("rollback", "retrain/rollbacks", window=snapshot.window,
                      from_version=guard["version"], to_version=info.version,
                      post_mse=post, baseline_mse=baseline)
