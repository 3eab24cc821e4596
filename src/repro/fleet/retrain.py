"""Fleet-wide retraining: one candidate, N canaries, one verdict.

A sharded platform cannot run N independent per-shard
:class:`~repro.retrain.RetrainController` loops against one registry —
they would race the live pointer and the shards would drift onto
different weights.  :class:`FleetRetrainController` centralizes the
loop instead:

1. **observe** — one fleet pass over the arrival stream with a
   :class:`~repro.retrain.harvest.WindowHarvester` on every shard; all
   realized labels land in a *single* fleet
   :class:`~repro.retrain.buffer.ReplayBuffer` (routing partitions
   arrivals, so the ``(task_id, arrival)`` label keys never collide
   across shards), while each harvester privately caches its shard's
   recent decision windows and served-error series;
2. **refit** — one central :class:`~repro.retrain.policy.RefitJob`
   trains a single candidate on the pooled cross-shard labels;
3. **canary panel** — the candidate is shadow-scored per shard
   (each shard's own cached windows, the shared recent holdout) and the
   verdict is fleet-global and fail-closed: every shard with decision
   evidence must pass, and at least one must have evidence;
4. **fleet swap** — on promotion the candidate registers once (one
   version, one ``weights_digest``) and every shard receives the same
   ``{swap_window: version}`` schedule, so the hot-swap lands on every
   shard at the same epoch with the same digest — the property
   :meth:`repro.fleet.FleetStats.fleet_swaps` verifies;
5. **guard** — after the swapped pass, each shard's post-swap served
   error is compared to its own pre-swap baseline.  A *single* degraded
   shard rolls the whole fleet back: the registry live pointer reverts
   and the scenario re-runs with a rollback swap scheduled
   ``guard_windows`` after the promotion, producing the final audited
   run (both swap events, every shard identical).

Everything is keyed to simulated time and the retrain config seed, so
equal seeds reproduce the identical candidate, verdicts, and swap
schedule.  Requires ``partition="replicate"`` — a single checkpoint must
mean the same thing on every shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.config import FleetConfig
from repro.fleet.controller import FleetController, FleetStats
from repro.retrain.buffer import ReplayBuffer
from repro.retrain.harvest import WindowHarvester
from repro.retrain.loop import (
    RetrainConfig,
    _bootstrap_registry,
    _guard_verdict,
    _register_verdict,
    build_refit,
)
from repro.retrain.policy import RefitJob
from repro.serve.registry import ModelRegistry, _pairs_of
from repro.utils.rng import as_generator

__all__ = ["FleetRetrainController", "FleetRetrainOutcome"]


@dataclass
class FleetRetrainOutcome:
    """Audit record of one fleet retraining cycle."""

    #: ``"promoted"`` | ``"rejected"`` | ``"insufficient-labels"``.
    verdict: str
    #: The fleet pass that produced the training labels.
    observe: FleetStats
    #: Per-shard canary verdicts (``shard``, ``passed``, ``abstained``,
    #: gate metrics); empty when the refit never armed.
    canary: "list[dict]" = field(default_factory=list)
    refit: "dict | None" = None
    version: "str | None" = None
    digest: "str | None" = None
    swap_window: "int | None" = None
    #: Per-shard post-swap guard verdicts (from the swapped pass).
    guards: "list[dict]" = field(default_factory=list)
    rolled_back: bool = False
    rollback_version: "str | None" = None
    #: The final audited fleet pass: the swapped run when the guard held
    #: everywhere, the swap+rollback run when any shard degraded, or
    #: ``None`` when nothing was promoted.
    final: "FleetStats | None" = None
    events: "list[dict]" = field(default_factory=list)


class FleetRetrainController:
    """Centralized observe → refit → canary panel → fleet swap → guard."""

    def __init__(
        self,
        config: FleetConfig,
        retrain: "RetrainConfig | None" = None,
        *,
        registry_root: str,
    ) -> None:
        if config.partition != "replicate":
            raise ValueError(
                "fleet retraining requires partition='replicate' — one "
                "checkpoint must mean the same thing on every shard")
        self.config = config
        self.retrain = retrain or RetrainConfig()
        self.fleet = FleetController(config)
        self.registry = ModelRegistry(registry_root)
        self._cluster_ids = [c.cluster_id
                             for c in self.fleet.shard_clusters[0]]
        self._pair_index = {cid: i for i, cid in enumerate(self._cluster_ids)}
        self._base_method = self.fleet.shard_methods[0]
        _bootstrap_registry(self.registry, self._base_method, self.retrain)

    # ------------------------------------------------------------------ #
    # Phases.
    # ------------------------------------------------------------------ #

    def _harvesters(self, buffer: ReplayBuffer) -> "list[WindowHarvester]":
        return [
            WindowHarvester(buffer, self._pair_index,
                            canary_windows=self.retrain.canary_windows)
            for _ in range(self.config.n_shards)
        ]

    def observe(self, events, *, outages=None):
        """Phase 1: one harvesting fleet pass.

        Returns ``(stats, harvesters, buffer)`` — the labels pooled
        across shards plus each shard's private canary/guard evidence.
        """
        buffer = ReplayBuffer()
        harvesters = self._harvesters(buffer)
        stats = self.fleet.run(events, outages=outages,
                               callbacks_factory=lambda sid: [harvesters[sid]])
        return stats, harvesters, buffer

    def refit(self, buffer: ReplayBuffer, now: float):
        """Phase 2: train one candidate on the pooled fleet labels.

        Blocking (the central trainer is off the serving path, unlike
        the cooperative per-shard loop).  Returns ``(job, holdout)`` or
        ``(None, [])`` when the evidence floor is not met.
        """
        cfg = self.retrain
        refit = build_refit(buffer, now, _pairs_of(self._base_method),
                            self._cluster_ids, cfg, as_generator(cfg.seed))
        if refit is None:
            return None, []
        job, _, holdout = refit
        while not job.done:
            job.run_steps(cfg.steps_per_window)
        return job, holdout

    def canary_panel(self, job: RefitJob, holdout,
                     harvesters: "list[WindowHarvester]"):
        """Phase 3: per-shard shadow scoring, fleet-global verdict.

        Fail-closed: the fleet promotes only if every shard with cached
        decision windows passes its gate *and* at least one shard had
        evidence.  Shards that routed no traffic abstain.
        """
        gate = self.retrain.canary_gate(self.config.serve.solver_config())
        live_pairs = _pairs_of(self._base_method)
        verdicts: "list[dict]" = []
        evaluated = False
        passed_all = True
        for sid, harvester in enumerate(harvesters):
            if not harvester.windows:
                verdicts.append({"shard": sid, "abstained": True,
                                 "passed": None})
                continue
            decision = gate.evaluate(job.pairs, live_pairs, self._pair_index,
                                     holdout, list(harvester.windows))
            evaluated = True
            passed_all = passed_all and decision.passed
            verdicts.append({"shard": sid, "abstained": False,
                             "passed": decision.passed,
                             "reasons": list(decision.reasons),
                             **decision.metrics()})
        return (evaluated and passed_all), verdicts

    def swap_and_guard(self, events, version: str, swap_window: int,
                       *, outages=None):
        """Phases 4-5: fleet-wide hot-swap, per-shard guard, rollback.

        Public so tests and operators can drive a swap of *any*
        registered version (e.g. a deliberately corrupted checkpoint
        that bypassed the canary) through the guard machinery.  Runs the
        stream with ``{swap_window: version}`` on every shard; if any
        shard's guard degrades, the registry rolls back and the scenario
        re-runs with the rollback swap scheduled ``guard_windows``
        later — the returned stats then carry *both* fleet-wide swap
        events.  Returns ``(final_stats, guards, rolled_back,
        rollback_version)``.
        """
        cfg = self.retrain
        buffer = ReplayBuffer()  # discarded; guard only
        harvesters = self._harvesters(buffer)
        stats = self.fleet.run(
            events, outages=outages, registry=self.registry,
            swap_schedule={swap_window: version},
            callbacks_factory=lambda sid: [harvesters[sid]])
        stats.fleet_swaps()  # raise early on any cross-shard divergence
        guards = [{"shard": sid,
                   **_guard_verdict(h.window_mse, swap_window, cfg)}
                  for sid, h in enumerate(harvesters)]
        if not any(g["degraded"] for g in guards):
            return stats, guards, False, None
        if self.registry.live() == version:
            info = self.registry.rollback()
        else:
            # The swapped version was never promoted (operator-driven
            # swap of e.g. a quarantined checkpoint); roll back to its
            # recorded parent without touching the live pointer.
            parent = self.registry.info(version).parent
            if parent is None:
                raise ValueError(
                    f"version {version} degraded but has no parent to "
                    "roll the fleet back to")
            info = self.registry.info(parent)
        rollback_window = swap_window + cfg.guard_windows
        final = self.fleet.run(
            events, outages=outages, registry=self.registry,
            swap_schedule={swap_window: version,
                           rollback_window: info.version})
        final.fleet_swaps()
        return final, guards, True, info.version

    # ------------------------------------------------------------------ #
    # The full cycle.
    # ------------------------------------------------------------------ #

    def run(self, events, *, outages=None) -> FleetRetrainOutcome:
        """One complete fleet retraining cycle over an arrival stream."""
        cfg = self.retrain
        observe_stats, harvesters, buffer = self.observe(events,
                                                         outages=outages)
        outcome = FleetRetrainOutcome(verdict="insufficient-labels",
                                      observe=observe_stats)
        now = max((h.max_label_end for h in harvesters), default=0.0)
        job, holdout = self.refit(buffer, now)
        if job is None:
            outcome.events.append({"kind": "skipped",
                                   "reason": "insufficient labels",
                                   "labels": len(buffer.ready(now))})
            return outcome
        outcome.refit = {"steps": job.steps_done, "labels": job.n_labels,
                         "mode": job.mode,
                         "trained_clusters": list(job.trained_clusters),
                         "skipped_clusters": list(job.skipped_clusters)}
        promoted, verdicts = self.canary_panel(job, holdout, harvesters)
        outcome.canary = verdicts
        info, live_version = _register_verdict(self.registry, job, promoted,
                                               cfg)
        if not promoted:
            outcome.verdict = "rejected"
            outcome.version = info.version
            outcome.events.append({"kind": "rejected",
                                   "version": info.version})
            return outcome
        # The swap epoch: mid-run on the least-loaded shard's horizon so
        # every shard has both pre-swap baseline and post-swap evidence.
        min_windows = min((s.windows for s in observe_stats.per_shard
                           if s.windows), default=2)
        swap_window = max(1, min_windows // 2)
        outcome.verdict = "promoted"
        outcome.version = info.version
        outcome.digest = info.digest
        outcome.swap_window = swap_window
        outcome.events.append({"kind": "promoted", "version": info.version,
                               "parent": live_version,
                               "digest": info.digest,
                               "swap_window": swap_window})
        final, guards, rolled_back, rollback_version = self.swap_and_guard(
            events, info.version, swap_window, outages=outages)
        outcome.final = final
        outcome.guards = guards
        outcome.rolled_back = rolled_back
        outcome.rollback_version = rollback_version
        if rolled_back:
            outcome.events.append({"kind": "rollback",
                                   "from_version": info.version,
                                   "to_version": rollback_version})
        else:
            outcome.events.append({"kind": "guard_passed",
                                   "version": info.version})
        return outcome
