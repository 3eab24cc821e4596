"""The fleet controller: N per-shard dispatchers behind one router.

:class:`FleetController` turns a :class:`~repro.fleet.config.FleetConfig`
into a running sharded platform:

1. **partition** — the cluster pool splits per the config
   (``"replicate"``: every shard serves the full setting with a copy of
   one trained stack; ``"family"``: a specialist pool splits
   family-coherently via :func:`repro.clusters.shard_pool`, one trained
   stack per shard);
2. **route** — every arrival is assigned a shard by a deterministic
   router (:mod:`repro.fleet.router`), with re-route around shards whose
   clusters are *all* down;
3. **dispatch** — each shard's :class:`repro.serve.Dispatcher` consumes
   its sub-stream against the one shared simulated clock (all shards see
   the same arrival hours; no shard-local time exists), seeded by the
   same serve-seed convention (``seed + 4``) as the unsharded platform.

Shards are simulated sequentially in-process but are *independent* by
construction — no state crosses a shard boundary during a run — so the
per-shard traces model N parallel dispatcher processes.
:meth:`FleetStats.throughput_tasks_per_s` is therefore a critical-path
*proxy* (matches over the slowest shard's decide seconds), not a
wall-clock rate; the platform benchmark's ``fleet.wall_over_critical``
reads the gap between the two.

Determinism: routing is a pure function of (task id, arrival hour,
up-shard set), every shard runs ``rng = seed + 4``, and
:meth:`FleetStats.trace_bytes` concatenates the per-shard canonical
traces in shard order — one seed reproduces the merged event trace
byte-for-byte, and a 1-shard fleet reproduces the unsharded
dispatcher's trace exactly.
"""

from __future__ import annotations

import copy
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.fleet.config import FleetConfig
from repro.fleet.router import full_down_intervals, make_router
from repro.serve.config import build_stack
from repro.serve.dispatcher import RUN_STAT_FIELDS, Dispatcher, Outage, ServeStats
from repro.telemetry import recording
from repro.workloads.taskpool import Task

__all__ = ["FleetStats", "FleetController", "common_swaps"]


def common_swaps(per_shard: "list[list[dict]]") -> "list[dict]":
    """The one hot-swap sequence every shard applied (or logged).

    Every shard must show the *same* swaps — same window (epoch), same
    version, same weights digest, same reason — or a ``ValueError``
    pinpoints the divergence.  Returns one dict of those four keys per
    fleet-wide swap.
    """
    seqs = [[{k: ev.get(k) for k in ("window", "version", "digest", "reason")}
             for ev in swaps] for swaps in per_shard]
    for sid, seq in enumerate(seqs[1:], start=1):
        if seq != seqs[0]:
            raise ValueError(f"fleet swap divergence: shard 0 applied "
                             f"{seqs[0]}, shard {sid} applied {seq}")
    return seqs[0] if seqs else []


@dataclass
class FleetStats:
    """Merged outcome of one fleet run (per-shard stats + routing)."""

    per_shard: "list[ServeStats]"
    #: Per-shard routed arrivals ``(hour, task_id)`` in admission order —
    #: the routing decision record replay verifies against logged
    #: ``serve/arrival`` streams.
    routes: "list[list[tuple[float, int]]]"
    #: Arrivals that missed their consistent-hash home (outage failover
    #: or load-aware spill).
    rerouted: int = 0
    #: Wall-clock seconds spent deciding, per shard.
    decide_total_s: "list[float]" = field(default_factory=list)

    # -------------------------- fleet totals -------------------------- #
    # ``arrived`` ... ``swaps``: every RUN_STAT_FIELDS counter summed over
    # the shards, attached below the class.

    @property
    def n_shards(self) -> int:
        return len(self.per_shard)

    @property
    def conserved(self) -> bool:
        """Every shard conserves, and so (by summation) does the fleet."""
        return all(s.conserved for s in self.per_shard)

    @property
    def max_shard_decide_s(self) -> float:
        """The fleet's critical path: the slowest shard's decide time."""
        return max(self.decide_total_s, default=0.0)

    @property
    def sum_decide_s(self) -> float:
        return float(sum(self.decide_total_s))

    def throughput_tasks_per_s(self) -> float:
        """``critical_path_tasks_per_s``: matches per slowest-shard decide second.

        What N parallel shard processes *would* sustain, not a measured
        wall-clock rate: shards run one after another in this process,
        so the run's wall clock is near ``sum_decide_s``
        (``fleet.wall_over_critical`` in the platform benchmark reads
        4.0-4.5 at four shards).
        """
        denom = self.max_shard_decide_s
        return self.matched / denom if denom else 0.0

    # ---------------------- determinism artifacts --------------------- #

    def trace_bytes(self) -> bytes:
        """Canonical fleet trace: per-shard traces joined in shard order.

        Each shard's block is its dispatcher's own canonical trace
        (simulated-time only); empty shards contribute nothing.  At
        ``n_shards == 1`` this is byte-identical to the unsharded
        :meth:`repro.serve.ServeStats.trace_bytes`.
        """
        blocks = [s.trace_bytes() for s in self.per_shard]
        return b"\n".join(b for b in blocks if b)

    def trace_sha256(self) -> str:
        return hashlib.sha256(self.trace_bytes()).hexdigest()

    def fleet_swaps(self) -> "list[dict]":
        """The fleet-wide hot-swap sequence, verified consistent
        (:func:`common_swaps` over every shard's applied swaps)."""
        return common_swaps([s.swap_events for s in self.per_shard])

    def summary(self) -> str:
        lat = np.concatenate(
            [np.asarray(s.decide_seconds) for s in self.per_shard
             if s.decide_seconds] or [np.zeros(1)])
        return (
            f"shards={self.n_shards} windows={self.windows} "
            f"arrived={self.arrived} done={self.completed} "
            f"failed={self.failed} shed={self.shed} "
            f"requeued={self.requeued} unserved={self.unserved} "
            f"rerouted={self.rerouted} "
            f"p95_decide={float(np.percentile(lat, 95)) * 1e3:.1f}ms "
            f"critical_path_tasks_per_s={self.throughput_tasks_per_s():.0f}"
        )


def _fleet_total(name: str) -> property:
    return property(lambda self: sum(getattr(s, name) for s in self.per_shard),
                    doc=f"``{name}`` summed over the shards.")


for _name in RUN_STAT_FIELDS:
    if _name != "max_queue_depth":  # a maximum does not add up across shards
        setattr(FleetStats, _name, _fleet_total(_name))


class FleetController:
    """Partition, route, and drive N per-shard dispatchers (module doc)."""

    def __init__(self, config: FleetConfig, *, stack=None) -> None:
        self.config = config
        serve = config.serve
        n = config.n_shards
        if config.partition == "replicate":
            self.stack = stack if stack is not None else build_stack(serve)
            pool, clusters, method, spec, _ = self.stack
            self.pool = pool
            self.spec = spec
            # Always derive the dispatcher config from ``serve``, not the
            # (possibly differently-configured) prebuilt stack: the shard
            # logs record ``serve``'s params as replay truth, so the run
            # must follow them (journey_sample in particular).
            self.dcfg = serve.dispatcher_config()
            self.shard_clusters = [list(clusters) for _ in range(n)]
            self.shard_methods = [method] * n  # copied per run when mutated
        else:  # family
            from repro.clusters import make_specialist_pool, shard_pool
            from repro.methods import TSM, FitContext, MatchSpec
            from repro.predictors.training import TrainConfig
            from repro.workloads.taskpool import TaskPool

            if stack is not None:
                raise ValueError("prebuilt stacks only apply to partition="
                                 "'replicate' (family shards train their own)")
            self.pool = TaskPool(serve.pool_size, rng=serve.seed)
            clusters = make_specialist_pool(config.pool_m)
            self.shard_clusters = shard_pool(clusters, n)
            train_tasks, _ = self.pool.split(0.6, rng=serve.seed + 1)
            self.spec = MatchSpec(solver=serve.solver_config())
            self.dcfg = serve.dispatcher_config()
            # Each shard trains its own predictors for its own clusters,
            # all on the same seed (the stacks differ by cluster set, not
            # by RNG stream) — per the serve-seed convention.
            self.shard_methods = []
            for shard in self.shard_clusters:
                ctx = FitContext.build(shard, train_tasks, self.spec,
                                       rng=serve.seed + 2)
                self.shard_methods.append(
                    TSM(train_config=TrainConfig(epochs=serve.train_epochs))
                    .fit(ctx))
            self.stack = None
        #: Per-shard stage profilers of the last :meth:`run` (populated
        #: only when ``serve.profile`` is set).
        self.last_profilers: "list" = []
        #: Per-shard ``routed`` journey preambles of the last
        #: :meth:`route` call (``serve.journey_sample > 0`` feeds them to
        #: each shard's dispatcher so fleet journeys open with the
        #: routing decision).
        self.last_route_journeys: "list[list[dict]]" = []

    # ------------------------------------------------------------------ #
    # Routing.
    # ------------------------------------------------------------------ #

    def shard_outages(self, outages: "Sequence[Outage] | None",
                      ) -> "list[list[Outage]]":
        """Each outage delivered to every shard serving that cluster."""
        per_shard: "list[list[Outage]]" = [[] for _ in range(self.config.n_shards)]
        for o in outages or ():
            for sid, clusters in enumerate(self.shard_clusters):
                if any(c.cluster_id == o.cluster_id for c in clusters):
                    per_shard[sid].append(o)
        return per_shard

    def route(self, events: "Sequence[tuple[float, Task]]",
              outages: "Sequence[Outage] | None" = None):
        """Split an arrival stream across shards.

        Returns ``(per_shard_events, per_shard_routes, rerouted)`` where
        ``per_shard_events`` are ``(hour, task)`` sub-streams in fleet
        admission order and ``per_shard_routes`` the matching
        ``(hour, task_id)`` record.  Deterministic: arrivals are
        processed in ``(hour, task_id)`` order and the router sees only
        simulated time, so the same stream always splits the same way.
        """
        cfg = self.config
        router = make_router(cfg.routing, cfg.n_shards,
                             window_hours=cfg.router_window_hours())
        shard_down = [
            full_down_intervals(per, len(self.shard_clusters[sid]))
            for sid, per in enumerate(self.shard_outages(outages))
        ]

        def shard_up(sid: int, t: float) -> bool:
            return not any(start <= t < end for start, end in shard_down[sid])

        per_shard_events: "list[list[tuple[float, Task]]]" = [
            [] for _ in range(cfg.n_shards)]
        per_shard_routes: "list[list[tuple[float, int]]]" = [
            [] for _ in range(cfg.n_shards)]
        route_journeys: "list[list[dict]]" = [[] for _ in range(cfg.n_shards)]
        journeys = self.dcfg.journey_sample > 0.0
        ordered = sorted(events, key=lambda e: (e[0], e[1].task_id))
        for t, task in ordered:
            up = {s for s in range(cfg.n_shards) if shard_up(s, t)}
            sid = router.route(task.task_id, t, up)
            per_shard_events[sid].append((t, task))
            per_shard_routes[sid].append((t, task.task_id))
            if not journeys:
                continue
            # Journey preamble for the chosen shard's dispatcher: the
            # ring home and why this shard got the task (home pick, ring
            # failover past a down shard, or load-aware override).
            home = router.ring.owner(str(task.task_id))
            if sid == home:
                reason = "home"
            elif home not in up:
                reason = "failover"
            else:
                reason = "load"
            route_journeys[sid].append({
                "task_id": int(task.task_id), "t": float(t),
                "home": int(home), "shard": sid, "reason": reason,
                "policy": cfg.routing,
            })
        self.last_route_journeys = route_journeys
        return per_shard_events, per_shard_routes, router.rerouted

    # ------------------------------------------------------------------ #
    # Running.
    # ------------------------------------------------------------------ #

    def run(
        self,
        events: "Sequence[tuple[float, Task]]",
        *,
        outages: "Sequence[Outage] | None" = None,
        swap_schedule: "dict[int, str] | None" = None,
        registry=None,
        callbacks_factory: "Callable[[int], list] | None" = None,
        telemetry: str = "off",
        out_dir: "str | os.PathLike[str] | None" = None,
        run_prefix: str = "fleet-run",
    ) -> FleetStats:
        """Route the stream and drive every shard's dispatcher.

        ``swap_schedule`` (window → registry version, with ``registry``)
        applies the *same* schedule on every shard — the fleet-wide
        hot-swap primitive; methods are deep-copied per shard so the
        swap's ``load_into`` never leaks across shards or into the
        shared base stack.  ``callbacks_factory(shard_id)`` builds each
        shard's serve callbacks (fleet retraining attaches its
        harvesters here).  ``telemetry`` != ``"off"`` wraps each shard
        in its own recorder — run ``{run_prefix}-s{shard}``, base labels
        from :meth:`ServeConfig.identity_labels`, meta carrying both the
        per-shard serve params and the fleet params — so per-shard JSONL
        logs are individually replayable and merge losslessly.
        """
        cfg = self.config
        serve = cfg.serve
        per_shard_events, per_shard_routes, rerouted = self.route(
            events, outages)
        per_shard_outages = self.shard_outages(outages)

        per_shard: "list[ServeStats]" = []
        decide_totals: "list[float]" = []
        self.last_profilers = []
        for sid in range(cfg.n_shards):
            shard_cfg = cfg.shard_config(sid)
            method = self.shard_methods[sid]
            if swap_schedule:
                # load_into mutates the method in place; every shard gets
                # a private copy so pre-swap windows keep base weights
                # and the shared stack stays reusable.
                method = copy.deepcopy(method)
            profiler = None
            if serve.profile:
                from repro.telemetry.profiler import StageProfiler

                profiler = StageProfiler()
            self.last_profilers.append(profiler)
            dispatcher = Dispatcher(
                self.shard_clusters[sid], method, self.spec, self.dcfg,
                registry=registry,
                swap_schedule=dict(swap_schedule) if swap_schedule else None,
                callbacks=callbacks_factory(sid) if callbacks_factory else None,
                profiler=profiler,
            )
            if dispatcher.journeys is not None:
                # Open every journey with its routing decision, in fleet
                # admission order, so the shard's log carries the full
                # causal path (routed -> admitted -> ... -> terminal).
                for m in self.last_route_journeys[sid]:
                    dispatcher.journeys.record(
                        m["task_id"], m["t"], "routed", m["t"],
                        home=m["home"], shard=m["shard"],
                        reason=m["reason"], policy=m["policy"])
            shard_events = per_shard_events[sid]
            shard_outs = per_shard_outages[sid] or None
            with recording(  # mode "off" leaves any outer recorder active
                mode=telemetry,
                run=f"{run_prefix}-s{sid}",
                out_dir=out_dir,
                meta={"serve": shard_cfg.to_params(),
                      "fleet": cfg.to_params()},
                labels=shard_cfg.identity_labels() or None,
            ):
                stats = dispatcher.run(shard_events, rng=serve.seed + 4,
                                       outages=shard_outs)
            per_shard.append(stats)
            decide_totals.append(float(sum(stats.decide_seconds)))
        return FleetStats(per_shard=per_shard, routes=per_shard_routes,
                          rerouted=rerouted, decide_total_s=decide_totals)

    # ------------------------------------------------------------------ #
    # Observability.
    # ------------------------------------------------------------------ #

    def write_flamegraph(self, path: "str | os.PathLike[str]") -> Path:
        """Merged collapsed-stack profile, one ``shardN`` root per shard.

        Requires the last run to have been profiled
        (``serve.profile=True``); shard frames nest under ``shardN`` so
        one flamegraph shows the whole fleet's latency budget.
        """
        lines: "list[str]" = []
        for sid, prof in enumerate(self.last_profilers):
            if prof is None:
                continue
            for line in prof.collapsed_stacks(root=f"shard{sid};window"):
                lines.append(line)
        if not lines:
            raise ValueError("no profiled run to export — set "
                             "serve.profile=True and call run() first")
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n")
        return out
