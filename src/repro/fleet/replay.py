"""Fleet trace replay: rebuild a whole sharded run from per-shard logs.

A ``FleetController.run(..., telemetry="jsonl")`` leaves one JSONL log
per shard, each individually replayable (it is a plain serving log) and
each carrying the *fleet* configuration in its meta header.
:class:`FleetReplay` stitches them back together:

- the per-shard ``serve/arrival`` streams are merged (sorted by
  ``(hour, task_id)``) to recover the fleet's admission stream — the
  routing layer partitioned it, so the merge is exact;
- the :class:`~repro.fleet.FleetConfig` rebuilds from ``meta["fleet"]``
  and re-drives the *entire* fleet — router included — over the merged
  stream;
- :meth:`verify` then checks three layers: every shard's counters and
  swap breadcrumbs against its own log (via per-shard
  :class:`~repro.monitor.replay.TraceReplay`), **routing determinism**
  (the replayed router must send exactly the logged arrival sub-stream
  to every shard), and fleet-level conservation.

Schedule-driven fleet swaps replay like their single-dispatcher
counterpart: ``registry_root`` names the original checkpoint registry
and every logged swap's version and weights digest is checked against
it before anything runs.  Fleet *retraining* phases (the observe pass of
:class:`~repro.fleet.FleetRetrainController`) log no swaps and replay as
plain runs; the final audited pass is schedule-driven and replays here.
"""

from __future__ import annotations

from pathlib import Path

from repro.fleet.config import FleetConfig
from repro.fleet.controller import FleetController, FleetStats
from repro.monitor.replay import TraceReplay, swap_schedule
from repro.serve.dispatcher import Outage

__all__ = ["FleetReplay"]


def _load_shard(path: "str | Path") -> "tuple[dict, TraceReplay]":
    """Parse one shard log into ``(fleet_params, TraceReplay)``.

    Goes through the shared :meth:`TraceReplay.parse`, which unlike
    :meth:`TraceReplay.from_log` tolerates a shard that routed zero
    arrivals — an empty sub-stream is a legitimate slice of a fleet run
    (the merged replay re-routes it to emptiness again).
    """
    replay = TraceReplay.parse(path)
    fleet = replay.meta.get("fleet")
    if not isinstance(fleet, dict):
        raise ValueError(
            f"{path}: meta header has no 'fleet' parameter dict — was this "
            "log written by FleetController.run(telemetry=...)?")
    if replay.params.get("shard") is None:
        raise ValueError(f"{path}: serve params carry no shard identity")
    return fleet, replay


class FleetReplay:
    """Reconstruct and re-drive one fleet run from its per-shard logs."""

    def __init__(self, fleet_params: dict,
                 shards: "dict[int, TraceReplay]") -> None:
        self.fleet_params = dict(fleet_params)
        self.config = FleetConfig.from_params(self.fleet_params)
        self.shards = dict(shards)
        if set(self.shards) != set(range(self.config.n_shards)):
            raise ValueError(
                f"fleet of {self.config.n_shards} shards needs logs for "
                f"shards {sorted(range(self.config.n_shards))}, "
                f"got {sorted(self.shards)}")

    @classmethod
    def from_logs(cls, paths) -> "FleetReplay":
        """Assemble a fleet replay from one log per shard.

        Every log must carry the *same* fleet parameter dict (they all
        describe the one run) and together the shard identities must
        cover ``0..n_shards-1`` exactly.
        """
        if not paths:
            raise ValueError("no shard logs given")
        fleet_params = None
        shards: "dict[int, TraceReplay]" = {}
        for path in paths:
            fleet, replay = _load_shard(path)
            if fleet_params is None:
                fleet_params = fleet
            elif fleet != fleet_params:
                raise ValueError(
                    f"{path}: fleet params differ from the other shard logs "
                    "— these logs are not from one fleet run")
            shard = int(replay.params["shard"])
            if shard in shards:
                raise ValueError(f"{path}: duplicate log for shard {shard}")
            shards[shard] = replay
        return cls(fleet_params, shards)

    # ------------------------------------------------------------------ #

    def merged_arrivals(self) -> "list[tuple[float, int]]":
        """The fleet admission stream, recovered exactly from the shards."""
        merged = [pair for replay in self.shards.values()
                  for pair in replay.arrivals]
        merged.sort(key=lambda p: (p[0], p[1]))
        return merged

    def merged_outages(self) -> "list[Outage]":
        """The outage schedule, de-duplicated across shards.

        Replicated partitions deliver each outage to every shard, so the
        logs repeat them; identity is ``(cluster_id, start, end)``.
        """
        seen = set()
        merged: "list[Outage]" = []
        for replay in self.shards.values():
            for o in replay.outages:
                key = (o.cluster_id, o.start, o.end)
                if key not in seen:
                    seen.add(key)
                    merged.append(o)
        merged.sort(key=lambda o: (o.start, o.cluster_id, o.end))
        return merged

    def stitched_journeys(self) -> "dict[str, list[dict]]":
        """All task journeys reassembled across the shard logs.

        Events are stamped with the emitting shard; each journey must
        live in exactly one shard's log (:meth:`verify` flags traces
        the routing layer double-delivered).
        """
        merged: "dict[str, list[dict]]" = {}
        for sid in sorted(self.shards):
            replay = self.shards[sid]
            from repro.telemetry.journey import journeys_from_events

            for trace, evs in journeys_from_events(
                    replay._journey_events, shard=str(sid)).items():
                merged.setdefault(trace, []).extend(evs)
        return merged

    def audit_journeys(self) -> "list[str]":
        """Fleet-level causality audit over the stitched journeys.

        Per-shard conservation runs inside each shard's
        :meth:`TraceReplay.audit_journeys` (invoked from
        :meth:`verify`); this pass checks the cross-shard layer: every
        journey reassembles losslessly from exactly one shard log, and
        the stitched set passes the state-machine and monotonicity
        checks with the shard stamps attached.
        """
        from repro.telemetry.journey import audit_journeys

        return audit_journeys(self.stitched_journeys(), expect=None)

    def fleet_swaps(self) -> "list[dict]":
        """The common logged swap sequence, verified shard-consistent."""
        def essence(swaps):
            return [(int(ev["window"]), str(ev["version"]), ev.get("digest"))
                    for ev in swaps]

        reference = self.shards[0].swaps
        for sid in range(1, self.config.n_shards):
            if essence(self.shards[sid].swaps) != essence(reference):
                raise ValueError(
                    f"logged swap divergence between shard 0 and shard {sid} "
                    "— these logs do not describe one fleet-wide swap")
        return reference

    def replay(self, *, registry_root: "str | None" = None,
               stack=None) -> FleetStats:
        """Re-drive the whole fleet over the merged logged stream.

        Swapped runs need ``registry_root`` (the original registry);
        every logged swap's version must exist there with the logged
        weights digest — checked *before* the replay runs.  ``stack``
        accepts a prebuilt :func:`repro.serve.build_stack` result so
        tests replaying one fleet repeatedly train the predictor once.
        """
        registry, schedule = swap_schedule(self.fleet_swaps(), registry_root)
        controller = FleetController(self.config, stack=stack)
        pool = controller.pool
        events = [(t, pool[tid]) for t, tid in self.merged_arrivals()]
        return controller.run(events, outages=self.merged_outages() or None,
                              swap_schedule=schedule, registry=registry)

    def verify(self, stats: FleetStats) -> "list[str]":
        """Mismatches between a fleet replay and the logged run.

        Three layers: each shard's counters/swaps against its own log,
        routing determinism (replayed per-shard routes must equal the
        logged per-shard arrival streams — same tasks, same hours, same
        shard), and fleet-level conservation.  Empty list = exact
        reproduction.
        """
        problems: "list[str]" = []
        if stats.n_shards != self.config.n_shards:
            return [f"shard count: replay {stats.n_shards} != "
                    f"logged {self.config.n_shards}"]
        for sid in range(self.config.n_shards):
            for problem in self.shards[sid].verify(stats.per_shard[sid]):
                problems.append(f"shard {sid}: {problem}")
            if stats.routes[sid] != self.shards[sid].arrivals:
                problems.append(
                    f"shard {sid}: routing diverged — replay routed "
                    f"{len(stats.routes[sid])} arrivals, log shows "
                    f"{len(self.shards[sid].arrivals)} (or different tasks)")
        if not stats.conserved:
            problems.append("fleet conservation identity violated in replay")
        if any(replay._journey_events for replay in self.shards.values()):
            problems.extend(self.audit_journeys())
        return problems
