"""Deterministic trace replay from JSONL serving run logs.

A ``repro serve run --telemetry jsonl`` run leaves breadcrumb event
streams in its log — ``serve/arrival`` (exact arrival hour + task id),
``serve/outage`` (the outage schedule), ``serve/hot_swap`` (every
applied checkpoint swap with its deterministic weights digest) and
``serve/run_stats`` (the final counters) — plus a ``serve`` parameter
dict in the meta header (a serialized :class:`repro.serve.ServeConfig`).
Together with the repo-wide determinism conventions that is a *complete*
description of the run:

- :class:`repro.workloads.TaskPool` is a pure function of
  ``(pool_size, seed)``, so a logged ``task_id`` inverts back to the
  exact :class:`Task` object;
- ``json.dumps``/``json.loads`` round-trip Python floats exactly, so
  replayed arrival times are bit-identical to the original draw;
- the dispatcher consumes randomness only through its own generator
  (seeded ``seed + 4`` by the serve-seed convention), and its trace is
  simulated-time only;
- the closed retraining loop (:mod:`repro.retrain`) is itself a pure
  function of the snapshot stream and its config seed, so a
  retrain-triggered hot-swap is *reproducible*: the replay re-runs the
  whole drift → refit → canary → swap cascade from scratch (against a
  scratch registry) and must regenerate checkpoints with the **same
  weights digests** at the **same windows** — which :meth:`TraceReplay.
  verify` checks against the logged breadcrumbs.  Only runs whose swaps
  came from an *external* ``swap_schedule`` need more than the log: the
  original registry their checkpoints live in.

A fleet run (``FleetController.run(..., telemetry="jsonl")``) leaves one
such log per shard, each carrying the fleet parameters in
``meta["fleet"]``.  Given the whole shard set, the per-shard arrival
streams merge (sorted by ``(hour, task_id)``; routing partitioned them,
so the merge is exact), the fleet — router included — re-drives through
:class:`repro.fleet.FleetController`, and :meth:`TraceReplay.verify`
adds routing determinism, fleet conservation and the stitched-journey
audit to every shard's own checks.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from pathlib import Path

from repro.fleet.config import FleetConfig
from repro.fleet.controller import FleetController, common_swaps
from repro.serve.config import ServeConfig
from repro.serve.dispatcher import RUN_STAT_FIELDS, Dispatcher, Outage, ServeCallback
from repro.serve.registry import ModelRegistry
from repro.telemetry.jsonl import load_run, meta_of, shard_of
from repro.workloads.taskpool import Task, TaskPool

__all__ = ["TraceReplay", "swap_schedule"]

def swap_schedule(swaps: "list[dict]", registry_root: "str | None"):
    """``(registry, {window: version})`` rebuilt from logged swap breadcrumbs.

    Schedule-driven hot-swaps replay against the *original* checkpoint
    registry (or a copy): every logged version must exist there with the
    logged weights digest, checked before any replay runs — a registry
    whose checkpoints were retrained since the run fails fast instead of
    silently replaying different weights.  ``(None, None)`` for a
    swap-free log.
    """
    if not swaps:
        return None, None
    if registry_root is None:
        raise ValueError(
            "logged hot-swaps need the original checkpoint registry to "
            "replay against — pass replay(registry_root=...) pointing at it"
        )
    registry = ModelRegistry(registry_root)
    schedule: "dict[int, str]" = {}
    for ev in swaps:
        version = str(ev["version"])
        if version not in registry:
            raise ValueError(
                f"logged swap @window {ev.get('window')} names version "
                f"{version!r}, not present in registry {registry_root}"
            )
        logged = ev.get("digest")
        stored = registry.info(version).digest
        if logged is not None and stored != logged:
            raise ValueError(
                f"registry {registry_root} version {version} digest "
                f"{stored!r} does not match the logged swap digest "
                f"{logged!r} — checkpoint changed since the run"
            )
        schedule[int(ev["window"])] = version
    return registry, schedule


class TraceReplay:
    """Reconstruct and re-drive one serving run — one dispatcher's log, or
    every shard log of one fleet run."""

    def __init__(self, params: dict, arrivals: "list[tuple[float, int]]",
                 outages: "list[Outage]", run_stats: "dict | None",
                 meta: "dict | None" = None) -> None:
        self.params = dict(params)
        self.config = ServeConfig.from_params(self.params)
        self.arrivals = list(arrivals)  # (hour, task_id) in log order
        self.outages = list(outages)
        self.run_stats = dict(run_stats) if run_stats else None
        self.meta = dict(meta or {})
        self._swaps: "list[dict]" = []
        #: Raw ``journey`` event lines from the log (empty for
        #: journey-free runs).  Grouped on demand by :meth:`journeys`.
        self._journey_events: "list[dict]" = []
        #: A fleet's one-log replays by shard id, and the fleet's
        #: config; ``{}`` and ``None`` for one dispatcher's log.
        self.shards: "dict[int, TraceReplay]" = {}
        self.fleet: "FleetConfig | None" = None

    @classmethod
    def _parse(cls, path: "str | Path") -> "TraceReplay":
        """One run log's meta header and breadcrumb streams.

        Accepts a log with no arrivals (a shard that routed none is a
        legitimate slice of a fleet run); raises ``ValueError`` when the
        meta header is not a serving run's.
        """
        events = load_run(path)
        meta = meta_of(events)
        params = meta.get("serve")
        if not isinstance(params, dict):
            raise ValueError(
                f"{path}: meta header has no 'serve' parameter dict — "
                "was this log written by 'repro serve run --telemetry jsonl'?"
            )
        arrivals: "list[tuple[float, int]]" = []
        outages: "list[Outage]" = []
        run_stats = None
        swaps = []
        journey_events: "list[dict]" = []
        for ev in events:
            if ev.get("type") != "event":
                continue
            name = ev.get("name")
            if name == "serve/arrival":
                arrivals.append((float(ev["t"]), int(ev["task_id"])))
            elif name == "serve/outage":
                outages.append(Outage(cluster_id=int(ev["cluster_id"]),
                                      start=float(ev["start"]),
                                      end=float(ev["end"])))
            elif name == "serve/run_stats":
                run_stats = {k: ev[k] for k in RUN_STAT_FIELDS if k in ev}
            elif name == "serve/hot_swap":
                swaps.append(ev)
            elif name == "journey":
                journey_events.append(ev)
        try:
            replay = cls(params, arrivals, outages, run_stats, meta)
        except ValueError as exc:  # e.g. a serve param every writer writes is missing
            raise ValueError(f"{path}: {exc}") from exc
        replay._swaps = swaps
        replay._journey_events = journey_events
        return replay

    @classmethod
    def from_logs(cls, paths) -> "TraceReplay":
        """Parse one run log, or every shard log of one fleet run.

        One log replays as its dispatcher's run (a lone shard log of a
        fleet included) and must carry ``serve/arrival`` events.  Two or
        more must be one fleet's complete shard set: the same
        ``meta["fleet"]`` on every log and exactly one log per shard
        ``0..n_shards-1``.  Raises ``ValueError`` when the log(s) cannot
        be replayed.
        """
        paths = list(paths)
        if not paths:
            raise ValueError("no run logs given")
        logs = [cls._parse(path) for path in paths]
        if len(logs) == 1:
            if not logs[0].arrivals:
                raise ValueError(
                    f"{paths[0]}: no serve/arrival events — nothing to replay")
            return logs[0]
        fleet_params = logs[0].meta.get("fleet")
        shards: "dict[int, TraceReplay]" = {}
        for path, log in zip(paths, logs):
            if not isinstance(log.meta.get("fleet"), dict):
                raise ValueError(
                    f"{path}: meta header has no 'fleet' parameter dict — was "
                    "this log written by FleetController.run(telemetry=...)?")
            if log.meta["fleet"] != fleet_params:
                raise ValueError(
                    f"{path}: fleet params differ from the other shard logs "
                    "— these logs are not from one fleet run")
            shard = shard_of(log.meta)
            if shard is None:
                raise ValueError(f"{path}: serve params carry no shard identity")
            if int(shard) in shards:
                raise ValueError(f"{path}: duplicate log for shard {shard}")
            shards[int(shard)] = log
        fleet = FleetConfig.from_params(fleet_params)
        if set(shards) != set(range(fleet.n_shards)):
            raise ValueError(
                f"fleet of {fleet.n_shards} shards needs logs for shards "
                f"{list(range(fleet.n_shards))}, got {sorted(shards)}")
        shards = dict(sorted(shards.items()))
        # Replicated partitions deliver each outage to every shard, so
        # the logs repeat them; identity is (cluster_id, start, end).
        outages = sorted({o for log in shards.values() for o in log.outages},
                         key=lambda o: (o.start, o.cluster_id, o.end))
        replay = cls(fleet.serve.to_params(),
                     sorted(p for log in shards.values() for p in log.arrivals),
                     outages, None, {"fleet": fleet_params})
        replay.shards, replay.fleet = shards, fleet
        replay._swaps = common_swaps([log._swaps for log in shards.values()])
        return replay

    # ------------------------------------------------------------------ #

    @property
    def swaps(self) -> "list[dict]":
        """Logged ``serve/hot_swap`` breadcrumbs, in application order."""
        return list(self._swaps)

    @property
    def journey_sample(self) -> float:
        """The run's journey sampling fraction (0.0 for journey-free logs)."""
        return float(self.params.get("journey_sample", 0.0))

    def journeys(self) -> "dict[str, list[dict]]":
        """Logged task journeys grouped by trace ID, in causal order.

        A fleet's are stitched across its shard logs, every event
        stamped with the shard that logged it.
        """
        from repro.telemetry.journey import journeys_from_events, stitch_journeys

        if not self.shards:
            return journeys_from_events(self._journey_events)
        return stitch_journeys([[log.meta, *log._journey_events]
                                for log in self.shards.values()])

    def audit_journeys(self) -> "list[str]":
        """Causality audit of the logged journeys (empty = clean).

        State-machine transitions, monotone timestamps and trace-ID
        integrity always; for one dispatcher at sampling fraction 1.0
        additionally the conservation layer against the logged
        ``serve/run_stats`` — every admitted task reaches exactly one
        terminal state and the terminal counts match the run's counters
        exactly.  For a fleet the stitched journeys must each come from
        exactly one shard log (conservation runs per shard, in
        :meth:`verify`).
        """
        from repro.telemetry.journey import audit_journeys

        return audit_journeys(self.journeys(), expect=self.run_stats,
                              sample=self.journey_sample)

    def events(self, pool: TaskPool) -> "list[tuple[float, Task]]":
        """The logged arrivals resolved against a reconstructed pool."""
        return [(t, pool[tid]) for t, tid in self.arrivals]

    def replay(
        self,
        *,
        callbacks: "list[ServeCallback] | None" = None,
        stack=None,
        registry_root: "str | None" = None,
    ):
        """Re-drive the dispatcher — or the whole fleet — over the logged arrivals.

        Runs with a retrain section rebuild the *entire* closed loop —
        monitor, controller, and a scratch checkpoint registry (a
        temporary directory unless ``registry_root`` is given; retrain
        runs start from an empty registry, so a scratch root regenerates
        the same version sequence) — and the retrain cascade re-fires
        during the replay.  Plain runs rebuild only the dispatcher.

        Hot-swaps logged *without* a retrain section came from an
        external ``swap_schedule`` whose checkpoints the log does not
        carry.  For those, ``registry_root`` names the *original*
        registry (or a copy); :func:`swap_schedule` checks it against
        the logged breadcrumbs and the replay re-applies the same swaps
        at the same windows — on every shard, for a fleet.

        A fleet re-drives through :class:`repro.fleet.FleetController`
        and returns its :class:`repro.fleet.FleetStats`; ``callbacks``
        observe one dispatcher, so a fleet refuses them.  ``stack``
        accepts a prebuilt :func:`repro.serve.build_stack` result so
        tests replaying one log several times train the predictor once.
        """
        from repro.serve.config import build_platform, build_stack

        if self.shards:
            if callbacks:
                raise ValueError("callbacks observe one dispatcher — replay "
                                 "a single log to attach a monitor")
            registry, schedule = swap_schedule(self._swaps, registry_root)
            controller = FleetController(self.fleet, stack=stack)
            return controller.run(self.events(controller.pool),
                                  outages=self.outages or None,
                                  swap_schedule=schedule, registry=registry)
        if self.config.retrain is not None:
            scratch = (tempfile.TemporaryDirectory(prefix="replay-registry-")
                       if registry_root is None else nullcontext(registry_root))
            with scratch as root:
                platform = build_platform(self.config, stack=stack, registry_root=root)
                platform.dispatcher.callbacks.extend(callbacks or ())
                return platform.run(self.events(platform.pool),
                                    outages=self.outages)
        registry, schedule = swap_schedule(self._swaps, registry_root)
        pool, clusters, method, spec, config = stack or build_stack(self.config)
        dispatcher = Dispatcher(clusters, method, spec, config,
                                registry=registry, swap_schedule=schedule,
                                callbacks=callbacks)
        return dispatcher.run(self.events(pool), rng=self.config.seed + 4,
                              outages=self.outages or None)

    def verify(self, stats) -> "list[str]":
        """Mismatches between a replay's stats and the logged run's.

        Beyond the counter/conservation checks, every applied hot-swap
        is compared against the logged breadcrumbs: same window, same
        version, same weights digest, same reason — i.e. the replayed
        retraining loop regenerated byte-identical checkpoints.  Logs
        with journeys additionally pass the causality audit
        (:meth:`audit_journeys`).  A fleet runs those checks per shard
        against each shard's own log, then routing determinism (the
        replayed router must send exactly the logged arrival sub-stream
        to every shard) and fleet conservation.  Empty list = exact
        reproduction.
        """
        problems: "list[str]" = []
        if self.shards:
            if stats.n_shards != self.fleet.n_shards:
                return [f"shard count: replay {stats.n_shards} != "
                        f"logged {self.fleet.n_shards}"]
            for sid, log in self.shards.items():
                problems.extend(f"shard {sid}: {problem}"
                                for problem in log.verify(stats.per_shard[sid]))
                if stats.routes[sid] != log.arrivals:
                    problems.append(
                        f"shard {sid}: routing diverged — replay routed "
                        f"{len(stats.routes[sid])} arrivals, log shows "
                        f"{len(log.arrivals)} (or different tasks)")
            if not stats.conserved:
                problems.append("fleet conservation identity violated in replay")
            if any(log._journey_events for log in self.shards.values()):
                problems.extend(self.audit_journeys())
            return problems
        if not stats.conserved:
            problems.append("conservation identity violated in replay")
        if self._journey_events:
            problems.extend(self.audit_journeys())
        if self.run_stats is None:
            problems.append("log has no serve/run_stats event to verify against")
        else:
            for name in RUN_STAT_FIELDS:
                if name not in self.run_stats:
                    continue
                got, want = getattr(stats, name), self.run_stats[name]
                if got != want:
                    problems.append(f"{name}: replay {got} != logged {want}")
        if len(stats.swap_events) != len(self._swaps):
            problems.append(
                f"swap count: replay {len(stats.swap_events)} != "
                f"logged {len(self._swaps)}")
        else:
            for got, want in zip(stats.swap_events, self._swaps):
                for key in ("window", "version", "digest", "reason"):
                    if key in want and got.get(key) != want[key]:
                        problems.append(
                            f"swap @window {want.get('window')}: {key} "
                            f"replay {got.get(key)!r} != logged {want[key]!r}")
        return problems
