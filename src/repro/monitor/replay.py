"""Deterministic trace replay from a JSONL serving run log.

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
  came from an *external* ``swap_schedule`` remain non-replayable: their
  checkpoints live outside the log.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from pathlib import Path

from repro.serve.config import ServeConfig
from repro.serve.config import build_platform as _build_platform
from repro.serve.config import build_stack as _build_stack
from repro.serve.dispatcher import (
    RUN_STAT_FIELDS,
    Dispatcher,
    Outage,
    ServeCallback,
    ServeStats,
)
from repro.serve.registry import ModelRegistry
from repro.telemetry.jsonl import load_run, meta_of
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
    """Reconstruct and re-drive one serving run from its JSONL log."""

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

    @classmethod
    def parse(cls, path: "str | Path") -> "TraceReplay":
        """Parse one run log's meta header and breadcrumb streams.

        The one run-log parser: :meth:`from_log` adds the "has arrivals"
        requirement on top, :class:`repro.fleet.FleetReplay` loads every
        shard log through it as is (a shard that routed zero arrivals is
        a legitimate slice of a fleet run).  Raises ``ValueError`` when
        the meta header is not a serving run's.
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
    def from_log(cls, path: "str | Path") -> "TraceReplay":
        """Parse a run log; raises ``ValueError`` when it is not replayable."""
        replay = cls.parse(path)
        if not replay.arrivals:
            raise ValueError(f"{path}: no serve/arrival events — nothing to replay")
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
        """Logged task journeys grouped by trace ID, in causal order."""
        from repro.telemetry.journey import journeys_from_events

        return journeys_from_events(self._journey_events)

    def audit_journeys(self) -> "list[str]":
        """Causality audit of the logged journeys (empty = clean).

        State-machine transitions, monotone timestamps and trace-ID
        integrity always; at sampling fraction 1.0 additionally the
        conservation layer against the logged ``serve/run_stats`` —
        every admitted task reaches exactly one terminal state and the
        terminal counts match the run's counters exactly.
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
    ) -> ServeStats:
        """Re-drive the dispatcher over the logged arrivals.

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
        at the same windows.  Without ``registry_root`` such logs remain
        non-replayable.

        ``stack`` accepts a prebuilt :func:`repro.serve.build_stack`
        result so tests replaying one log several times train the
        predictor once.
        """
        if self.config.retrain is not None:
            scratch = (tempfile.TemporaryDirectory(prefix="replay-registry-")
                       if registry_root is None else nullcontext(registry_root))
            with scratch as root:
                platform = _build_platform(self.config, stack=stack, registry_root=root)
                return self._drive(platform.dispatcher, platform.pool,
                                   list(callbacks or ()))
        registry, schedule = swap_schedule(self._swaps, registry_root)
        pool, clusters, method, spec, config = stack or _build_stack(self.config)
        dispatcher = Dispatcher(clusters, method, spec, config,
                                registry=registry, swap_schedule=schedule,
                                callbacks=callbacks)
        return self._drive(dispatcher, pool, [])

    def _drive(self, dispatcher: Dispatcher, pool: TaskPool,
               extra_callbacks: "list[ServeCallback]") -> ServeStats:
        for cb in extra_callbacks:
            dispatcher.callbacks.append(cb)
        return dispatcher.run(self.events(pool), rng=self.config.seed + 4,
                              outages=self.outages or None)

    def verify(self, stats: ServeStats) -> "list[str]":
        """Mismatches between a replay's stats and the logged run's.

        Beyond the counter/conservation checks, every applied hot-swap
        is compared against the logged breadcrumbs: same window, same
        version, same weights digest, same reason — i.e. the replayed
        retraining loop regenerated byte-identical checkpoints.  Logs
        with journeys additionally pass the causality audit
        (:meth:`audit_journeys`).  Empty list = exact reproduction.
        """
        problems: "list[str]" = []
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
