"""Per-task distributed tracing: journeys, stitching, audit, exemplars.

All observability so far is *aggregate* — per-window latency budgets
(:mod:`repro.telemetry.profiler`), per-run counters and histograms
(:mod:`repro.telemetry.registry`).  This module adds the per-task layer:
one **journey** per logical task, a causally ordered list of events
covering every decision the platform takes about it — fleet routing
(ring home vs. failover vs. load-aware pick), admission or shed,
queue wait, window membership and seed source, schedule/commit,
execution outcome or orphan re-queue, and label harvest into the
retraining buffer.  See DESIGN.md §16.

Design invariants:

- **Deterministic trace IDs.**  A journey is keyed by the task's logical
  arrival identity ``(task_id, arrival_hour)`` — the same key the
  :class:`repro.retrain.buffer.ReplayBuffer` uses for labels — hashed to
  a 16-hex trace ID.  An original run and its replay produce identical
  IDs (floats round-trip exactly through JSON).
- **No randomness, no trace perturbation.**  The sampling decision is a
  pure hash fraction of the trace ID; journeys never touch the
  dispatcher RNG or :meth:`ServeStats.trace_bytes`, so journeys-off runs
  are byte-identical and journeys-on runs differ only in telemetry.
- **Contiguous flush.**  Events buffer in memory per journey and flush
  to the active recorder as one contiguous block when the journey
  reaches a terminal state.  Shed, orphan-requeued and SLO-violating
  (long-wait) journeys are *always* flushed regardless of the sampling
  fraction — the tails are the journeys worth explaining.
- **Auditable.**  :func:`audit_journeys` checks each journey against the
  state machine in :data:`TRANSITIONS`, monotone timestamps, and (at
  sampling fraction 1.0) conservation against the run's final counters:
  every admitted task reaches exactly one terminal state.

Journey events ride the normal JSONL event stream as
``{"type": "event", "name": "journey", "trace": ..., "state": ...}``
lines.  Wait-bucket **exemplars** link the p95/p99 tail of the
queue-wait distribution to concrete trace IDs; they are summarized in a
single ``journey_exemplars`` event at end of run and surfaced by
``repro serve top`` and the ``/snapshot`` endpoint.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping

__all__ = [
    "JOURNEY_EVENT",
    "EXEMPLAR_EVENT",
    "STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "WAIT_BUCKETS_H",
    "trace_id",
    "journey_sampled",
    "JourneyRecorder",
    "journeys_from_events",
    "stitch_journeys",
    "audit_journeys",
    "merge_exemplar_payloads",
    "render_waterfall",
]

#: Event name journeys are recorded under in the JSONL stream.
JOURNEY_EVENT = "journey"
#: End-of-run summary event carrying the wait-bucket exemplar table.
EXEMPLAR_EVENT = "journey_exemplars"

#: Valid successor states.  ``""`` is the start marker: a journey opens
#: with the fleet router's pick (``routed``) or, in a single-dispatcher
#: run, directly with admission (or an at-capacity reject ``shed``).
TRANSITIONS: "dict[str, tuple[str, ...]]" = {
    "": ("routed", "admitted", "shed"),
    "routed": ("admitted", "shed"),
    # ``admitted -> shed`` is the drop_oldest eviction; ``-> unserved``
    # a queue stranded by a full-horizon outage.
    "admitted": ("dispatched", "shed", "unserved"),
    "dispatched": ("scheduled",),
    "scheduled": ("harvested", "requeued", "completed", "failed"),
    "harvested": ("requeued", "completed", "failed"),
    "requeued": ("dispatched", "unserved"),
    "shed": (),
    "completed": (),
    "failed": (),
    "unserved": (),
}

STATES: "tuple[str, ...]" = tuple(s for s in TRANSITIONS if s)
#: States a journey ends in (exactly one per journey, as the last event).
TERMINAL_STATES = frozenset(s for s, nxt in TRANSITIONS.items() if s and not nxt)

#: Queue-wait exemplar bucket bounds, in platform hours.  The last
#: bucket is the implicit ``+Inf`` overflow.
WAIT_BUCKETS_H: "tuple[float, ...]" = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


def trace_id(task_id: int, arrival: float) -> str:
    """Deterministic 16-hex trace ID of one logical task arrival.

    Keyed exactly like replay-buffer labels: ``(task_id, arrival)``.
    ``repr`` round-trips floats exactly, so a replayed run regenerates
    identical IDs from its logged arrival breadcrumbs.
    """
    key = f"{int(task_id)}@{float(arrival)!r}".encode()
    return hashlib.sha256(key).hexdigest()[:16]


def journey_sampled(trace: str, fraction: float) -> bool:
    """Pure hash-fraction sampling decision (no RNG ever).

    The first 8 hex digits of the trace ID, scaled to ``[0, 1)``,
    compared against ``fraction`` — deterministic per task, uniform
    across tasks, identical between a run and its replay.
    """
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    return int(trace[:8], 16) / float(1 << 32) < fraction


def _bucket_index(wait_hours: float) -> int:
    for i, bound in enumerate(WAIT_BUCKETS_H):
        if wait_hours <= bound:
            return i
    return len(WAIT_BUCKETS_H)


def _bucket_le(index: int) -> "float | str":
    return WAIT_BUCKETS_H[index] if index < len(WAIT_BUCKETS_H) else "+Inf"


class JourneyRecorder:
    """Buffers journey events per task and flushes terminal journeys.

    One instance per dispatcher run.  Call sites pay one attribute read
    plus an ``is not None`` check when journeys are off (the dispatcher
    holds ``None`` instead of an instance — the ``NullRecorder`` idiom).

    ``sample`` is the kept fraction for uneventful journeys; shed,
    requeued and long-wait (``wait >= slo_wait_hours``) journeys are
    always kept.  Flushed journeys go to the active recorder's events;
    :func:`journeys_from_events` groups them back by trace.
    """

    def __init__(self, sample: float, *, slo_wait_hours: float = 1.0) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"journey sample must be in [0, 1], got {sample}")
        if slo_wait_hours <= 0:
            raise ValueError("slo_wait_hours must be positive")
        self.sample = float(sample)
        self.slo_wait_hours = float(slo_wait_hours)
        #: journey key -> buffered event dicts (insertion order = causal
        #: order; the dispatcher only ever appends forward in time).
        self._pending: "dict[tuple[int, float], list[dict]]" = {}
        #: journey key -> True once a forced-keep condition was seen.
        self._forced: "set[tuple[int, float]]" = set()
        #: journey key -> max queue wait observed at dispatch (hours).
        self._max_wait: "dict[tuple[int, float], float]" = {}
        #: wait-bucket exemplars: index -> {"count", "trace", ...}.
        self._exemplars: "dict[int, dict]" = {}
        # Hook-call counter for the overhead gate (mirrors
        # ``StageProfiler.events_recorded``).
        self.events_recorded = 0
        self.journeys_emitted = 0
        self.journeys_sampled_out = 0
        self.journeys_forced = 0

    # ------------------------------------------------------------------ #

    def record(self, task_id: int, arrival: float, state: str, t: float,
               **fields: Any) -> None:
        """Append one journey event; flushes if ``state`` is terminal."""
        self.events_recorded += 1
        key = (int(task_id), float(arrival))
        events = self._pending.get(key)
        if events is None:
            events = self._pending[key] = []
            trace = trace_id(*key)
        else:  # the ID is a function of the key: hash it once per journey
            trace = events[0]["trace"]
        ev = {"trace": trace, "task_id": key[0], "arrival": key[1], "state": state,
              "t": float(t)}
        ev.update({k: v for k, v in fields.items() if v is not None})
        events.append(ev)
        if state in ("shed", "requeued", "unserved"):
            # Shed tasks (rejects and drop_oldest evictions), requeued
            # orphans and stranded queues are always kept — the journeys
            # worth explaining never fall to sampling.
            self._forced.add(key)
        if state == "dispatched" and "wait_hours" in fields:
            wait = float(fields["wait_hours"])
            prev = self._max_wait.get(key, 0.0)
            if wait > prev:
                self._max_wait[key] = wait
            if wait >= self.slo_wait_hours:
                self._forced.add(key)
        if state in TERMINAL_STATES:
            self._flush(key)

    def _flush(self, key: "tuple[int, float]") -> None:
        events = self._pending.pop(key, None)
        if not events:
            return
        trace = events[0]["trace"]
        forced = key in self._forced
        self._forced.discard(key)
        wait = self._max_wait.pop(key, None)
        if not forced and not journey_sampled(trace, self.sample):
            self.journeys_sampled_out += 1
            return
        if forced:
            self.journeys_forced += 1
        self.journeys_emitted += 1
        if wait is not None:
            self._note_exemplar(trace, events[0]["task_id"], wait)
        from repro.telemetry.recorder import get_recorder

        rec = get_recorder()
        if rec.enabled:
            for ev in events:
                rec.event(JOURNEY_EVENT, **ev)

    def _note_exemplar(self, trace: str, task_id: int, wait: float) -> None:
        """Track the worst kept journey per wait bucket.

        Committed at flush time, so every exemplar's trace ID resolves
        to a journey actually present in the run log.
        """
        idx = _bucket_index(wait)
        cur = self._exemplars.get(idx)
        if cur is None:
            self._exemplars[idx] = {"count": 1, "trace": trace,
                                    "task_id": task_id, "wait_hours": wait}
        else:
            cur["count"] += 1
            if wait > cur["wait_hours"]:
                cur.update(trace=trace, task_id=task_id, wait_hours=wait)

    # ------------------------------------------------------------------ #

    def exemplars(self) -> "list[dict]":
        """The wait-bucket exemplar table, sorted by bucket bound."""
        return [
            {"le": _bucket_le(idx), **self._exemplars[idx]}
            for idx in sorted(self._exemplars)
        ]

    def exemplar_payload(self) -> dict:
        """Summary payload (the ``journey_exemplars`` event's fields)."""
        return {
            "sample": self.sample,
            "slo_wait_hours": self.slo_wait_hours,
            "emitted": self.journeys_emitted,
            "sampled_out": self.journeys_sampled_out,
            "forced": self.journeys_forced,
            "buckets": self.exemplars(),
        }

    def finish(self) -> dict:
        """End of run: flush any residue and emit the exemplar summary.

        The dispatcher terminalizes every journey before calling this
        (queued leftovers become ``unserved``); residue here would be a
        conservation bug, so it is flushed force-kept for the auditor to
        flag rather than silently discarded.
        """
        for key in list(self._pending):
            self._forced.add(key)
            self._flush(key)
        payload = self.exemplar_payload()
        from repro.telemetry.recorder import get_recorder

        rec = get_recorder()
        if rec.enabled:
            rec.event(EXEMPLAR_EVENT, **payload)
        return payload


# --------------------------------------------------------------------- #
# Stitching: journeys back out of run logs.
# --------------------------------------------------------------------- #


def journeys_from_events(events: "Iterable[Mapping]",
                         shard: "str | None" = None,
                         ) -> "dict[str, list[dict]]":
    """Group one log's ``journey`` events by trace ID, in file order.

    The recorder preserves emission order and journeys flush
    contiguously, so per-trace file order *is* causal order.  ``shard``
    stamps each event with the emitting shard (used by the cross-shard
    stitcher; single-run callers omit it).
    """
    out: "dict[str, list[dict]]" = {}
    for ev in events:
        if ev.get("type") != "event" or ev.get("name") != JOURNEY_EVENT:
            continue
        e = {k: v for k, v in ev.items() if k not in ("type", "name", "seq")}
        if shard is not None:
            e.setdefault("shard", shard)
        out.setdefault(str(e.get("trace")), []).append(e)
    return out


def stitch_journeys(runs) -> "dict[str, list[dict]]":
    """Reassemble task journeys from per-shard run logs.

    ``runs`` are loaded event lists, meta header first
    (:func:`repro.telemetry.jsonl.load_run`).  Each journey lives in
    exactly one shard's log (the shard that served the task — its
    ``routed`` event records the ring *home*, which may differ under
    failover).  Events are stamped with the emitting shard's identity
    from the log's meta header.  A trace appearing in several logs is
    kept concatenated (log order per shard) so :func:`audit_journeys`
    flags the duplication instead of hiding it.
    """
    from repro.telemetry.jsonl import meta_of, shard_of

    merged: "dict[str, list[dict]]" = {}
    for events in runs:
        for trace, evs in journeys_from_events(
                events, shard=shard_of(meta_of(events))).items():
            merged.setdefault(trace, []).extend(evs)
    return merged


# --------------------------------------------------------------------- #
# Causality audit.
# --------------------------------------------------------------------- #


def audit_journeys(journeys: "Mapping[str, list[dict]]", *,
                   expect: "Mapping[str, Any] | None" = None,
                   sample: float = 1.0) -> "list[str]":
    """Audit journeys; returns problem strings (empty = clean).

    Per journey: known states, transitions valid per
    :data:`TRANSITIONS`, timestamps non-decreasing, a consistent
    ``(task_id, arrival)`` identity matching the trace ID, exactly one
    terminal state and it is the final event, and (stitched input) all
    events from one shard.

    ``expect`` — a ``serve/run_stats``-shaped mapping — enables the
    conservation layer when ``sample >= 1``: one journey per arrival;
    terminal-state counts equal to the run's shed/completed/failed/
    unserved counters; dispatch and requeue event totals equal to
    ``matched`` and ``requeued``.  Under partial sampling only the
    per-journey checks run (the flushed subset is not a census).
    """
    problems: "list[str]" = []
    terminals = {s: 0 for s in TERMINAL_STATES}
    dispatched = requeued = admitted = 0

    for trace in sorted(journeys):
        events = journeys[trace]
        tag = f"journey {trace}"
        if not events:
            problems.append(f"{tag}: empty event list")
            continue
        ident = (events[0].get("task_id"), events[0].get("arrival"))
        if None in ident:
            problems.append(f"{tag}: events missing task identity")
            continue
        if trace_id(ident[0], ident[1]) != trace:
            problems.append(
                f"{tag}: trace ID does not hash from task {ident[0]} "
                f"@ {ident[1]}")
        # The routed preamble carries the router's (int) shard pick; the
        # stitcher stamps the emitting log's (str) identity — normalize.
        shards = {str(e["shard"]) for e in events
                  if e.get("shard") is not None}
        if len(shards) > 1:
            problems.append(
                f"{tag}: events span shards {sorted(shards)} — per-shard "
                "logs double-delivered one task")
        prev_state, prev_t = "", None
        terminal_seen = None
        for i, ev in enumerate(events):
            state = ev.get("state")
            t = ev.get("t")
            if state not in TRANSITIONS or not state:
                problems.append(f"{tag}[{i}]: unknown state {state!r}")
                break
            if (ev.get("task_id"), ev.get("arrival")) != ident:
                problems.append(
                    f"{tag}[{i}]: task identity drifted within journey")
            if terminal_seen is not None:
                problems.append(
                    f"{tag}[{i}]: event after terminal state "
                    f"{terminal_seen!r}")
                break
            if state not in TRANSITIONS[prev_state]:
                problems.append(
                    f"{tag}[{i}]: invalid transition "
                    f"{prev_state or '<start>'} -> {state}")
            if prev_t is not None and t is not None and t < prev_t - 1e-9:
                problems.append(
                    f"{tag}[{i}]: time went backwards "
                    f"({prev_t:.6g} -> {t:.6g})")
            if state in TERMINAL_STATES:
                terminal_seen = state
            if state == "dispatched":
                dispatched += 1
            elif state == "requeued":
                requeued += 1
            elif state == "admitted":
                admitted += 1
            prev_state, prev_t = state, (t if t is not None else prev_t)
        if terminal_seen is None:
            problems.append(f"{tag}: no terminal state")
        else:
            terminals[terminal_seen] += 1

    if expect is not None and sample >= 1.0:
        served = terminals["completed"] + terminals["failed"]
        checks = [
            ("journeys", len(journeys), expect.get("arrived")),
            ("admitted journeys reaching a terminal state",
             admitted, expect.get("arrived", 0) - _rejects(journeys)),
            ("shed terminals", terminals["shed"], expect.get("shed")),
            ("completed terminals", terminals["completed"],
             expect.get("completed")),
            ("failed terminals", terminals["failed"], expect.get("failed")),
            ("unserved terminals", terminals["unserved"],
             expect.get("unserved")),
            ("served terminals", served,
             None if expect.get("completed") is None
             else expect.get("completed", 0) + expect.get("failed", 0)),
            ("dispatched events", dispatched, expect.get("matched")),
            ("requeued events", requeued, expect.get("requeued")),
        ]
        for label, got, want in checks:
            if want is not None and got != want:
                problems.append(
                    f"conservation: {label} = {got}, run counters say {want}")
    return problems


def _rejects(journeys: "Mapping[str, list[dict]]") -> int:
    """Journeys shed at admission (never admitted): arrivals that held
    no queue slot, excluded from the admitted-task conservation term."""
    n = 0
    for events in journeys.values():
        states = [e.get("state") for e in events]
        if "admitted" not in states and states and states[-1] == "shed":
            n += 1
    return n


# --------------------------------------------------------------------- #
# Exemplar merge + terminal rendering.
# --------------------------------------------------------------------- #


def merge_exemplar_payloads(payloads: "Iterable[Mapping]") -> "dict | None":
    """Fold per-shard ``journey_exemplars`` payloads into one table.

    Counts sum per bucket; each bucket keeps the worst (longest-wait)
    shard's exemplar trace.  Returns ``None`` for no payloads.
    """
    payloads = [p for p in payloads if p]
    if not payloads:
        return None
    buckets: "dict[str, dict]" = {}
    merged: "dict[str, Any]" = {
        "sample": max(float(p.get("sample", 0.0)) for p in payloads),
        "emitted": sum(int(p.get("emitted", 0)) for p in payloads),
        "sampled_out": sum(int(p.get("sampled_out", 0)) for p in payloads),
        "forced": sum(int(p.get("forced", 0)) for p in payloads),
    }
    for p in payloads:
        for b in p.get("buckets", ()):
            key = str(b.get("le"))
            cur = buckets.get(key)
            if cur is None:
                buckets[key] = dict(b)
            else:
                cur["count"] = cur.get("count", 0) + b.get("count", 0)
                if b.get("wait_hours", 0.0) > cur.get("wait_hours", 0.0):
                    cur.update(trace=b.get("trace"), task_id=b.get("task_id"),
                               wait_hours=b.get("wait_hours"))

    def bound(b: dict) -> float:
        le = b.get("le")
        return float("inf") if le == "+Inf" else float(le)

    merged["buckets"] = sorted(buckets.values(), key=bound)
    return merged


def render_waterfall(trace: str, events: "list[dict]") -> str:
    """Render one journey as a text waterfall (``repro trace show``).

    One row per event, offset bars proportional to platform time since
    arrival; scheduled rows extend to the execution ``end`` when known.
    """
    if not events:
        return f"trace {trace}: (no events)"
    ident = events[0]
    t0 = float(ident.get("arrival", events[0].get("t", 0.0)))
    span_end = max(
        [float(e.get("t", t0)) for e in events]
        + [float(e["end"]) for e in events if e.get("end") is not None]
    )
    span = max(span_end - t0, 1e-9)
    bar_w = 26  # a 72-column row less the 46 columns of labels
    lines = [
        f"trace {trace}  task {ident.get('task_id')}  "
        f"arrival {t0:.4g}h  span {span:.4g}h"
    ]
    for ev in events:
        t = float(ev.get("t", t0))
        off = int(round(bar_w * (t - t0) / span))
        off = min(max(off, 0), bar_w)
        if ev.get("state") == "scheduled" and ev.get("end") is not None:
            off = min(off, bar_w - 1)  # an execution bar is never empty
            stop = int(round(bar_w * (float(ev["end"]) - t0) / span))
            stop = min(max(stop, off + 1), bar_w)
            bar = " " * off + "#" * (stop - off) + " " * (bar_w - stop)
        else:
            bar = " " * off + "|" + " " * (bar_w - off)
        detail = ", ".join(
            f"{k}={_fmt(v)}" for k, v in ev.items()
            if k not in ("trace", "task_id", "arrival", "state", "t")
        )
        lines.append(f"  {ev.get('state', '?'):<10} {t - t0:>8.4f}h "
                     f"[{bar}] {detail}")
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)
