"""Parse and aggregate JSONL run logs written by the :class:`Recorder`.

The round-trip contract (asserted in ``tests/test_telemetry.py``): for any
run, ``aggregate_events(load_run(path))`` reconstructs exactly the
aggregate the recorder rendered into its console summary — spans rebuilt
from the individual span events, metrics taken from the flushed state
lines.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.recorder import SUPPORTED_SCHEMAS

__all__ = ["load_run", "aggregate_events", "meta_of", "shard_of"]


def load_run(path: str | Path) -> list[dict]:
    """All events of one run log, in file order; validates the header.

    An empty (or whitespace-only) file raises a clear ``ValueError``
    rather than surfacing downstream ``IndexError``s.  A *trailing*
    partial line — the signature of a run killed mid-write — is dropped
    silently so a crashed run's log stays loadable; an invalid line
    anywhere before the tail is still an error (that is corruption, not
    truncation).
    """
    with open(path) as fh:
        lines = fh.readlines()
    payload = [(i, raw.strip()) for i, raw in enumerate(lines) if raw.strip()]
    if not payload:
        raise ValueError(f"{path}: empty run log (no events)")
    events: list[dict] = []
    for pos, (lineno, raw) in enumerate(payload):
        try:
            events.append(json.loads(raw))
        except json.JSONDecodeError as exc:
            if pos == len(payload) - 1:
                break  # truncated tail from a crashed run: tolerate
            raise ValueError(f"{path}:{lineno + 1}: invalid JSON line") from exc
    if not events:
        raise ValueError(f"{path}: empty run log (no complete events)")
    if events[0].get("type") != "meta":
        raise ValueError(f"{path}: missing meta header line")
    schema = events[0].get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        raise ValueError(f"{path}: unsupported schema {schema!r} "
                         f"(expected one of {SUPPORTED_SCHEMAS})")
    return events


def meta_of(events: list[dict]) -> dict:
    """The run-metadata header of a loaded event list."""
    return events[0]


def shard_of(meta: dict) -> "str | None":
    """The shard that wrote a run log: ``labels.shard``, else ``serve.shard``."""
    labels, serve = meta.get("labels"), meta.get("serve")
    shard = labels.get("shard") if isinstance(labels, dict) else None
    if shard is None and isinstance(serve, dict):
        shard = serve.get("shard")
    return None if shard is None else str(shard)


def aggregate_events(events: list[dict]) -> dict:
    """Rebuild the recorder's canonical aggregate from raw events.

    Spans are re-accumulated from the per-call ``span`` events; counters,
    gauges and histograms come from their flushed ``metric`` lines.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, dict] = {}
    gauges: dict[str, dict] = {}
    hists: dict[str, dict] = {}
    for ev in events:
        kind = ev.get("type")
        if kind == "span":
            agg = spans.setdefault(ev["path"], {"total_s": 0.0, "calls": 0, "errors": 0})
            agg["total_s"] += ev["dur_s"]
            agg["calls"] += 1
            if not ev.get("ok", True):
                agg["errors"] += 1
        elif kind == "metric":
            state = {k: v for k, v in ev.items()
                     if k not in ("type", "kind", "name", "seq")}
            {"counter": counters, "gauge": gauges, "histogram": hists}[ev["kind"]][
                ev["name"]
            ] = state
    return {
        "spans": dict(sorted(spans.items())),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(hists.items())),
    }
