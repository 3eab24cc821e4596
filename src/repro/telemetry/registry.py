"""Labeled metric series: the registry behind the run recorder.

A sharded platform needs the same metric name to carry several
concurrent series (``serve/windows{shard="0"}`` vs ``{shard="1"}``), and
a fleet view needs series from different recorders to merge without
collisions.  :class:`MetricRegistry` provides both:

- **labeled series** — every instrument call may carry a ``labels`` dict
  (e.g. ``{"shard": "0", "predictor_version": "v3"}``).  A registry can
  also hold *base labels* applied to every series it records — the
  per-recorder identity (``shard``/``instance``) a sharded deployment
  stamps on all of its metrics;
- **canonical series keys** — a series is identified by
  ``name{k="v",...}`` with label pairs sorted and values escaped, the
  exact grammar Prometheus uses, so keys are deterministic and the JSONL
  metric lines / aggregates stay diffable and mergeable;
- **thread-safe snapshots** — all mutation and :meth:`snapshot` go
  through one lock, so the live ``/metrics`` scrape endpoint
  (:mod:`repro.monitor.live`) can read a consistent view mid-run while
  the serving loop records;
- **fleet merge** — :func:`merge_aggregates` folds any number of
  canonical aggregates (live ``Recorder.aggregate()`` dicts or
  ``aggregate_events(load_run(path))`` reconstructions) into one view:
  counters and histograms sum, spans accumulate, gauges keep the last
  writer.  Series keyed by distinct labels never collide, so per-shard
  series survive the merge losslessly.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.telemetry.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram

__all__ = [
    "MetricRegistry",
    "series_key",
    "split_series_key",
    "merge_aggregates",
    "aggregate_runs",
]


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _check_labels(labels: Mapping[str, str]) -> "dict[str, str]":
    out: "dict[str, str]" = {}
    for k, v in labels.items():
        if not isinstance(k, str) or not k or not k.replace("_", "a").isalnum() \
                or k[0].isdigit():
            raise ValueError(f"invalid label name {k!r} (want [a-zA-Z_][a-zA-Z0-9_]*)")
        out[k] = str(v)
    return out


def series_key(name: str, labels: "Mapping[str, str] | None" = None) -> str:
    """Canonical key of one series: ``name`` or ``name{k="v",...}``.

    Label pairs are sorted by key, so the same (name, labels) always maps
    to the same key regardless of insertion order.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> "tuple[str, str]":
    """Split a series key into ``(name, label_suffix)``.

    ``label_suffix`` is ``""`` for unlabeled series and the literal
    ``{k="v",...}`` text otherwise (already in exposition grammar).
    """
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


class MetricRegistry:
    """Thread-safe registry of labeled counter/gauge/histogram series."""

    def __init__(self, base_labels: "Mapping[str, str] | None" = None) -> None:
        self.base_labels = _check_labels(base_labels or {})
        self.lock = threading.RLock()
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._hists: "dict[str, Histogram]" = {}
        #: series key -> merged label dict (labeled series only).
        self._labels: "dict[str, dict[str, str]]" = {}

    # ------------------------------------------------------------------ #

    def _key(self, name: str, labels: "Mapping[str, str] | None") -> "tuple[str, dict]":
        if labels:
            merged = dict(self.base_labels)
            merged.update(_check_labels(labels))
        else:
            merged = self.base_labels
        return series_key(name, merged), merged

    def counter_add(self, name: str, amount: float = 1.0,
                    labels: "Mapping[str, str] | None" = None) -> None:
        key, merged = self._key(name, labels)
        with self.lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter(key)
                if merged:
                    self._labels[key] = dict(merged)
            c.add(amount)

    def gauge_set(self, name: str, value: float,
                  labels: "Mapping[str, str] | None" = None) -> None:
        key, merged = self._key(name, labels)
        with self.lock:
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge(key)
                if merged:
                    self._labels[key] = dict(merged)
            g.set(value)

    def observe(self, name: str, value: float, n: int = 1,
                bounds: "tuple[float, ...] | None" = None,
                labels: "Mapping[str, str] | None" = None) -> None:
        key, merged = self._key(name, labels)
        with self.lock:
            h = self._hists.get(key)
            if h is None:
                h = self._hists[key] = Histogram(key, bounds or DEFAULT_BUCKETS)
                if merged:
                    self._labels[key] = dict(merged)
            h.observe(value, n)

    # ------------------------------------------------------------------ #

    def _state(self, key: str, instrument) -> dict:
        state = instrument.state()
        labels = self._labels.get(key)
        if labels:
            state["labels"] = dict(labels)
        return state

    def snapshot(self) -> dict:
        """Consistent point-in-time view: the canonical aggregate sections.

        Returned dicts are fresh copies — safe to serialize or mutate
        after the lock is released.
        """
        with self.lock:
            return {
                "counters": {k: self._state(k, c)
                             for k, c in sorted(self._counters.items())},
                "gauges": {k: self._state(k, g)
                           for k, g in sorted(self._gauges.items())},
                "histograms": {k: self._state(k, h)
                               for k, h in sorted(self._hists.items())},
            }

    def __len__(self) -> int:
        with self.lock:
            return len(self._counters) + len(self._gauges) + len(self._hists)


# --------------------------------------------------------------------- #
# Fleet-level aggregation.
# --------------------------------------------------------------------- #


def _merge_counter(into: dict, state: dict) -> None:
    into["value"] = into.get("value", 0.0) + state.get("value", 0.0)
    into["calls"] = into.get("calls", 0) + state.get("calls", 0)


def _merge_gauge(into: dict, state: dict) -> None:
    into["value"] = state.get("value", 0.0)  # last writer wins
    into["calls"] = into.get("calls", 0) + state.get("calls", 0)


def _merge_histogram(key: str, into: dict, state: dict) -> None:
    if list(into["bounds"]) != list(state["bounds"]):
        raise ValueError(
            f"histogram {key!r}: cannot merge mismatched bucket bounds "
            f"{into['bounds']} vs {state['bounds']}"
        )
    into["counts"] = [a + b for a, b in zip(into["counts"], state["counts"])]
    into["count"] += state.get("count", 0)
    into["sum"] += state.get("sum", 0.0)
    into["calls"] = into.get("calls", 0) + state.get("calls", 0)
    mins = [v for v in (into.get("min"), state.get("min")) if v is not None]
    maxs = [v for v in (into.get("max"), state.get("max")) if v is not None]
    into["min"] = min(mins) if mins else None
    into["max"] = max(maxs) if maxs else None


def merge_aggregates(aggregates: "Iterable[dict]") -> dict:
    """Fold canonical aggregates into one fleet view.

    Series are matched by their full series key (name + sorted labels),
    so series recorded under distinct ``shard``/``instance`` labels stay
    distinct — the merge is lossless for labeled fleets.  On a key
    collision, counters/histograms/spans accumulate (the natural
    semantics for additive instruments) and gauges keep the last input's
    value; histogram merges require identical bucket bounds.
    """
    spans: "dict[str, dict]" = {}
    counters: "dict[str, dict]" = {}
    gauges: "dict[str, dict]" = {}
    hists: "dict[str, dict]" = {}
    for agg in aggregates:
        for path, s in agg.get("spans", {}).items():
            into = spans.setdefault(path, {"total_s": 0.0, "calls": 0, "errors": 0})
            into["total_s"] += s.get("total_s", 0.0)
            into["calls"] += s.get("calls", 0)
            into["errors"] += s.get("errors", 0)
        for key, s in agg.get("counters", {}).items():
            into = counters.setdefault(key, {"value": 0.0, "calls": 0})
            if "labels" in s:
                into.setdefault("labels", dict(s["labels"]))
            _merge_counter(into, s)
        for key, s in agg.get("gauges", {}).items():
            into = gauges.setdefault(key, {"value": 0.0, "calls": 0})
            if "labels" in s:
                into.setdefault("labels", dict(s["labels"]))
            _merge_gauge(into, s)
        for key, s in agg.get("histograms", {}).items():
            into = hists.get(key)
            if into is None:
                into = hists[key] = {
                    "bounds": list(s["bounds"]),
                    "counts": [0] * len(s["counts"]),
                    "count": 0, "sum": 0.0, "min": None, "max": None, "calls": 0,
                }
                if "labels" in s:
                    into["labels"] = dict(s["labels"])
            _merge_histogram(key, into, s)
    return {
        "spans": dict(sorted(spans.items())),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(hists.items())),
    }


def aggregate_runs(paths: "Iterable") -> dict:
    """One fleet view from several recorders' JSONL run logs.

    Loads each log (:func:`repro.telemetry.jsonl.load_run`), rebuilds its
    canonical aggregate, and merges — the offline counterpart of scraping
    N shard endpoints and summing on the Prometheus side.
    """
    from repro.telemetry.jsonl import aggregate_events, load_run

    return merge_aggregates(aggregate_events(load_run(p)) for p in paths)
