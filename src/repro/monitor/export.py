"""Render a telemetry aggregate in Prometheus text exposition format.

Takes the canonical aggregate dict — ``Recorder.aggregate()`` from a live
run, ``telemetry.jsonl.aggregate_events(load_run(path))`` from a JSONL
log, or a fleet view from ``telemetry.registry.merge_aggregates`` — and
renders version 0.0.4 text exposition:

- counters  → ``<name>_total``
- gauges    → ``<name>``
- histograms→ cumulative ``<name>_bucket{le="..."}`` series plus
  ``_sum``/``_count`` (the recorder's buckets already use Prometheus
  ``le`` upper-bound semantics, so this is a pure re-labelling)
- spans     → ``<name>_seconds_total`` / ``<name>_calls_total`` /
  ``<name>_errors_total``

Labeled series (aggregates key them as ``name{k="v",...}``)
render under one shared metric name with their label sets preserved —
histogram bucket lines merge ``le`` into the series labels — and one
``# TYPE`` header per metric family.

Metric names are sanitized to the Prometheus grammar
(``serve/solve_iterations`` → ``repro_serve_solve_iterations``).
Sanitization is lossy, so two *distinct* raw names can collapse onto one
metric name (``serve/windows`` vs ``serve-windows``); because silently
merging different instruments would corrupt the exposition, that
collision raises ``ValueError``.  Values format per the exposition
grammar: ``+Inf`` / ``-Inf`` / ``NaN`` spelled exactly, integral floats
without a fraction.  The output is deterministic: sections and series
are emitted in sorted order, so snapshot files diff cleanly between
runs.
"""

from __future__ import annotations

import math
import re

from repro.telemetry.registry import split_series_key

__all__ = ["prometheus_text", "sanitize_name"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_name(name: str) -> str:
    """Map an internal metric path onto a legal Prometheus metric name
    under the ``repro_`` prefix."""
    flat = _NAME_RE.sub("_", name.strip("/"))
    flat = re.sub(r"_+", "_", flat).strip("_")
    if not flat:
        raise ValueError(f"metric name {name!r} sanitizes to nothing")
    return f"repro_{flat}"


def _fmt(value: float) -> str:
    """Exposition float grammar: ``+Inf``/``-Inf``/``NaN`` spelled
    exactly, integral values without a fraction."""
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if v.is_integer():
        return str(int(v))
    return repr(v)


def _labeled(metric: str, suffix: str, extra: "str | None" = None) -> str:
    """``metric{...}`` with the series' label suffix, optionally merged
    with one extra ``k="v"`` pair (the histogram ``le`` label)."""
    if not suffix:
        return f"{metric}{{{extra}}}" if extra else metric
    if extra:
        return f"{metric}{suffix[:-1]},{extra}}}"
    return f"{metric}{suffix}"


def _families(section: dict) -> "dict[str, list[tuple[str, dict]]]":
    """Group a section's series by sanitized metric name.

    Returns ``{metric: [(label_suffix, state), ...]}`` with both levels
    in sorted order.  Raises when two distinct raw base names collapse
    onto the same sanitized metric — a silent merge would mix unrelated
    instruments in the exposition.
    """
    fams: "dict[str, list[tuple[str, dict]]]" = {}
    raw_of: "dict[str, str]" = {}
    for key in sorted(section):
        base, suffix = split_series_key(key)
        metric = sanitize_name(base)
        seen = raw_of.setdefault(metric, base)
        if seen != base:
            raise ValueError(
                f"metric name collision: {seen!r} and {base!r} both "
                f"sanitize to {metric!r}"
            )
        fams.setdefault(metric, []).append((suffix, section[key]))
    return fams


def prometheus_text(aggregate: dict) -> str:
    """The aggregate as a Prometheus text-format exposition page."""
    lines: "list[str]" = []

    for metric, series in _families(aggregate.get("counters", {})).items():
        lines.append(f"# TYPE {metric}_total counter")
        for suffix, state in series:
            lines.append(f"{_labeled(metric + '_total', suffix)} "
                         f"{_fmt(state['value'])}")

    for metric, series in _families(aggregate.get("gauges", {})).items():
        lines.append(f"# TYPE {metric} gauge")
        for suffix, state in series:
            lines.append(f"{_labeled(metric, suffix)} {_fmt(state['value'])}")

    for metric, series in _families(aggregate.get("histograms", {})).items():
        lines.append(f"# TYPE {metric} histogram")
        for suffix, state in series:
            cum = 0
            bounds = list(state["bounds"]) + [float("inf")]
            for bound, count in zip(bounds, state["counts"]):
                cum += count
                le = f'le="{_fmt(bound)}"'
                lines.append(f"{_labeled(metric + '_bucket', suffix, le)} {cum}")
            lines.append(f"{_labeled(metric + '_sum', suffix)} {_fmt(state['sum'])}")
            lines.append(f"{_labeled(metric + '_count', suffix)} {state['count']}")

    for metric, series in _families(aggregate.get("spans", {})).items():
        for suffix, state in series:
            lines.append(f"# TYPE {metric}_seconds_total counter")
            lines.append(f"{_labeled(metric + '_seconds_total', suffix)} "
                         f"{_fmt(state['total_s'])}")
            lines.append(f"# TYPE {metric}_calls_total counter")
            lines.append(f"{_labeled(metric + '_calls_total', suffix)} "
                         f"{state['calls']}")
            if state.get("errors"):
                lines.append(f"# TYPE {metric}_errors_total counter")
                lines.append(f"{_labeled(metric + '_errors_total', suffix)} "
                             f"{state['errors']}")

    return "\n".join(lines) + "\n" if lines else ""
