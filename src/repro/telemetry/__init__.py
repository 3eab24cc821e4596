"""repro.telemetry — dependency-free instrumentation for the whole stack.

Three primitives (see DESIGN.md §8):

- **spans** — hierarchical, contextvar-nested wall-clock sections
  (``with telemetry.span("train/solve"): ...``);
- **metric instruments** — counters, gauges and fixed-bucket histograms
  for cheap distribution capture (solver iterations, cascade levels,
  estimator variance, queue depths);
- **recorder** — a run-scoped sink that aggregates everything, renders an
  end-of-run console summary and (mode ``"jsonl"``) writes a versioned,
  diffable JSONL run log under ``results/telemetry/``.

Instrumented library code calls the module-level helpers unconditionally;
when no recorder is active they dispatch to the shared no-op recorder at
the cost of a single branch, so the disabled mode is effectively free
(gated at <2% of a training epoch by ``benchmarks/bench_micro.py``).

>>> from repro import telemetry
>>> with telemetry.recording(mode="summary") as rec:
...     with telemetry.span("demo"):
...         telemetry.observe("demo/value", 3.0)
"""

from repro.telemetry.journey import (
    EXEMPLAR_EVENT,
    JOURNEY_EVENT,
    TERMINAL_STATES,
    TRANSITIONS,
    WAIT_BUCKETS_H,
    JourneyRecorder,
    audit_journeys,
    journey_sampled,
    journeys_from_events,
    merge_exemplar_payloads,
    render_waterfall,
    stitch_journeys,
    trace_id,
)
from repro.telemetry.jsonl import aggregate_events, load_run, meta_of
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    ITER_BUCKETS,
    LEVEL_BUCKETS,
    SIZE_BUCKETS,
    TIME_BUCKETS_S,
    VARIANCE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    quantile,
)
from repro.telemetry.profiler import NULL_PROFILER, NullStageProfiler, StageProfiler
from repro.telemetry.recorder import (
    MODES,
    NULL,
    SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    NullRecorder,
    Recorder,
    counter_add,
    event,
    gauge_set,
    get_recorder,
    observe,
    recording,
    run_metadata,
    span,
)
from repro.telemetry.registry import (
    MetricRegistry,
    aggregate_runs,
    merge_aggregates,
    series_key,
    split_series_key,
)
from repro.telemetry.spans import NULL_SPAN, Span

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "MODES",
    "Recorder",
    "NullRecorder",
    "NULL",
    "get_recorder",
    "recording",
    "span",
    "counter_add",
    "gauge_set",
    "observe",
    "event",
    "run_metadata",
    "Span",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "quantile",
    "DEFAULT_BUCKETS",
    "ITER_BUCKETS",
    "LEVEL_BUCKETS",
    "SIZE_BUCKETS",
    "TIME_BUCKETS_S",
    "VARIANCE_BUCKETS",
    "load_run",
    "aggregate_events",
    "meta_of",
    "MetricRegistry",
    "series_key",
    "split_series_key",
    "merge_aggregates",
    "aggregate_runs",
    "StageProfiler",
    "NullStageProfiler",
    "NULL_PROFILER",
    "JOURNEY_EVENT",
    "EXEMPLAR_EVENT",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "WAIT_BUCKETS_H",
    "JourneyRecorder",
    "trace_id",
    "journey_sampled",
    "journeys_from_events",
    "stitch_journeys",
    "audit_journeys",
    "merge_exemplar_payloads",
    "render_waterfall",
]
