"""repro.monitor — online quality monitoring for the serving layer.

Observability for the deployed predict-then-match loop (DESIGN.md §11),
layered strictly *above* :mod:`repro.serve` and :mod:`repro.telemetry`
— the dispatcher knows only the :class:`repro.serve.ServeCallback`
protocol and never imports this package:

- :mod:`repro.monitor.drift` — streaming change detectors
  (Page–Hinkley, CUSUM, windowed error quantiles) over prediction-error
  signals;
- :mod:`repro.monitor.attribution` — sampled hindsight re-solves that
  split each window's makespan gap into prediction error vs
  rounding/solver slack (the online counterpart of Eq. 6 regret);
- :mod:`repro.monitor.slo` — declarative rolling-window SLO rules with
  multi-window burn-rate alerting;
- :mod:`repro.monitor.quality` — :class:`QualityMonitor`, the
  ServeCallback composing the above and emitting ``alert`` telemetry
  events (including ``retrain_suggested``);
- :mod:`repro.monitor.sinks` — pluggable alert delivery (file tailer,
  webhook-style callables) with per-sink failure isolation;
- :mod:`repro.monitor.export` — Prometheus text-format rendering of any
  telemetry aggregate;
- :mod:`repro.monitor.replay` — deterministic reconstruction of a
  serving run from its JSONL log (``repro replay``), including runs
  whose checkpoints were hot-swapped by the closed retraining loop.
"""

from repro.monitor.attribution import RegretAttributor, WindowAttribution
from repro.monitor.drift import Cusum, DriftBank, PageHinkley, QuantileWindow
from repro.monitor.export import prometheus_text, sanitize_name
from repro.monitor.live import (
    MetricsServer,
    merge_snapshots,
    render_top,
    serve_snapshot,
    snapshot_from_logs,
    top,
)
from repro.monitor.quality import DEFAULT_SLOS, Alert, MonitorConfig, QualityMonitor
from repro.monitor.replay import TraceReplay
from repro.monitor.sinks import AlertSink, FileTailSink
from repro.monitor.slo import SLOMonitor, SLORule, SLOStatus

__all__ = [
    "PageHinkley",
    "Cusum",
    "QuantileWindow",
    "DriftBank",
    "RegretAttributor",
    "WindowAttribution",
    "SLORule",
    "SLOStatus",
    "SLOMonitor",
    "Alert",
    "MonitorConfig",
    "QualityMonitor",
    "DEFAULT_SLOS",
    "AlertSink",
    "FileTailSink",
    "prometheus_text",
    "sanitize_name",
    "TraceReplay",
    "MetricsServer",
    "serve_snapshot",
    "merge_snapshots",
    "snapshot_from_logs",
    "render_top",
    "top",
]
