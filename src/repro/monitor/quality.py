"""The online quality monitor: one ServeCallback composing the pieces.

:class:`QualityMonitor` plugs into :class:`repro.serve.Dispatcher` via
the callback protocol (``Dispatcher(..., callbacks=[monitor])``) and,
per dispatched window:

1. feeds per-task prediction-error signals into drift banks
   (:mod:`repro.monitor.drift`) — relative execution-time error and
   signed reliability calibration error, plus the sampled decision
   regret from (2);
2. runs hindsight regret attribution on sampled windows
   (:mod:`repro.monitor.attribution`), recording the prediction-gap /
   rounding-slack split into telemetry histograms;
3. evaluates SLO rules (:mod:`repro.monitor.slo`) on window counts:
   wait-bound misses, shed tasks, reliability-constraint violations.

Alerts are plain dataclasses collected on the monitor, emitted as
structured ``alert`` telemetry events (so a JSONL run log doubles as an
alert log), and fanned out to any registered :mod:`repro.monitor.sinks`
— each sink isolated so one failing webhook cannot break serving or
starve its siblings.  When any drift bank fires outside the cooldown
window the monitor raises a single ``retrain_suggested`` alert and calls
its registered *retrain listeners* — the hook
:class:`repro.retrain.RetrainController` plugs its ``notify_drift``
into, closing the drift → refit loop.

Everything the monitor computes is a pure function of the snapshot
stream (simulated time only), so a monitored run and its trace replay
produce identical alert sequences.  The monitor never mutates the
dispatcher: observing a run must not change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

import numpy as np

from repro.matching.relaxed import SolverConfig
from repro.monitor.attribution import RegretAttributor
from repro.monitor.drift import Cusum, DriftBank, PageHinkley, QuantileWindow
from repro.monitor.sinks import AlertSink, alert_to_dict
from repro.monitor.slo import SLOMonitor, SLORule
from repro.serve.dispatcher import ServeCallback, ServeStats, WindowSnapshot
from repro.telemetry import get_recorder
from repro.telemetry.metrics import TIME_BUCKETS_S

__all__ = ["Alert", "MonitorConfig", "QualityMonitor", "DEFAULT_SLOS"]

#: Regret/error values are small per-task hour quantities; reuse the
#: telemetry time buckets (they span 1e-4 .. 1e2 with log spacing).
_GAP_BUCKETS = TIME_BUCKETS_S

_DRIFT_MESSAGES = {
    "time_error": "execution-time prediction error drifted",
    "reliability_error": "reliability calibration drifted",
}


#: Wait-SLO bad-event bound, in platform hours.
WAIT_BOUND_HOURS = 2.0
#: Suppress further ``retrain_suggested`` alerts for this many windows
#: after one fires (drift on several signals at once should page once,
#: not once per detector).
COOLDOWN_WINDOWS = 50

DEFAULT_SLOS: "tuple[SLORule, ...]" = (
    # At most 10% of tasks may wait longer than the wait bound.
    SLORule(name="wait", objective=0.10),
    # At most 5% of arrivals may be shed.
    SLORule(name="shed", objective=0.05),
    # At most 5% of windows may violate the reliability constraint.
    SLORule(name="reliability", objective=0.05),
)


@dataclass(frozen=True)
class Alert:
    """One structured monitor alert (also emitted as telemetry event)."""

    window: int
    time: float  # simulated platform hour
    kind: str  # "drift" | "slo" | "retrain_suggested" | "conservation"
    signal: str  # which stream/rule produced it
    detector: str  # detector/rule instance name
    value: float  # the statistic that crossed
    message: str


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs for :class:`QualityMonitor`; defaults fit micro-batch runs."""

    #: Hindsight re-solve every N-th window (1 = every window).
    sample_every: int = 8
    #: Solver for hindsight re-solves; ``None`` = attributor default.
    solver_config: "SolverConfig | None" = None
    #: Page–Hinkley knobs of the time-error bank.
    time_delta: float = 0.05
    time_threshold: float = 4.0


class QualityMonitor(ServeCallback):
    """Drift + SLO + regret-attribution observer for the serving loop."""

    def __init__(self, config: MonitorConfig | None = None) -> None:
        self.config = cfg = config or MonitorConfig()
        self.attributor = RegretAttributor(
            sample_every=cfg.sample_every, solver_config=cfg.solver_config
        )
        self.banks = {
            "time_error": DriftBank("time_error", {
                "page_hinkley": PageHinkley(
                    delta=cfg.time_delta,
                    threshold=cfg.time_threshold,
                    min_samples=40,
                ),
                "quantile_window": QuantileWindow(window=64),
            }),
            "reliability_error": DriftBank("reliability_error", {
                "cusum": Cusum(drift=0.08, threshold=6.0),
            }),
            "decision_regret": DriftBank("decision_regret", {
                "page_hinkley": PageHinkley(delta=0.02, threshold=0.5, min_samples=5),
            }),
        }
        self.slo = SLOMonitor(list(DEFAULT_SLOS))
        self.alerts: "list[Alert]" = []
        self.sinks: "list[AlertSink]" = []
        self.sink_errors: "dict[str, int]" = {}
        self.windows_seen = 0
        self.retrain_suggested_at: "list[int]" = []
        self._retrain_listeners: "list[Callable[[Alert], None]]" = []
        self._last_retrain_window: "int | None" = None
        self._finished = False
        self._prev_shed_total = 0
        self._prev_arrived_total = 0

    # ------------------------------------------------------------------ #
    # alert plumbing

    def add_sink(self, sink: "AlertSink") -> "QualityMonitor":
        """Register an alert sink (fan-out target); returns self."""
        self.sinks.append(sink)
        return self

    def add_retrain_listener(self, fn: "Callable[[Alert], None]") -> "QualityMonitor":
        """Call ``fn(alert)`` on every ``retrain_suggested`` alert.

        This is the drift → refit wire: :meth:`repro.retrain.
        RetrainController.notify_drift` is the intended listener.
        Listener failures are isolated like sink failures.
        """
        self._retrain_listeners.append(fn)
        return self

    def _fan_out(self, alert: Alert) -> None:
        for sink in self.sinks:
            try:
                sink.emit(alert)
            except Exception:
                # One broken sink must not break serving or its siblings.
                name = type(sink).__name__
                self.sink_errors[name] = self.sink_errors.get(name, 0) + 1
                rec = get_recorder()
                if rec.enabled:
                    rec.counter_add("monitor/sink_errors")

    def _alert(self, snapshot_window: int, time: float, kind: str,
               signal: str, detector: str, value: float, message: str) -> Alert:
        alert = Alert(window=snapshot_window, time=time, kind=kind,
                      signal=signal, detector=detector, value=float(value),
                      message=message)
        self.alerts.append(alert)
        rec = get_recorder()
        if rec.enabled:
            rec.counter_add(f"monitor/alerts_{kind}")
            # Alert events are aggregated across a fleet's logs, so each
            # one carries the recorder's identity labels inline — metric
            # series get them from base labels, event lines do not.
            identity = {k: v for k, v in rec.registry.base_labels.items()
                        if k in ("shard", "instance")}
            rec.event("alert", **alert_to_dict(alert), **identity)
        self._fan_out(alert)
        return alert

    def _maybe_suggest_retrain(self, snapshot: WindowSnapshot,
                               signal: str, detectors: "list[str]") -> None:
        last = self._last_retrain_window
        if last is not None and snapshot.window - last < COOLDOWN_WINDOWS:
            return
        self._last_retrain_window = snapshot.window
        self.retrain_suggested_at.append(snapshot.window)
        alert = self._alert(
            snapshot.window, snapshot.time, "retrain_suggested", signal,
            "+".join(detectors), float(len(detectors)),
            f"drift on {signal} ({', '.join(detectors)}): retrain the predictor",
        )
        for fn in self._retrain_listeners:
            try:
                fn(alert)
            except Exception:
                self.sink_errors["retrain_listener"] = (
                    self.sink_errors.get("retrain_listener", 0) + 1)

    # ------------------------------------------------------------------ #
    # ServeCallback protocol

    def on_window(self, snapshot: WindowSnapshot) -> None:
        self.windows_seen += 1
        rec = get_recorder()

        # --- drift signals ------------------------------------------- #
        assigned = snapshot.X.argmax(axis=0)  # cluster row per task
        cols = np.arange(snapshot.X.shape[1])
        placed = snapshot.X[assigned, cols] > 0  # shed-from-window guard
        t_hat = snapshot.T_hat[assigned, cols]
        # Relative time error vs what the cluster actually observed.
        time_err = np.abs(t_hat - snapshot.realized_hours) / np.maximum(
            snapshot.realized_hours, 1e-6
        )
        # One pass per bank over the placed tasks, then the alarms in
        # the order a task-by-task feed raises them: by task, its
        # time-error alarms before its calibration alarms.
        placed_err = time_err[placed]
        hits = [(j, 0, "time_error", name, stat) for j, name, stat
                in self.banks["time_error"].update_many(placed_err.tolist())]
        # Signed calibration error: â minus the 0/1 outcome.
        calib = snapshot.A_hat[assigned, cols] - snapshot.success
        hits += [(j, 1, "reliability_error", name, stat) for j, name, stat
                 in self.banks["reliability_error"].update_many(
                     calib[placed].tolist())]
        hits.sort(key=itemgetter(0, 1))
        for _, _, signal, name, stat in hits:
            self._alert(snapshot.window, snapshot.time, "drift", signal, name,
                        stat, _DRIFT_MESSAGES[signal])
            self._maybe_suggest_retrain(snapshot, signal, [name])
        if rec.enabled and placed_err.size:
            # ``placed_err.mean()``, minus its Python-level wrapper.
            rec.observe("monitor/time_error",
                        float(np.add.reduce(placed_err)) / placed_err.size,
                        bounds=_GAP_BUCKETS)

        # --- regret attribution -------------------------------------- #
        attribution = self.attributor.attribute(snapshot)
        if attribution is not None:
            if rec.enabled:
                rec.observe("monitor/prediction_gap",
                            max(attribution.prediction_gap, 0.0),
                            bounds=_GAP_BUCKETS)
                rec.observe("monitor/rounding_slack",
                            max(attribution.rounding_slack, 0.0),
                            bounds=_GAP_BUCKETS)
            for _, name, stat in self.banks["decision_regret"].update_many(
                (max(attribution.prediction_gap, 0.0),)
            ):
                self._alert(
                    snapshot.window, snapshot.time, "drift", "decision_regret",
                    name, stat, "sampled decision regret drifted",
                )
                self._maybe_suggest_retrain(snapshot, "decision_regret", [name])

        # --- SLOs ----------------------------------------------------- #
        waits = snapshot.wait_hours
        k = len(snapshot.task_ids)
        slo_obs = [
            ("wait", sum(w > WAIT_BOUND_HOURS for w in waits.tolist()), k),
            ("shed", snapshot.shed_total - self._prev_shed_total,
             max(snapshot.arrived_total - self._prev_arrived_total, 1)),
            ("reliability", int(snapshot.reliability_slack < 0.0), 1),
        ]
        self._prev_shed_total = snapshot.shed_total
        self._prev_arrived_total = snapshot.arrived_total
        for name, bad, total in slo_obs:
            if self.slo.observe(name, bad, total):
                status = self.slo.status[name]
                self._alert(
                    snapshot.window, snapshot.time, "slo", name, "burn_rate",
                    status.fast_burn,
                    f"SLO '{name}' burning at {status.fast_burn:.1f}x budget",
                )

    def on_finish(self, stats: ServeStats) -> None:
        self._finished = True
        if not stats.conserved:
            lost = stats.arrived - (
                stats.completed + stats.failed + stats.shed + stats.unserved
            )
            self._alert(
                stats.windows, 0.0, "conservation", "serve_stats",
                "identity", float(lost),
                f"task conservation violated: {lost} tasks unaccounted for",
            )
        rec = get_recorder()
        if rec.enabled:
            for name, labels, value in self.gauges():
                rec.gauge_set(name, value, labels=labels)

    # ------------------------------------------------------------------ #

    def gauges(self):
        """The monitor's state as gauge series, ``(name, labels, value)``
        each: windows seen, alert count, and per SLO rule its fast and
        slow burn rates and firing flag.  :meth:`on_finish` writes them
        to the run log; a live snapshot sets their current values.  The
        rule rides in the name (``monitor/slo_<rule>_fast_burn``), not in
        a label: a labelled series costs a label check and key build per
        write, and :meth:`on_finish` is timed as callback overhead."""
        yield "monitor/windows_seen", None, self.windows_seen
        yield "monitor/alerts_total", None, len(self.alerts)
        for name, status in self.slo.status.items():
            yield f"monitor/slo_{name}_fast_burn", None, status.fast_burn
            yield f"monitor/slo_{name}_slow_burn", None, status.slow_burn
            yield f"monitor/slo_{name}_firing", None, float(status.breaching)

    def alert_log(self) -> "list[dict]":
        """Alerts as plain dicts (JSON-serializable, file order)."""
        return [alert_to_dict(a) for a in self.alerts]

    def summary(self) -> dict:
        """One dict describing everything the monitor saw."""
        return {
            "windows_seen": self.windows_seen,
            "finished": self._finished,
            "alerts": len(self.alerts),
            "alerts_by_kind": {
                kind: sum(1 for a in self.alerts if a.kind == kind)
                for kind in sorted({a.kind for a in self.alerts})
            },
            "retrain_suggested_at": list(self.retrain_suggested_at),
            "drift": {name: bank.state() for name, bank in self.banks.items()},
            "slo": self.slo.state(),
            "attribution": self.attributor.summary(),
            "sink_errors": dict(self.sink_errors),
        }
