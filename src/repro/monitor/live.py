"""Live metrics plane: HTTP ``/metrics`` scrape endpoint + terminal top.

A *snapshot* is one JSON dict: ``aggregate`` (the recorder's metric
aggregate), the run identity (``run``, and for fleet views
``shards_seen`` / ``merged_from``), ``journeys`` (the wait-histogram
exemplar payload) and a ``time`` stamp.  Everything the dashboard shows
is a series of that aggregate.  Each observer states its own state as
gauges once — the stage budget as
:func:`~repro.telemetry.profiler.budget_gauges`, the SLO state as
:meth:`~repro.monitor.quality.QualityMonitor.gauges` — and both paths
read the one generator: the drain path (``ServeLoop.finish``,
``QualityMonitor.on_finish``) writes the gauges to the run log, and a
live snapshot folds their current values into its copy of the aggregate
under the recorder's base labels.  So a mid-run scrape, a drained scrape
and the run log carry the same series keys, and ``repro serve top
--log`` renders the frame the live endpoint serves at drain.

- :class:`MetricsServer` — ``http.server.ThreadingHTTPServer`` on a
  daemon thread serving ``/metrics`` (``prometheus_text`` of the
  snapshot's aggregate), ``/snapshot`` (the JSON snapshot) and
  ``/healthz``.  The port is bound when the server is built, so a busy
  port fails before a run starts; every request calls the
  ``snapshot_fn`` closure, which reads the aggregate under the registry
  lock, so a scrape mid-window sees a consistent view;
- :func:`serve_snapshot` — builds that closure's payload from the live
  recorder / profiler / quality monitor / journey recorder;
- :func:`merge_snapshots` — N snapshots into one fleet snapshot
  (``merge_aggregates`` plus the exemplar merge), and
  :func:`snapshot_from_logs`, its offline twin over JSONL run logs;
- :func:`render_top` — a *pure* snapshot → text function (unit-testable
  without sockets): counters, queue depth, per-shard table, seed
  sources, latency budget, wait exemplars and SLO burn rates, each read
  through one label-set fold (:func:`_fold`);
- :func:`top` — the fetch/clear/redraw loop behind ``repro serve top``.

Layering: this sits in :mod:`repro.monitor` because it imports the
Prometheus exporter and reads monitor state; :mod:`repro.serve` stays
free of any dependency on it.  The CLI wires a server around a serve
run with ``repro serve run --metrics-port ...``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.monitor.export import prometheus_text
from repro.telemetry.metrics import quantile
from repro.telemetry.profiler import budget_gauges
from repro.telemetry.registry import MetricRegistry, merge_aggregates

__all__ = [
    "MetricsServer",
    "serve_snapshot",
    "merge_snapshots",
    "snapshot_from_logs",
    "render_top",
    "top",
]


def serve_snapshot(recorder=None, *, profiler=None, monitor=None,
                   journeys=None, extra: "dict | None" = None) -> dict:
    """One consistent snapshot of a (possibly mid-flight) run.

    Keys: ``aggregate`` — the recorder's aggregate, with the profiler's
    :func:`budget_gauges` and the monitor's ``gauges()`` set over it
    under the recorder's base labels, exactly the series the drain path
    writes — ``journeys`` (exemplar payload, when a
    :class:`~repro.telemetry.journey.JourneyRecorder` is attached),
    ``time``, and anything in ``extra`` (run identity).
    """
    agg: "dict[str, Any]" = {}
    if recorder is not None and getattr(recorder, "enabled", False):
        agg = recorder.aggregate()
    gauges: "list[tuple]" = []
    if profiler is not None and getattr(profiler, "enabled", False):
        gauges += budget_gauges(profiler.budget())
    if monitor is not None:
        gauges += monitor.gauges()
    if gauges:
        registry = getattr(recorder, "registry", None)
        scratch = MetricRegistry(getattr(registry, "base_labels", None))
        for name, labels, value in gauges:
            scratch.gauge_set(name, value, labels=labels)
        agg["gauges"] = dict(sorted(
            {**agg.get("gauges", {}), **scratch.snapshot()["gauges"]}.items()))
    snap: "dict[str, Any]" = {"time": time.time(), "aggregate": agg}
    if journeys is not None:
        snap["journeys"] = journeys.exemplar_payload()
    if extra:
        snap.update(extra)
    return snap


def merge_snapshots(snaps: "list[dict]") -> dict:
    """Fold N per-shard ``/snapshot`` payloads into one fleet snapshot.

    The aggregates merge losslessly (shard-labeled series stay distinct,
    see :func:`repro.telemetry.merge_aggregates`), the exemplar tables
    fold per :func:`~repro.telemetry.journey.merge_exemplar_payloads`,
    and the run identities concatenate.  The result renders through the
    same :func:`render_top` as a single-shard snapshot — that is the
    whole point: ``repro serve top url0 url1 ...`` is the fleet
    dashboard.
    """
    if not snaps:
        raise ValueError("no snapshots to merge")
    if len(snaps) == 1:
        return dict(snaps[0])
    merged: "dict[str, Any]" = {
        "time": max((s.get("time", 0.0) for s in snaps), default=0.0),
        "aggregate": merge_aggregates([s.get("aggregate", {}) for s in snaps]),
        "merged_from": len(snaps),
    }
    journeys = [s["journeys"] for s in snaps if s.get("journeys")]
    if journeys:
        from repro.telemetry.journey import merge_exemplar_payloads

        merged["journeys"] = merge_exemplar_payloads(journeys)
    shards_seen = sorted({sid for s in snaps
                          for sid in s.get("shards_seen", [])})
    if shards_seen:
        merged["shards_seen"] = shards_seen
    runs = [str(s["run"]) for s in snaps if s.get("run")]
    if runs:
        merged["run"] = " + ".join(runs)
    return merged


def snapshot_from_logs(paths) -> dict:
    """A fleet snapshot from JSONL run logs instead of live endpoints.

    The offline twin of merging ``/snapshot`` scrapes: each log of a
    finished (or crashed) run becomes the snapshot its run would have
    served at drain — metric aggregate (the drained budget and SLO
    gauges included), its ``journey_exemplars`` payload, and its shard
    identity from the meta header — and :func:`merge_snapshots` folds
    them into the payload ``repro serve top --log`` renders.  A
    truncated log whose metric lines were lost (the recorder writes them
    *last*) still contributes its shard to the dashboard's per-shard
    table.
    """
    from pathlib import Path

    from repro.telemetry.journey import EXEMPLAR_EVENT, merge_exemplar_payloads
    from repro.telemetry.jsonl import aggregate_events, load_run, meta_of, shard_of

    snaps: "list[dict]" = []
    for p in paths:
        events = load_run(p)
        snap = {"time": time.time(), "aggregate": aggregate_events(events),
                "run": Path(p).stem}
        exemplars = merge_exemplar_payloads(
            ev for ev in events
            if ev.get("type") == "event" and ev.get("name") == EXEMPLAR_EVENT)
        if exemplars:
            snap["journeys"] = exemplars
        shard = shard_of(meta_of(events))
        if shard is not None:
            snap["shards_seen"] = [shard]
        snaps.append(snap)
    return merge_snapshots(snaps)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?")[0]
        try:
            if path == "/metrics":
                body = prometheus_text(self.server.snapshot_fn()["aggregate"])
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/snapshot":
                body = json.dumps(self.server.snapshot_fn(), sort_keys=True,
                                  default=float)
                ctype = "application/json"
            elif path == "/healthz":
                body, ctype = "ok\n", "text/plain"
            else:
                self.send_error(404, "unknown path (try /metrics, /snapshot)")
                return
        except Exception as exc:  # surface snapshot bugs to the scraper
            self.send_error(500, f"snapshot failed: {type(exc).__name__}: {exc}")
            return
        payload = body.encode()
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args) -> None:  # silence per-request noise
        pass


class MetricsServer:
    """Background ``/metrics`` + ``/snapshot`` HTTP server.

    The port is bound here (``OSError`` when it is taken; ``port=0``
    picks a free ephemeral one, read back from ``.port``), but listened
    on only from :meth:`start`: until then a client is refused at once
    instead of queueing for a run that has not begun.  ``snapshot_fn``
    is called once per request from the server thread; it must be
    thread-safe against the recording run (``serve_snapshot`` over a
    live recorder is — the aggregate is taken under the registry lock).
    """

    def __init__(self, snapshot_fn: "Callable[[], dict]", *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _Handler,
                                          bind_and_activate=False)
        try:
            self._httpd.server_bind()
        except BaseException:
            self._httpd.server_close()
            raise
        self._httpd.daemon_threads = True
        self._httpd.snapshot_fn = snapshot_fn  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None
        self.port = self._httpd.server_address[1]
        self.url = f"http://{host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._httpd.server_activate()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the port (a never-started server too)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --------------------------------------------------------------------- #
# `repro serve top`.
# --------------------------------------------------------------------- #


#: Columns of the dashboard's title rule.
_TOP_WIDTH = 78

#: The per-shard table's counter columns.
_SHARD_COLUMNS = ("serve/windows", "serve/arrived", "serve/completed",
                  "serve/failed", "serve/shed", "serve/requeued")


def _bar(frac: float, width: int = 24) -> str:
    frac = min(max(frac, 0.0), 1.0)
    filled = int(round(frac * width))
    return "#" * filled + "." * (width - filled)


def _fold(agg: dict, name: str, by: "str | None" = None) -> dict:
    """Series ``name`` folded over its label sets, one value per value of
    label ``by`` (all under ``None`` without ``by``).

    The fleet rules, stated once: counters, totals and histogram buckets
    sum; percentiles, burn rates and firing flags take the worst label
    set's (a fleet's tail is at least its worst shard's); coverage takes
    the weakest's.  A histogram folds to one merged state.
    """
    groups: "dict[Any, list[dict]]" = {}
    for section in ("counters", "gauges", "histograms"):
        for key, state in agg.get(section, {}).items():
            if key.split("{", 1)[0] == name:
                group = state.get("labels", {}).get(by) if by else None
                groups.setdefault(group, []).append(state)
    if "coverage" in name:
        pick = min
    elif any(tag in name for tag in ("_p50", "_p95", "_burn", "_firing")):
        pick = max
    else:
        pick = sum
    return {
        group: (merge_aggregates({"histograms": {name: s}} for s in states)
                ["histograms"][name] if "bounds" in states[0]
                else pick(s.get("value", 0.0) for s in states))
        for group, states in groups.items()
    }


def render_top(snap: dict) -> str:
    """Render one ``/snapshot`` payload as the terminal dashboard.

    Pure text-in/text-out (no sockets, no clearing), so the dashboard
    layout is unit-testable; :func:`top` owns the refresh loop.  Every
    number is a series of ``snap["aggregate"]`` read through
    :func:`_fold`, so a labeled run, an unlabeled one and a merged fleet
    render alike.
    """
    agg = snap.get("aggregate", {})

    def total(name: str) -> float:
        return _fold(agg, name).get(None, 0.0)

    lines = [f"repro serve top — {snap.get('run', 'serve')}".ljust(_TOP_WIDTH),
             "-" * _TOP_WIDTH,
             f"windows {total('serve/windows'):>6.0f}   "
             f"arrived {total('serve/arrived'):>6.0f}   "
             f"shed {total('serve/shed'):>5.0f}   "
             f"requeued {total('serve/requeued'):>5.0f}"]
    qd = _fold(agg, "serve/queue_depth").get(None)
    if qd is not None:
        lines.append(f"queue depth p95: {quantile(qd, 0.95):.0f}  "
                     f"(over {qd.get('count', 0)} windows)")

    # Fleet view: when series carry shard labels, break the totals down
    # per shard (sorted numerically where possible).  Shard identities
    # come from *every* shard-labeled series (any kind) plus the
    # snapshot's ``shards_seen`` meta-header roll call — a shard whose
    # metric lines were lost to truncation (the recorder writes them
    # last) must still get a row rather than silently vanish.
    shards = {str(state["labels"]["shard"])
              for section in ("counters", "gauges", "histograms")
              for state in agg.get(section, {}).values()
              if "shard" in state.get("labels", {})}
    shards.update(str(sid) for sid in snap.get("shards_seen", []))
    if shards:
        cols = [_fold(agg, name, by="shard") for name in _SHARD_COLUMNS]
        qds = _fold(agg, "serve/queue_depth", by="shard")
        lines += ["", f"shards ({len(shards)}):",
                  "  shard   windows  arrived  completed  failed  "
                  "shed  requeued  qd_p95"]
        for shard in sorted(shards, key=lambda s: (not s.isdigit(),
                                                   int(s) if s.isdigit() else 0,
                                                   s)):
            w, a, c, f, sh, rq = (col.get(shard, 0) for col in cols)
            qd_p95 = f"{quantile(qds[shard], 0.95):.0f}" if shard in qds else "-"
            lines.append(f"  {shard:<7} {w:>7.0f} {a:>8.0f} {c:>10.0f} "
                         f"{f:>7.0f} {sh:>5.0f} {rq:>9.0f} {qd_p95:>7}")

    bases = {key.split("{", 1)[0] for section in ("counters", "gauges")
             for key in agg.get(section, {})}
    seed = {base[len("serve/seed_"):]: total(base)
            for base in bases if base.startswith("serve/seed_")}
    if seed:
        whole = sum(seed.values()) or 1.0
        lines += ["", "seed sources:"]
        for src in sorted(seed):
            frac = seed[src] / whole
            lines.append(f"  {src:<8} {_bar(frac)} {seed[src]:>6.0f} "
                         f"({100 * frac:5.1f}%)")

    windows = total("serve/profile_windows")
    if windows:
        lines += ["", f"latency budget over {windows:.0f} windows "
                      f"(e2e p95 {1e3 * total('serve/window_p95_s'):.2f} ms, "
                      f"coverage {100 * total('serve/profile_coverage_p95'):.1f}%):"]
        e2e_s = total("serve/window_total_s") or 1.0
        stage_s = _fold(agg, "serve/stage_total_s", by="stage")
        stage_p95 = _fold(agg, "serve/stage_p95_s", by="stage")
        # Depth-1 budget view, the unattributed residual last; children
        # show in the flamegraph.
        for path in [p for p in sorted(stage_s)
                     if ";" not in p and p != "unattributed"] + ["unattributed"]:
            frac = stage_s.get(path, 0.0) / e2e_s
            label = "(unattr)" if path == "unattributed" else path
            lines.append(f"  {label:<10} {_bar(frac)} "
                         f"{1e3 * stage_p95.get(path, 0.0):>8.3f} ms p95"
                         f" ({100 * frac:5.1f}%)")
        sim = [_fold(agg, f"serve/sim_stage_{q}", by="stage")
               for q in ("p50_h", "p95_h", "calls")]
        if sim[0]:
            lines.append("  simulated-time stages (platform hours):")
            for name in sorted(sim[0]):
                p50, p95, calls = (col.get(name, 0.0) for col in sim)
                lines.append(f"    {name:<16} p50 {p50:.3f}  "
                             f"p95 {p95:.3f}  calls {calls:.0f}")

    journeys = snap.get("journeys")
    if journeys and journeys.get("buckets"):
        lines.append("")
        lines.append(
            f"wait exemplars (journeys: {journeys.get('emitted', 0)} emitted, "
            f"{journeys.get('forced', 0)} forced, "
            f"sample {journeys.get('sample', 0.0):g}):")
        lines.append("  wait<=h   tasks  worst trace        task   wait_h")
        for b in journeys["buckets"]:
            le = b.get("le")
            # The overflow bucket's bound is the string "+Inf".
            le_s = f"{le:g}" if isinstance(le, (int, float)) else "+inf"
            lines.append(
                f"  {le_s:<9} {b.get('count', 0):>5}  "
                f"{b.get('trace', '-'): <16}  "
                f"{b.get('task_id', '-')!s:>5}  "
                f"{b.get('wait_hours', 0.0):>6.3f}")

    rules = sorted(base[len("monitor/slo_"):-len("_fast_burn")] for base in bases
                   if base.startswith("monitor/slo_") and base.endswith("_fast_burn"))
    if rules:
        lines += ["", f"SLO burn rates ({total('monitor/alerts_total'):.0f} alerts):"]
        for name in rules:
            fast, slow, firing = (total(f"monitor/slo_{name}_{q}")
                                  for q in ("fast_burn", "slow_burn", "firing"))
            lines.append(f"  {name:<24} fast {fast:6.2f}  slow {slow:6.2f}  "
                         f"{'FIRING' if firing else 'ok'}")
    return "\n".join(lines)


def fetch_snapshot(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/snapshot`` and parse it (``ValueError`` when the body
    is not a JSON object)."""
    base = url.rstrip("/")
    if not base.startswith("http"):
        base = f"http://{base}"
    with urllib.request.urlopen(f"{base}/snapshot", timeout=timeout) as resp:
        snap = json.loads(resp.read().decode())
    if not isinstance(snap, dict):
        raise ValueError(f"expected a JSON object, got {type(snap).__name__}")
    return snap


def top(url: "str | list[str]", *, interval: float = 2.0,
        iterations: "int | None" = None) -> int:
    """Refresh loop: fetch ``/snapshot``(s), merge, clear, redraw on stdout.

    ``url`` may be one endpoint or a list — several endpoints are the
    fleet view: each refresh scrapes all of them and renders the
    :func:`merge_snapshots` fold (per-shard breakdown included).
    ``iterations=None`` runs until interrupted (Ctrl-C exits cleanly);
    ``iterations=1`` is the scriptable ``--once`` mode.  Returns a shell
    exit code: 1 when an endpoint is unreachable or does not answer
    with a snapshot.
    """
    urls = [url] if isinstance(url, str) else list(url)
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    n = 0
    try:
        while iterations is None or n < iterations:
            if n:
                time.sleep(interval)
            snaps = []
            for u in urls:
                try:
                    snaps.append(fetch_snapshot(u))
                except (urllib.error.HTTPError, ValueError) as exc:
                    print(f"serve top: cannot read snapshot from {u}: {exc}")
                    return 1
                except OSError as exc:
                    print(f"serve top: cannot reach {u}: {exc}")
                    return 1
            print(f"{clear}{render_top(merge_snapshots(snaps))}", flush=True)
            n += 1
    except KeyboardInterrupt:
        pass
    return 0
