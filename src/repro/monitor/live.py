"""Live metrics plane: HTTP ``/metrics`` scrape endpoint + terminal top.

PR 4's Prometheus export was an offline text dump — useful after a run,
invisible during one.  This module puts the same exposition behind a
stdlib HTTP server that snapshots the *running* recorder, and adds the
``repro serve top`` terminal dashboard that refreshes against it:

- :class:`MetricsServer` — ``http.server.ThreadingHTTPServer`` on a
  daemon thread serving ``/metrics`` (Prometheus text),
  ``/snapshot`` (the full JSON status snapshot ``serve top`` renders)
  and ``/healthz``.  Every request calls the ``snapshot_fn`` closure,
  which reads the recorder's aggregate *under the registry lock*
  (``Recorder.aggregate()`` is lock-guarded), so a scrape mid-window
  always sees a consistent view and never blocks the serving loop for
  longer than one snapshot copy;
- :func:`serve_snapshot` — builds that closure's payload from the live
  recorder / profiler / quality monitor: canonical aggregate, stage
  budget, queue/seed/SLO status;
- :func:`render_top` — a *pure* snapshot → text function (unit-testable
  without sockets) showing queue depth, seed sources, per-stage latency
  budgets and SLO burn rates;
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
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, TextIO

from repro.monitor.export import prometheus_text
from repro.telemetry.metrics import quantile
from repro.telemetry.profiler import budget_gauges
from repro.telemetry.registry import merge_aggregates, series_key

__all__ = [
    "MetricsServer",
    "serve_snapshot",
    "merge_snapshots",
    "snapshot_from_logs",
    "render_top",
    "top",
]


def _fold_histograms(agg: dict, base: str) -> "dict | None":
    """Fold every label set of histogram ``base`` into one state.

    Shard-labeled recorders write e.g. ``serve/queue_depth{shard="0"}``;
    a fleet-level quantile needs the bucket counts summed across shards
    (same bounds by construction — all shards run the same recorder
    config).  Returns ``None`` when no series matches.
    """
    states = [h for key, h in agg.get("histograms", {}).items()
              if key.split("{", 1)[0] == base]
    if not states:
        return None
    if len(states) == 1:
        return states[0]
    merged = merge_aggregates({"histograms": {base: h}} for h in states)
    return merged["histograms"][base]


def _status_from_aggregate(agg: dict) -> "dict[str, Any]":
    """Queue-depth / seed-source status lines, from an aggregate alone."""
    status: "dict[str, Any]" = {}
    qd = _fold_histograms(agg, "serve/queue_depth")
    if qd is not None:
        status["queue_depth_p95"] = quantile(qd, 0.95)
        status["windows_observed"] = qd.get("count", 0)
    seed: "dict[str, float]" = {}
    for key, state in agg.get("counters", {}).items():
        base = key.split("{", 1)[0]
        if base.startswith("serve/seed_"):
            src = base.rsplit("_", 1)[-1]
            seed[src] = seed.get(src, 0.0) + state.get("value", 0.0)
    if seed:
        status["seed_sources"] = seed
    return status


def serve_snapshot(recorder=None, *, profiler=None, monitor=None,
                   journeys=None, extra: "dict | None" = None) -> dict:
    """One consistent status snapshot of a (possibly mid-flight) run.

    Keys: ``aggregate`` (canonical telemetry aggregate), ``profile``
    (stage budget, when a profiler is attached), ``status`` (queue
    depth / seed sources / SLO burn rates / alert count), ``journeys``
    (wait-histogram exemplar payload, when a
    :class:`~repro.telemetry.journey.JourneyRecorder` is attached) and
    anything in ``extra`` (run identity, config hints).
    """
    snap: "dict[str, Any]" = {"time": time.time()}
    agg: "dict[str, Any]" = {}
    if recorder is not None and getattr(recorder, "enabled", False):
        agg = recorder.aggregate()
    snap["aggregate"] = agg
    if profiler is not None and getattr(profiler, "enabled", False):
        snap["profile"] = profiler.budget()
    if journeys is not None:
        snap["journeys"] = journeys.exemplar_payload()
    status = _status_from_aggregate(agg)
    if monitor is not None:
        try:
            status["slo"] = monitor.slo.state()
            status["alerts"] = len(monitor.alert_log())
        except Exception:  # monitor mid-mutation: skip, never break a scrape
            pass
    snap["status"] = status
    if extra:
        snap.update(extra)
    return snap


def _merge_profiles(profiles: "list[dict]") -> dict:
    """Fold per-shard stage budgets into one fleet budget.

    Totals and call counts are exact sums; per-stage p95 takes the worst
    shard (conservative — a fleet's tail is at least its worst shard's)
    and coverage the weakest shard's.  Sim-time stages merge the same
    way.
    """
    def fold(dicts: "list[dict]") -> dict:
        out: "dict[str, Any]" = {"total_s": 0.0, "calls": 0, "p95": 0.0}
        for s in dicts:
            out["total_s"] += s.get("total_s", 0.0)
            out["calls"] += s.get("calls", 0)
            out["p95"] = max(out["p95"], s.get("p95", 0.0))
        return out

    merged: "dict[str, Any]" = {
        "windows": sum(p.get("windows", 0) for p in profiles),
        "e2e": fold([p.get("e2e", {}) for p in profiles]),
        "unattributed": fold([p.get("unattributed", {}) for p in profiles]),
        "coverage_p95": min((p.get("coverage_p95", 0.0) for p in profiles),
                            default=0.0),
    }
    stage_keys: "list[str]" = []
    for p in profiles:
        for path in p.get("stages", {}):
            if path not in stage_keys:
                stage_keys.append(path)
    merged["stages"] = {
        path: fold([p["stages"][path] for p in profiles
                    if path in p.get("stages", {})])
        for path in stage_keys
    }
    sim_keys: "list[str]" = []
    for p in profiles:
        for name in p.get("sim_stages", {}):
            if name not in sim_keys:
                sim_keys.append(name)
    if sim_keys:
        merged["sim_stages"] = {}
        for name in sim_keys:
            entries = [p["sim_stages"][name] for p in profiles
                       if name in p.get("sim_stages", {})]
            merged["sim_stages"][name] = {
                "p50": max(e.get("p50", 0.0) for e in entries),
                "p95": max(e.get("p95", 0.0) for e in entries),
                "calls": sum(e.get("calls", 0) for e in entries),
            }
    return merged


def merge_snapshots(snaps: "list[dict]") -> dict:
    """Fold N per-shard ``/snapshot`` payloads into one fleet snapshot.

    The aggregates merge losslessly (shard-labeled series stay distinct,
    see :func:`repro.telemetry.merge_aggregates`), the fleet status is
    recomputed from the *merged* aggregate (queue-depth p95 over the
    summed bucket counts, seed sources summed), SLO rule states
    concatenate and alert counts sum, and stage budgets fold per
    :func:`_merge_profiles`.  The result renders through the same
    :func:`render_top` as a single-shard snapshot — that is the whole
    point: ``repro serve top url0 url1 ...`` is the fleet dashboard.
    """
    if not snaps:
        raise ValueError("no snapshots to merge")
    if len(snaps) == 1:
        return dict(snaps[0])
    agg = merge_aggregates([s.get("aggregate", {}) for s in snaps])
    merged: "dict[str, Any]" = {
        "time": max((s.get("time", 0.0) for s in snaps), default=0.0),
        "aggregate": agg,
        "merged_from": len(snaps),
    }
    profiles = [s["profile"] for s in snaps if s.get("profile")]
    if profiles:
        merged["profile"] = _merge_profiles(profiles)
    status = _status_from_aggregate(agg)
    if any("alerts" in s.get("status", {}) for s in snaps):
        status["alerts"] = sum(s.get("status", {}).get("alerts", 0)
                               for s in snaps)
    slo = [rule for s in snaps for rule in s.get("status", {}).get("slo", [])]
    if slo:
        status["slo"] = slo
    merged["status"] = status
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
    served — metric aggregate, status, its ``journey_exemplars``
    payload, and its shard identity from the meta header — and
    :func:`merge_snapshots` folds them into the payload ``repro serve
    top --log`` renders.  Lossless by the same argument (shard-labeled
    series merge by full series key), and a truncated log whose metric
    lines were lost (the recorder writes them *last*) still contributes
    its shard to the dashboard's per-shard table.
    """
    from pathlib import Path

    from repro.telemetry.journey import EXEMPLAR_EVENT, merge_exemplar_payloads
    from repro.telemetry.jsonl import aggregate_events, load_run, meta_of, shard_of

    snaps: "list[dict]" = []
    for p in paths:
        events = load_run(p)
        agg = aggregate_events(events)
        snap = {"time": time.time(), "aggregate": agg,
                "status": _status_from_aggregate(agg), "run": Path(p).stem}
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


def _scrape_aggregate(snap: dict) -> dict:
    """The aggregate to expose on ``/metrics``: the recorder's, plus the
    live stage budget folded in as labeled gauges (the dispatcher only
    writes its end-of-run stage gauges at drain time — a mid-run scrape
    must see the budget too)."""
    agg = dict(snap.get("aggregate", {}))
    profile = snap.get("profile")
    drained = any(  # dispatcher already wrote its end-of-run stage gauges
        key.split("{", 1)[0] == "serve/stage_total_s"
        for key in agg.get("gauges", {}))
    if profile and profile.get("windows") and not drained:
        gauges = dict(agg.get("gauges", {}))
        for name, labels, value, calls in budget_gauges(profile):
            gauges[series_key(name, labels)] = {
                "value": value, "calls": calls, **({"labels": labels} if labels else {})}
        agg["gauges"] = gauges
    return agg


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            if self.path.split("?")[0] == "/metrics":
                body = prometheus_text(_scrape_aggregate(self.server.snapshot_fn()))
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif self.path.split("?")[0] == "/snapshot":
                body = json.dumps(self.server.snapshot_fn(), sort_keys=True,
                                  default=float)
                ctype = "application/json"
            elif self.path.split("?")[0] == "/healthz":
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

    ``snapshot_fn`` is called once per request from the server thread; it
    must be thread-safe against the recording run (``serve_snapshot``
    over a live recorder is — the aggregate is taken under the registry
    lock).  ``port=0`` picks a free ephemeral port; read ``.port`` after
    :meth:`start`.
    """

    def __init__(self, snapshot_fn: "Callable[[], dict]", *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.snapshot_fn = snapshot_fn
        self.host = host
        self._requested_port = port
        self._httpd: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        httpd.daemon_threads = True
        httpd.snapshot_fn = self.snapshot_fn  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-metrics", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --------------------------------------------------------------------- #
# `repro serve top`.
# --------------------------------------------------------------------- #


#: Columns of the dashboard's title rule.
_TOP_WIDTH = 78


def _bar(frac: float, width: int = 24) -> str:
    frac = min(max(frac, 0.0), 1.0)
    filled = int(round(frac * width))
    return "#" * filled + "." * (width - filled)


def render_top(snap: dict) -> str:
    """Render one ``/snapshot`` payload as the terminal dashboard.

    Pure text-in/text-out (no sockets, no clearing), so the dashboard
    layout is unit-testable; :func:`top` owns the refresh loop.
    """
    lines: "list[str]" = []
    run = snap.get("run", "serve")
    lines.append(f"repro serve top — {run}".ljust(_TOP_WIDTH))
    lines.append("-" * _TOP_WIDTH)

    status = snap.get("status", {})
    agg = snap.get("aggregate", {})
    counters = agg.get("counters", {})

    def cval(name: str) -> float:
        # Sum across label sets: a shard-labeled run has no unlabeled key.
        return sum(state.get("value", 0.0) for key, state in counters.items()
                   if key.split("{", 1)[0] == name)

    lines.append(
        f"windows {cval('serve/windows'):>6.0f}   "
        f"arrived {cval('serve/arrived'):>6.0f}   "
        f"shed {cval('serve/shed'):>5.0f}   "
        f"requeued {cval('serve/requeued'):>5.0f}"
    )
    if "queue_depth_p95" in status:
        lines.append(f"queue depth p95: {status['queue_depth_p95']:.0f}  "
                     f"(over {status.get('windows_observed', 0)} windows)")

    # Fleet view: when series carry shard labels, break the totals down
    # per shard (sorted numerically where possible).  Shard identities
    # come from *every* shard-labeled series (any kind) plus the
    # snapshot's ``shards_seen`` meta-header roll call — a shard whose
    # metric lines were lost to truncation (the recorder writes them
    # last) must still get a row rather than silently vanish.
    shards: "dict[str, dict[str, float]]" = {}
    for section in ("counters", "gauges", "histograms"):
        for key, state in agg.get(section, {}).items():
            shard = state.get("labels", {}).get("shard")
            if shard is not None:
                shards.setdefault(str(shard), {})
    for sid in snap.get("shards_seen", []):
        shards.setdefault(str(sid), {})
    for key, state in counters.items():
        shard = state.get("labels", {}).get("shard")
        if shard is None:
            continue
        base = key.split("{", 1)[0]
        if base in ("serve/windows", "serve/arrived", "serve/completed",
                    "serve/failed", "serve/shed", "serve/requeued"):
            row = shards.setdefault(str(shard), {})
            row[base] = row.get(base, 0.0) + state.get("value", 0.0)
    if shards:
        lines.append("")
        lines.append(f"shards ({len(shards)}):")
        lines.append("  shard   windows  arrived  completed  failed  "
                     "shed  requeued  qd_p95")
        for shard in sorted(shards, key=lambda s: (not s.isdigit(),
                                                   int(s) if s.isdigit() else 0,
                                                   s)):
            row = shards[shard]
            qd = next(
                (h for key, h in agg.get("histograms", {}).items()
                 if key.split("{", 1)[0] == "serve/queue_depth"
                 and h.get("labels", {}).get("shard") == shard), None)
            qd_p95 = f"{quantile(qd, 0.95):.0f}" if qd is not None else "-"
            lines.append(
                f"  {shard:<7} {row.get('serve/windows', 0):>7.0f} "
                f"{row.get('serve/arrived', 0):>8.0f} "
                f"{row.get('serve/completed', 0):>10.0f} "
                f"{row.get('serve/failed', 0):>7.0f} "
                f"{row.get('serve/shed', 0):>5.0f} "
                f"{row.get('serve/requeued', 0):>9.0f} "
                f"{qd_p95:>7}")

    seed = status.get("seed_sources")
    if seed:
        total = sum(seed.values()) or 1.0
        lines.append("")
        lines.append("seed sources:")
        for src in sorted(seed):
            frac = seed[src] / total
            lines.append(f"  {src:<8} {_bar(frac)} {seed[src]:>6.0f} "
                         f"({100 * frac:5.1f}%)")

    profile = snap.get("profile")
    if profile and profile.get("windows"):
        e2e = profile.get("e2e", {})
        lines.append("")
        lines.append(f"latency budget over {profile['windows']} windows "
                     f"(e2e p95 {1e3 * e2e.get('p95', 0.0):.2f} ms, "
                     f"coverage {100 * profile.get('coverage_p95', 0.0):.1f}%):")
        total_s = e2e.get("total_s", 0.0) or 1.0
        for path, s in profile["stages"].items():
            if ";" in path:
                continue  # depth-1 budget view; children show in flamegraph
            frac = s["total_s"] / total_s
            lines.append(f"  {path:<10} {_bar(frac)} {1e3 * s['p95']:>8.3f} ms p95"
                         f" ({100 * frac:5.1f}%)")
        unattr = profile.get("unattributed", {})
        frac = unattr.get("total_s", 0.0) / total_s
        lines.append(f"  {'(unattr)':<10} {_bar(frac)} "
                     f"{1e3 * unattr.get('p95', 0.0):>8.3f} ms p95"
                     f" ({100 * frac:5.1f}%)")
        sim = profile.get("sim_stages", {})
        if sim:
            lines.append("  simulated-time stages (platform hours):")
            for name, s in sim.items():
                lines.append(f"    {name:<16} p50 {s['p50']:.3f}  "
                             f"p95 {s['p95']:.3f}  calls {s['calls']}")

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

    slo = status.get("slo")
    if slo:
        lines.append("")
        lines.append(f"SLO burn rates ({status.get('alerts', 0)} alerts):")
        for s in slo:
            lines.append(f"  {s.get('name', '?'):<24} "
                         f"fast {s.get('fast_burn', 0.0):6.2f}  "
                         f"slow {s.get('slow_burn', 0.0):6.2f}  "
                         f"{'FIRING' if s.get('firing') else 'ok'}")
    return "\n".join(lines)


def fetch_snapshot(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/snapshot`` and parse it."""
    base = url.rstrip("/")
    if not base.startswith("http"):
        base = f"http://{base}"
    with urllib.request.urlopen(f"{base}/snapshot", timeout=timeout) as resp:
        return json.loads(resp.read().decode())


def top(url: "str | list[str]", *, interval: float = 2.0,
        iterations: "int | None" = None,
        stream: "TextIO | None" = None) -> int:
    """Refresh loop: fetch ``/snapshot``(s), merge, clear, redraw.

    ``url`` may be one endpoint or a list — several endpoints are the
    fleet view: each refresh scrapes all of them and renders the
    :func:`merge_snapshots` fold (per-shard breakdown included).
    ``iterations=None`` runs until interrupted (Ctrl-C exits cleanly);
    ``iterations=1`` is the scriptable ``--once`` mode.  Returns a shell
    exit code.
    """
    urls = [url] if isinstance(url, str) else list(url)
    out = stream or sys.stdout
    clear = "\x1b[2J\x1b[H" if out.isatty() else ""
    n = 0
    try:
        while iterations is None or n < iterations:
            if n:
                time.sleep(interval)
            try:
                snap = merge_snapshots([fetch_snapshot(u) for u in urls])
            except OSError as exc:
                targets = urls[0] if len(urls) == 1 else ", ".join(urls)
                print(f"serve top: cannot reach {targets}: {exc}", file=out)
                return 1
            print(f"{clear}{render_top(snap)}", file=out, flush=True)
            n += 1
    except KeyboardInterrupt:
        pass
    return 0
