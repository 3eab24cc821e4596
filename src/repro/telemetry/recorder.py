"""The run-scoped telemetry recorder and the module-level instrument API.

One :class:`Recorder` covers one run (an experiment invocation, a
benchmark fit, a simulation).  It owns

- the span aggregate (total seconds / call count / error count per path),
- the metric registry (counters, gauges, histograms),
- the ordered event log, sunk to JSONL (one file per run under
  ``results/telemetry/``) when the mode is ``"jsonl"``,
- the end-of-run console summary table.

Activation is contextvar-scoped: ``with recorder.activate(): ...`` (or the
:func:`recording` convenience) makes the recorder visible to every
instrumented call site below it on the stack.  When nothing is active, the
shared :data:`NULL` recorder is returned — its instruments are no-ops and
its ``enabled`` flag is ``False``, so every call site pays exactly one
attribute check in the disabled mode (asserted by the <2% overhead gate in
``benchmarks/bench_micro.py``).

JSONL schema (versioned; see DESIGN.md §8 and §14):

- line 1: ``{"schema": 3, "type": "meta", "run": ..., "git_sha": ...,
  "config": ..., "seeds": ..., ...}``
- span close: ``{"type": "span", "seq": n, "path": ..., "dur_s": ...,
  "ok": ...}``
- explicit events: ``{"type": "event", "seq": n, "name": ..., ...}``
- on close, one ``{"type": "metric", "kind": ..., "name": ..., ...}`` line
  per instrument (sorted by kind then name) and a final
  ``{"type": "span_summary", ...}`` line per span path (sorted by path).

A metric line's ``name`` is the full series key (``metric{k="v",...}``
for labeled series) and labeled states carry a ``labels`` object.
Per-task ``journey`` / ``journey_exemplars`` lines
(:mod:`repro.telemetry.journey`) are plain events.

Events carry a monotonically increasing ``seq`` and metric/summary lines
are emitted in sorted order, so the *content ordering* of a run log is
deterministic and two runs under the same seed are diffable line-by-line
(durations differ, structure does not).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from repro.telemetry.metrics import quantile
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.spans import NULL_SPAN, Span, _NullSpan

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
]

SCHEMA_VERSION = 3
#: Schemas :func:`repro.telemetry.jsonl.load_run` accepts.
SUPPORTED_SCHEMAS = (SCHEMA_VERSION,)
MODES = ("off", "summary", "jsonl")
DEFAULT_DIR = Path("results") / "telemetry"


class NullRecorder:
    """Disabled recorder: every instrument is a no-op."""

    enabled = False
    mode = "off"
    events_recorded = 0

    def span(self, name: str) -> _NullSpan:
        return NULL_SPAN

    def counter_add(self, name: str, amount: float = 1.0,
                    labels: dict | None = None) -> None:
        pass

    def gauge_set(self, name: str, value: float,
                  labels: dict | None = None) -> None:
        pass

    def observe(self, name: str, value: float, n: int = 1,
                bounds: tuple[float, ...] | None = None,
                labels: dict | None = None) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def _record_span(self, path: str, dur: float, ok: bool) -> None:
        pass


NULL = NullRecorder()

_CURRENT: ContextVar["Recorder | NullRecorder"] = ContextVar(
    "repro_telemetry_recorder", default=NULL
)


def get_recorder() -> "Recorder | NullRecorder":
    """The active recorder (the shared no-op :data:`NULL` when none is)."""
    return _CURRENT.get()


class Recorder:
    """Run-scoped sink for spans, metrics and events (see module docs)."""

    enabled = True

    def __init__(
        self,
        mode: str = "summary",
        *,
        run: str = "run",
        out_dir: str | Path | None = None,
        meta: dict | None = None,
        stream: TextIO | None = None,
        labels: dict | None = None,
    ) -> None:
        if mode not in ("summary", "jsonl"):
            raise ValueError(f"mode must be 'summary' or 'jsonl', got {mode!r}")
        if any(c in run for c in "/\\"):
            raise ValueError(f"run name must not contain path separators: {run!r}")
        self.mode = mode
        self.run = run
        self.out_dir = Path(out_dir) if out_dir is not None else DEFAULT_DIR
        self.meta = dict(meta or {})
        self.stream = stream
        self.events_recorded = 0
        self.closed = False
        self._seq = 0
        self._spans: dict[str, list] = {}  # path -> [total_s, calls, errors]
        #: metric series, keyed by name{labels}; base labels (e.g. shard
        #: identity) stamp every series this recorder writes.
        self.registry = MetricRegistry(base_labels=labels)
        self._lines: list[dict] = []  # buffered JSONL events (jsonl mode)
        if labels:
            self.meta.setdefault("labels", dict(self.registry.base_labels))

    # ------------------------------------------------------------------ #
    # Instruments.
    # ------------------------------------------------------------------ #

    def span(self, name: str) -> Span:
        return Span(name, self)

    def _record_span(self, path: str, dur: float, ok: bool) -> None:
        with self.registry.lock:
            agg = self._spans.get(path)
            if agg is None:
                agg = self._spans[path] = [0.0, 0, 0]
            agg[0] += dur
            agg[1] += 1
            if not ok:
                agg[2] += 1
        self.events_recorded += 1
        if self.mode == "jsonl":
            self._emit({"type": "span", "path": path, "dur_s": dur, "ok": ok})

    def counter_add(self, name: str, amount: float = 1.0,
                    labels: dict | None = None) -> None:
        self.registry.counter_add(name, amount, labels)
        self.events_recorded += 1

    def gauge_set(self, name: str, value: float,
                  labels: dict | None = None) -> None:
        self.registry.gauge_set(name, value, labels)
        self.events_recorded += 1

    def observe(self, name: str, value: float, n: int = 1,
                bounds: tuple[float, ...] | None = None,
                labels: dict | None = None) -> None:
        """Record into the named histogram series (created on first use
        with the given ``bounds``; later calls keep the original
        boundaries)."""
        self.registry.observe(name, value, n, bounds, labels)
        self.events_recorded += 1

    def event(self, name: str, **fields: Any) -> None:
        """Emit a discrete run event (warnings, fallbacks, milestones)."""
        self.events_recorded += 1
        if self.mode == "jsonl":
            self._emit({"type": "event", "name": name, **fields})

    def extend(self, events: "list[dict]") -> None:
        """Emit a block of events built as their lines (``type`` and
        ``name`` included; a flushed journey): :meth:`event` for each,
        in one call that stamps ``seq`` and keeps the dicts."""
        self.events_recorded += len(events)
        if self.mode == "jsonl":
            seq = self._seq
            for payload in events:
                payload["seq"] = seq
                seq += 1
            self._seq = seq
            self._lines.extend(events)

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    @contextmanager
    def activate(self) -> Iterator["Recorder"]:
        """Make this the recorder seen by all instrumented code below."""
        token = _CURRENT.set(self)
        try:
            yield self
        finally:
            _CURRENT.reset(token)

    def _emit(self, payload: dict) -> None:
        payload["seq"] = self._seq
        self._seq += 1
        self._lines.append(payload)

    def aggregate(self) -> dict:
        """Canonical aggregate view: the exact data the console summary
        renders, and what :func:`repro.telemetry.jsonl.aggregate_events`
        reconstructs from a JSONL run log.

        Taken under the registry lock, so a live scrape thread
        (:class:`repro.monitor.live.MetricsServer`) always sees a
        consistent snapshot while the run records.
        """
        with self.registry.lock:
            spans = {
                path: {"total_s": agg[0], "calls": agg[1], "errors": agg[2]}
                for path, agg in sorted(self._spans.items())
            }
            metrics = self.registry.snapshot()
        return {"spans": spans, **metrics}

    def summary_table(self) -> str:
        """End-of-run console summary of spans and metrics."""
        from repro.utils.tables import Table

        out: list[str] = []
        agg = self.aggregate()
        if agg["spans"]:
            t = Table(["span", "total(s)", "calls", "mean(ms)", "errors"],
                      title=f"telemetry spans — run '{self.run}'")
            for path, s in agg["spans"].items():
                t.add_row([path, f"{s['total_s']:.4f}", str(s["calls"]),
                           f"{1e3 * s['total_s'] / s['calls']:.3f}", str(s["errors"])])
            out.append(t.render())
        if agg["counters"] or agg["gauges"]:
            t = Table(["instrument", "kind", "value"], title="counters / gauges")
            for name, c in agg["counters"].items():
                t.add_row([name, "counter", f"{c['value']:g}"])
            for name, g in agg["gauges"].items():
                t.add_row([name, "gauge", f"{g['value']:g}"])
            out.append(t.render())
        if agg["histograms"]:
            t = Table(["histogram", "count", "mean", "min", "max", "p50~", "p95~"],
                      title="histograms")
            for name, h in agg["histograms"].items():
                if not h["count"]:
                    continue
                t.add_row([
                    name, str(h["count"]), f"{h['sum'] / h['count']:.3g}",
                    f"{h['min']:.3g}", f"{h['max']:.3g}",
                    f"{quantile(h, 0.5):.3g}", f"{quantile(h, 0.95):.3g}",
                ])
            out.append(t.render())
        return "\n\n".join(out) if out else "(no telemetry recorded)"

    @property
    def jsonl_path(self) -> Path:
        return self.out_dir / f"{self.run}.jsonl"

    def close(self) -> "Path | None":
        """Flush: write the JSONL file (jsonl mode) and print the summary.

        Returns the path of the written run log, or ``None`` in summary
        mode.  Idempotent.
        """
        if self.closed:
            return self.jsonl_path if self.mode == "jsonl" else None
        self.closed = True
        path: Path | None = None
        if self.mode == "jsonl":
            snap = self.registry.snapshot()
            for kind, section in (("counter", "counters"), ("gauge", "gauges"),
                                  ("histogram", "histograms")):
                for name, state in snap[section].items():
                    self._emit({"type": "metric", "kind": kind, "name": name,
                                **state})
            for p in sorted(self._spans):
                agg = self._spans[p]
                self._emit({"type": "span_summary", "path": p, "total_s": agg[0],
                            "calls": agg[1], "errors": agg[2]})
            head = {"schema": SCHEMA_VERSION, "type": "meta", "run": self.run,
                    **self.meta}
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path = self.jsonl_path
            encode = _line_encoder()
            with open(path, "w") as fh:
                fh.writelines(f"{encode(line)}\n" for line in [head, *self._lines])
        stream = self.stream or sys.stdout
        print(f"\n== telemetry summary ({self.mode}) ==", file=stream)
        print(self.summary_table(), file=stream)
        if path is not None:
            print(f"telemetry run log: {path}", file=stream)
        return path


def _line_encoder() -> "Callable[[dict], str]":
    """``json.dumps(line, sort_keys=True)``, byte for byte, as one encoder
    for a whole run log: the C encoder ``dumps`` builds per call, built
    once (plain ``encode`` where the interpreter has none)."""
    enc = json.JSONEncoder(sort_keys=True)
    if c_make_encoder is None:
        return enc.encode
    chunks = c_make_encoder({}, enc.default, encode_basestring_ascii, enc.indent,
                            enc.key_separator, enc.item_separator, enc.sort_keys,
                            enc.skipkeys, enc.allow_nan)
    return lambda line: "".join(chunks(line, 0))


# --------------------------------------------------------------------- #
# Module-level instrument API (goes through the active recorder; one
# branch per call when disabled).
# --------------------------------------------------------------------- #


def span(name: str) -> "Span | _NullSpan":
    """Open a span under the active recorder (no-op when disabled)."""
    return _CURRENT.get().span(name)


def counter_add(name: str, amount: float = 1.0,
                labels: dict | None = None) -> None:
    rec = _CURRENT.get()
    if rec.enabled:
        rec.counter_add(name, amount, labels)


def gauge_set(name: str, value: float, labels: dict | None = None) -> None:
    rec = _CURRENT.get()
    if rec.enabled:
        rec.gauge_set(name, value, labels)


def observe(name: str, value: float, n: int = 1,
            bounds: tuple[float, ...] | None = None,
            labels: dict | None = None) -> None:
    rec = _CURRENT.get()
    if rec.enabled:
        rec.observe(name, value, n, bounds, labels)


def event(name: str, **fields: Any) -> None:
    rec = _CURRENT.get()
    if rec.enabled:
        rec.event(name, **fields)


@contextmanager
def recording(
    mode: str = "summary",
    *,
    run: str = "run",
    out_dir: str | Path | None = None,
    meta: dict | None = None,
    stream: TextIO | None = None,
    labels: dict | None = None,
) -> Iterator["Recorder | NullRecorder"]:
    """Activate a fresh recorder for the body and close it on exit.

    ``mode="off"`` yields the shared :data:`NULL` recorder and records
    nothing (and touches no contextvar state).  ``labels`` become the
    recorder's base labels, stamped on every labeled series it records
    (the per-shard identity in a sharded deployment).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "off":
        yield NULL
        return
    rec = Recorder(mode, run=run, out_dir=out_dir, meta=meta, stream=stream,
                   labels=labels)
    with rec.activate():
        try:
            yield rec
        finally:
            rec.close()


# --------------------------------------------------------------------- #
# Run metadata.
# --------------------------------------------------------------------- #


def run_metadata(config: Any = None, seeds: Any = None, **extra: Any) -> dict:
    """Standard run-header fields: git SHA, config repr, seeds, argv.

    ``config`` is stored as ``repr`` (experiment configs are dataclasses
    with informative, deterministic reprs); ``seeds`` as a list.
    """
    meta: dict[str, Any] = {
        "git_sha": _git_sha(),
        "argv": list(sys.argv),
        "python": sys.version.split()[0],
    }
    if config is not None:
        meta["config"] = repr(config)
    if seeds is not None:
        meta["seeds"] = [int(s) for s in seeds]
    meta.update(extra)
    return meta


def _git_sha() -> str:
    sha = os.environ.get("REPRO_GIT_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"
