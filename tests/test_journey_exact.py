"""The observers' emission path, held to the path it replaced.

A journey event is built once, as the run-log line it becomes, and a
flushed journey reaches the recorder in one call; the run log is written
by one encoder.  These tests hold that path to the one it replaced:

- the run-log encoder writes ``json.dumps(line, sort_keys=True) + "\\n"``
  byte for byte, on every line of a closed-loop soak and on generated
  event dicts (non-finite floats, bools, nested dicts, lists, big ints);
- a frozen copy of the per-event path (``JourneyRecorder.record`` building
  a dict, ``_flush`` expanding it through ``Recorder.event``, ``_emit``
  stamping ``seq``), fed the same closed-loop soak, yields the same
  journey event dicts in the same line order with the same ``seq``;
- the counters (``events_recorded``, ``journeys_emitted``,
  ``journeys_sampled_out``, ``journeys_forced``) and the journey lines'
  digest equal what the per-event path recorded on this soak;
- ``load_run``, which decodes a log's lines as one JSON array, returns
  the events (or raises the error, word for word) of the per-line loader
  it replaced, kept below as ``_ref_load_run``: on the soak's log, with
  blank and CRLF lines, a truncated tail, an invalid middle line, and on
  empty, header-less and wrong-schema files.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import tempfile
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.monitor import MonitorConfig
from repro.retrain import RetrainConfig
from repro.serve import Outage, ServeConfig, build_platform, build_stack
from repro.telemetry.journey import (
    JOURNEY_EVENT,
    TERMINAL_STATES,
    JourneyRecorder,
    journey_sampled,
    trace_id,
)
from repro.telemetry.jsonl import load_run
from repro.telemetry.recorder import SCHEMA_VERSION, SUPPORTED_SCHEMAS, Recorder, _line_encoder
from repro.utils.rng import as_generator

#: A closed loop with every observer on, sized for tests: monitor,
#: periodic retraining (harvested events every window), an outage
#: (requeued journeys) and a queue small enough to shed.
SOAK = ServeConfig(
    pool_size=24, seed=0, train_epochs=4, solver_max_iters=300, max_batch=8,
    queue_capacity=7, monitor=MonitorConfig(sample_every=5),
    retrain=RetrainConfig(trigger="periodic", period_windows=6, min_labels=16,
                          min_cluster_labels=4, sample_size=64, epochs=2,
                          steps_per_window=32, canary_min_holdout=4,
                          guard_windows=3, cooldown_windows=4))

#: What the per-event path recorded on :func:`_soak`, per journey sample:
#: the SHA-256 of the journey lines (``json.dumps(line, sort_keys=True)``,
#: one per line, ``seq`` included), the recorder's and the journey
#: recorder's counters.
PER_EVENT_PATH = {
    1.0: {"journey_sha256":
          "da09ceffbab5200fda6ea0a62271181627d2e11e530408e1fc7f9f26c9469075",
          "events_recorded": 1646, "journey_events": 722,
          "emitted": 150, "sampled_out": 0, "forced": 19},
    0.5: {"journey_sha256":
          "6e42ec0f280fd074927dff45d0fecfe0312233db5bf46ae13d173fb8a6293acf",
          "events_recorded": 1321, "journey_events": 722,
          "emitted": 85, "sampled_out": 65, "forced": 19},
}


def _soak(stack, root, sample: float, *, recorder: Recorder,
          journeys: "JourneyRecorder | None" = None):
    """One closed-loop soak recorded into ``recorder`` (left open).

    ``journeys`` replaces the dispatcher's own journey recorder.  The
    stack's method is copied: a hot-swap loads weights into it in place.
    """
    pool, clusters, method, spec, dcfg = stack
    config = SOAK.with_overrides(journey_sample=sample)
    platform = build_platform(
        config, registry_root=str(root),
        stack=(pool, clusters, copy.deepcopy(method), spec,
               config.dispatcher_config()))
    if journeys is not None:
        platform.dispatcher.journeys = journeys
    events = platform.load("poisson", 30.0).draw(6.0, as_generator(SOAK.seed + 3))
    with recorder.activate():
        stats = platform.dispatcher.run(events, rng=SOAK.seed + 4,
                                        outages=[Outage(0, 1.0, 2.0)])
    return stats, platform.dispatcher.journeys


# --------------------------------------------------------------------- #
# The per-event path, frozen as it was.
# --------------------------------------------------------------------- #


class _FrozenRecorder(Recorder):
    """``Recorder.event`` / ``_emit`` as they were: one dict per event."""

    def event(self, name: str, **fields: Any) -> None:
        self.events_recorded += 1
        if self.mode == "jsonl":
            self._emit({"type": "event", "name": name, **fields})

    def _emit(self, payload: dict) -> None:
        payload["seq"] = self._seq
        self._seq += 1
        self._lines.append(payload)


class _FrozenJourneys(JourneyRecorder):
    """``JourneyRecorder.record`` / ``_flush`` as they were; ``record_many``
    feeds them one event at a time."""

    def record_many(self, events) -> None:
        for task_id, arrival, state, t, fields in events:
            self.record(task_id, arrival, state, t, **fields)

    def record(self, task_id: int, arrival: float, state: str, t: float,
               **fields: Any) -> None:
        self.events_recorded += 1
        key = (int(task_id), float(arrival))
        events = self._pending.get(key)
        if events is None:
            events = self._pending[key] = []
            trace = trace_id(*key)
        else:
            trace = events[0]["trace"]
        ev = {"trace": trace, "task_id": key[0], "arrival": key[1], "state": state,
              "t": float(t)}
        ev.update({k: v for k, v in fields.items() if v is not None})
        events.append(ev)
        if state in ("shed", "requeued", "unserved"):
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


# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def stack():
    return build_stack(SOAK)


@pytest.fixture(scope="module", params=sorted(PER_EVENT_PATH, reverse=True))
def soaks(request, stack, tmp_path_factory):
    """The soak on the shipped path (its log closed to disk) and on the
    frozen per-event path, at one journey sample."""
    sample = request.param
    root = tmp_path_factory.mktemp(f"soak-{sample}")
    rec = Recorder("jsonl", run="soak", out_dir=root / "logs",
                   meta={"serve": SOAK.to_params()}, stream=io.StringIO())
    stats, jt = _soak(stack, root / "registry", sample, recorder=rec)
    frozen_rec = _FrozenRecorder("jsonl", run="frozen", stream=io.StringIO())
    frozen_jt = _FrozenJourneys(sample, slo_wait_hours=jt.slo_wait_hours)
    frozen_stats, _ = _soak(stack, root / "frozen-registry", sample,
                            recorder=frozen_rec, journeys=frozen_jt)
    journey_lines = [line for line in rec._lines if line.get("name") == JOURNEY_EVENT]
    path = rec.close()
    return {"sample": sample, "rec": rec, "jt": jt, "stats": stats, "path": path,
            "journey_lines": journey_lines, "frozen_rec": frozen_rec,
            "frozen_jt": frozen_jt, "frozen_stats": frozen_stats}


def _journey_sha(lines) -> str:
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def test_soak_covers_every_journey_state(soaks):
    states = {line["state"] for line in soaks["journey_lines"]}
    assert {"admitted", "dispatched", "scheduled", "harvested", "requeued",
            "shed", "completed"} <= states
    if soaks["sample"] < 1.0:
        assert soaks["jt"].journeys_sampled_out > 0


def test_journey_events_equal_the_per_event_path(soaks):
    assert soaks["stats"].trace_bytes() == soaks["frozen_stats"].trace_bytes()
    frozen = [line for line in soaks["frozen_rec"]._lines
              if line.get("name") == JOURNEY_EVENT]
    assert soaks["journey_lines"] == frozen
    # Every event line (journeys and the rest) carries the same ``seq``.
    assert ([(line["name"], line["seq"]) for line in soaks["rec"]._lines
             if line["type"] == "event"]
            == [(line["name"], line["seq"]) for line in soaks["frozen_rec"]._lines
                if line["type"] == "event"])


def test_counters_equal_the_per_event_path(soaks):
    jt, frozen_jt = soaks["jt"], soaks["frozen_jt"]
    got = {"events_recorded": soaks["rec"].events_recorded,
           "journey_events": jt.events_recorded, "emitted": jt.journeys_emitted,
           "sampled_out": jt.journeys_sampled_out, "forced": jt.journeys_forced}
    assert got == {"events_recorded": soaks["frozen_rec"].events_recorded,
                   "journey_events": frozen_jt.events_recorded,
                   "emitted": frozen_jt.journeys_emitted,
                   "sampled_out": frozen_jt.journeys_sampled_out,
                   "forced": frozen_jt.journeys_forced}
    # ... and what the per-event path recorded before it was replaced.
    expect = PER_EVENT_PATH[soaks["sample"]]
    assert {**got, "journey_sha256": _journey_sha(soaks["journey_lines"])} == expect


def _first_difference(text: str, lines: "list[dict]") -> "str | None":
    """Where ``text`` departs from ``json.dumps(line, sort_keys=True) +
    "\\n"`` per line (``None`` when it does not): a named line, not a diff
    of the whole log."""
    want = [json.dumps(line, sort_keys=True) + "\n" for line in lines]
    got = text.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"line {i}: {a!r} != {b!r}"
    return None if len(got) == len(want) else f"{len(got)} lines != {len(want)}"


def test_run_log_is_json_dumps_of_every_line(soaks):
    rec = soaks["rec"]
    head = {"schema": SCHEMA_VERSION, "type": "meta", "run": rec.run, **rec.meta}
    assert _first_difference(soaks["path"].read_text(), [head, *rec._lines]) is None


#: JSON values an event field may carry.
_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-2**70, max_value=2**70) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
#: One encoder across every example: its circular-reference markers must
#: be clean after each line.
_ENCODE = _line_encoder()


@given(st.dictionaries(st.text(max_size=8), _VALUES, max_size=8))
def test_line_encoder_is_json_dumps(line):
    assert _ENCODE(line) == json.dumps(line, sort_keys=True)


@given(st.lists(st.dictionaries(st.text(max_size=8), _VALUES, max_size=6),
                max_size=4))
def test_run_log_writer_is_json_dumps(events):
    with tempfile.TemporaryDirectory() as out:
        rec = Recorder("jsonl", run="probe", out_dir=out, stream=io.StringIO())
        for fields in events:
            rec.event("probe", **fields)
        head = {"schema": SCHEMA_VERSION, "type": "meta", "run": rec.run}
        lines = [head, *rec._lines]
        text = rec.close().read_text()
    assert _first_difference(text, lines) is None


# --------------------------------------------------------------------- #
# The run-log loader, held to the per-line loader it replaced.
# --------------------------------------------------------------------- #


def _ref_load_run(path) -> list[dict]:
    """``load_run`` as it was: one ``json.loads`` per stripped line."""
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


def _loaded(loader, path) -> "tuple[str, str]":
    """What ``loader`` makes of ``path``: the events as JSON in their key
    order (NaN-safe), or the ``ValueError``'s message."""
    try:
        return "events", json.dumps(loader(path))
    except ValueError as exc:
        return "error", str(exc)


def _lines_of(text: str) -> "list[str]":
    return text.splitlines(keepends=True)


#: Damage done to a well-formed run log, by name.
_DAMAGE = {
    "as written": lambda text: text,
    "blank and CRLF lines": lambda text: "".join(
        (line.replace("\n", "\r\n") if i % 2 else line) + ("\n  \n" if i % 7 == 3 else "")
        for i, line in enumerate(_lines_of(text))),
    "no final newline": lambda text: text.rstrip("\n"),
    "truncated tail": lambda text: text + '{"type": "event", "name": "alert", "trunc',
    "cut inside its last line": lambda text: text[:-40],
    "invalid middle line": lambda text: "".join(
        _lines_of(text)[:5] + ["not json\n"] + _lines_of(text)[5:]),
    "one value over two lines": lambda text: "".join(
        _lines_of(text)[:5] + ['{"type": "event", "x": [1\n', '2]}\n'] + _lines_of(text)[5:]),
    "two values on one line": lambda text: "".join(
        _lines_of(text)[:5] + ['{"a": 1}, {"b": 2}\n'] + _lines_of(text)[5:]),
    "empty": lambda text: "",
    "whitespace only": lambda text: "\n   \n\t\n",
    "only a partial line": lambda text: '{"schema": 3, "type": "me',
    "header-less": lambda text: "".join(_lines_of(text)[1:]),
    "wrong schema": lambda text: '{"type": "meta", "schema": 99}\n' + "".join(
        _lines_of(text)[1:]),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_load_run_is_the_per_line_loader(soaks, tmp_path, damage):
    path = tmp_path / "run.jsonl"
    path.write_bytes(_DAMAGE[damage](soaks["path"].read_text()).encode())
    assert _loaded(load_run, path) == _loaded(_ref_load_run, path)


def test_load_run_shares_key_strings(soaks):
    events = load_run(soaks["path"])
    keys = [key for ev in events for key in ev]
    assert len({id(key) for key in keys}) == len(set(keys))


@given(st.lists(st.dictionaries(st.text(max_size=8), _VALUES, max_size=6),
                max_size=4))
def test_load_run_reads_what_the_writer_wrote(events):
    with tempfile.TemporaryDirectory() as out:
        rec = Recorder("jsonl", run="probe", out_dir=out, stream=io.StringIO())
        for fields in events:
            rec.event("probe", **fields)
        path = rec.close()
        assert _loaded(load_run, path) == _loaded(_ref_load_run, path)
