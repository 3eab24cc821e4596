"""Tests for per-task distributed tracing (repro.telemetry.journey).

Covers the tracing layer end to end:

- deterministic trace IDs and pure hash-fraction sampling (no RNG);
- the JourneyRecorder (contiguous flush, sampling, forced keep of
  shed/requeued/unserved/long-wait journeys, end-of-run residue);
- the causality auditor (state machine, monotone time, identity,
  cross-shard consistency, conservation against run counters);
- byte-identity: journeys on vs. off never perturbs the trace;
- stitched fleet journeys (every journey opens with its routing
  decision) and the replay-side audits (one log, or a fleet's shard logs);
- wait-bucket exemplars in /snapshot payloads and ``repro serve top``;
- the ``repro trace`` CLI (show / top / grep);
- truncated shard logs: loaders tolerate a trailing partial line,
  reject mid-file corruption, and a zero-counter (truncated) shard
  still gets a dashboard row;
- shard/instance identity labels on quality-monitor alert events.
"""

from __future__ import annotations

import glob
import io
from dataclasses import replace

import pytest

from repro.cli import main
from repro.fleet import FleetConfig, FleetController
from repro.monitor import (
    QualityMonitor,
    TraceReplay,
    render_top,
    serve_snapshot,
    snapshot_from_logs,
)
from repro.serve import (
    Dispatcher,
    Outage,
    ServeConfig,
    ServeStats,
    build_stack,
)
from repro.serve.loadgen import make_load
from repro.telemetry import load_run, recording
from repro.telemetry.journey import (
    EXEMPLAR_EVENT,
    JOURNEY_EVENT,
    STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    JourneyRecorder,
    audit_journeys,
    journey_sampled,
    journeys_from_events,
    merge_exemplar_payloads,
    render_waterfall,
    stitch_journeys,
    trace_id,
)
from repro.utils.rng import as_generator
from tests.conftest import journey_log

#: Small-but-real serving knobs shared by the integration tests.
SERVE = ServeConfig(pool_size=40, train_epochs=12, max_wait_hours=0.25,
                    solver_max_iters=300)
JOURNEY_SERVE = SERVE.with_overrides(journey_sample=1.0)

EXPECT_FIELDS = ("arrived", "matched", "completed", "failed", "shed",
                 "requeued", "unserved")


@pytest.fixture(scope="module")
def stack():
    """One trained stack shared by every journey integration test."""
    return build_stack(SERVE)


def _events(pool, *, rate=40.0, horizon=4.0, seed=SERVE.seed):
    return make_load("poisson", pool, rate).draw(horizon,
                                                 as_generator(seed + 3))


def _expect(stats: ServeStats) -> dict:
    return {name: getattr(stats, name) for name in EXPECT_FIELDS}


@pytest.fixture(scope="module")
def journey_run(tmp_path_factory, stack):
    """A journey-traced run (sample 1.0, mid-run outage) logged to JSONL."""
    out_dir = tmp_path_factory.mktemp("journeys")
    pool, clusters, method, spec, dcfg = stack
    events = _events(pool)
    outages = [Outage(0, 1.0, 2.0)]
    with recording(mode="jsonl", run="journey-run", out_dir=out_dir,
                   meta={"serve": JOURNEY_SERVE.to_params()},
                   stream=io.StringIO()):
        dispatcher = Dispatcher(clusters, method, spec,
                                replace(dcfg, journey_sample=1.0))
        stats = dispatcher.run(events, rng=SERVE.seed + 4, outages=outages)
    return out_dir / "journey-run.jsonl", stats


# --------------------------------------------------------------------- #
# Trace identity and sampling.
# --------------------------------------------------------------------- #


def test_trace_id_deterministic_and_distinct():
    assert trace_id(7, 0.25) == trace_id(7, 0.25)
    assert len(trace_id(7, 0.25)) == 16
    assert trace_id(7, 0.25) != trace_id(8, 0.25)
    assert trace_id(7, 0.25) != trace_id(7, 0.250001)
    # Keyed on the exact float repr: replays regenerate identical IDs.
    assert trace_id(7, 1 / 3) == trace_id(7, float(repr(1 / 3)))


def test_sampling_is_a_pure_hash_fraction():
    traces = [trace_id(i, 0.1 * i) for i in range(2000)]
    assert all(journey_sampled(t, 1.0) for t in traces)
    assert not any(journey_sampled(t, 0.0) for t in traces)
    kept = sum(journey_sampled(t, 0.3) for t in traces)
    assert 0.2 < kept / len(traces) < 0.4
    # Deterministic, and a kept-at-0.1 trace is also kept at 0.3.
    assert [journey_sampled(t, 0.3) for t in traces] \
        == [journey_sampled(t, 0.3) for t in traces]
    for t in traces:
        if journey_sampled(t, 0.1):
            assert journey_sampled(t, 0.3)


def test_recorder_validation():
    with pytest.raises(ValueError, match="sample"):
        JourneyRecorder(1.5)
    with pytest.raises(ValueError, match="slo_wait_hours"):
        JourneyRecorder(0.5, slo_wait_hours=0.0)
    with pytest.raises(ValueError, match="journey_sample"):
        ServeConfig(journey_sample=-0.1)


# --------------------------------------------------------------------- #
# JourneyRecorder mechanics.
# --------------------------------------------------------------------- #


def _complete(rec, tid, arrival, *, wait=0.01):
    rec.record(tid, arrival, "admitted", arrival, queue_depth=1)
    rec.record(tid, arrival, "dispatched", arrival + wait, window=0,
               wait_hours=wait)
    rec.record(tid, arrival, "scheduled", arrival + wait, window=0,
               cluster_id=0, start=arrival + wait, end=arrival + wait + 0.1)
    rec.record(tid, arrival, "completed", arrival + wait + 0.1, window=0,
               cluster_id=0, requeues=0)


def test_recorder_samples_out_uneventful_but_forces_shed():
    rec = JourneyRecorder(0.0)
    with journey_log() as log:
        _complete(rec, 1, 0.25)
        assert rec.journeys_sampled_out == 1 and not journeys_from_events(log)
        rec.record(2, 0.5, "shed", 0.5, reason="reject")
    assert rec.journeys_forced == 1
    assert list(journeys_from_events(log)) == [trace_id(2, 0.5)]


def test_recorder_forces_long_wait_journeys():
    rec = JourneyRecorder(0.0, slo_wait_hours=1.0)
    with journey_log() as log:
        _complete(rec, 3, 0.0, wait=2.0)  # waits past the SLO bound
    assert rec.journeys_forced == 1
    assert trace_id(3, 0.0) in journeys_from_events(log)


def test_recorder_flushes_contiguous_blocks_to_the_log(tmp_path):
    with recording(mode="jsonl", run="contig", out_dir=tmp_path,
                   stream=io.StringIO()):
        rec = JourneyRecorder(1.0)
        # Interleave two journeys; each must land contiguously at flush.
        rec.record(1, 0.1, "admitted", 0.1)
        rec.record(2, 0.2, "admitted", 0.2)
        rec.record(1, 0.1, "dispatched", 0.3, wait_hours=0.2)
        rec.record(2, 0.2, "dispatched", 0.3, wait_hours=0.1)
        rec.record(1, 0.1, "scheduled", 0.3, end=0.4)
        rec.record(2, 0.2, "scheduled", 0.3, end=0.5)
        rec.record(1, 0.1, "completed", 0.4)
        rec.record(2, 0.2, "completed", 0.5)
        rec.finish()
    events = load_run(tmp_path / "contig.jsonl")
    journey_lines = [e for e in events if e.get("name") == JOURNEY_EVENT]
    traces = [e["trace"] for e in journey_lines]
    # 4 events of journey 1, then 4 of journey 2 — no interleaving.
    assert traces == [trace_id(1, 0.1)] * 4 + [trace_id(2, 0.2)] * 4
    assert audit_journeys(journeys_from_events(events)) == []
    exemplar = [e for e in events if e.get("name") == EXEMPLAR_EVENT]
    assert len(exemplar) == 1 and exemplar[0]["emitted"] == 2


def test_finish_force_flushes_residue_for_the_auditor():
    rec = JourneyRecorder(0.0)
    with journey_log() as log:
        rec.record(9, 1.0, "admitted", 1.0)  # never reaches a terminal state
        assert not journeys_from_events(log)
        rec.finish()
    assert rec.journeys_forced == 1
    problems = audit_journeys(journeys_from_events(log))
    assert any("no terminal state" in p for p in problems)


# --------------------------------------------------------------------- #
# Causality audit on hand-built journeys.
# --------------------------------------------------------------------- #


def _journey(tid, arrival, steps):
    tr = trace_id(tid, arrival)
    return tr, [{"trace": tr, "task_id": tid, "arrival": arrival,
                 "state": s, "t": t} for s, t in steps]


GOOD = [("admitted", 0.1), ("dispatched", 0.3), ("scheduled", 0.3),
        ("completed", 0.5)]


def test_audit_accepts_a_valid_journey():
    tr, evs = _journey(1, 0.1, GOOD)
    assert audit_journeys({tr: evs}) == []


@pytest.mark.parametrize("mutate, expect", [
    (lambda evs: evs[1].update(state="scheduled"), "invalid transition"),
    (lambda evs: evs[2].update(t=0.2), "time went backwards"),
    (lambda evs: evs.append(dict(evs[0], state="admitted", t=0.6)),
     "event after terminal"),
    (lambda evs: evs.pop(), "no terminal state"),
    (lambda evs: evs[1].update(task_id=99), "identity drifted"),
    (lambda evs: evs[1].update(state="exploded"), "unknown state"),
])
def test_audit_flags_corrupted_journeys(mutate, expect):
    tr, evs = _journey(1, 0.1, GOOD)
    mutate(evs)
    problems = audit_journeys({tr: evs})
    assert any(expect in p for p in problems), problems


def test_audit_flags_wrong_trace_id_and_shard_spans():
    _, evs = _journey(1, 0.1, GOOD)
    problems = audit_journeys({trace_id(2, 0.1): evs})
    assert any("does not hash" in p for p in problems)
    tr, evs = _journey(1, 0.1, GOOD)
    evs[0]["shard"] = "0"
    evs[1]["shard"] = "1"
    problems = audit_journeys({tr: evs})
    assert any("span shards" in p for p in problems)
    # An int router pick and a str stitcher stamp of the SAME shard are
    # one shard, not a double delivery.
    tr, evs = _journey(2, 0.2, GOOD)
    evs[0]["shard"] = 1
    evs[1]["shard"] = "1"
    assert audit_journeys({tr: evs}) == []


def test_audit_conservation_against_run_counters():
    journeys = dict(
        [_journey(1, 0.1, GOOD),
         _journey(2, 0.2, [("shed", 0.2)])])
    expect = {"arrived": 2, "matched": 1, "completed": 1, "failed": 0,
              "shed": 1, "requeued": 0, "unserved": 0}
    assert audit_journeys(journeys, expect=expect) == []
    # A lost task: counters say 3 arrivals, only 2 journeys exist.
    problems = audit_journeys(journeys, expect=dict(expect, arrived=3))
    assert any("conservation" in p for p in problems)
    # Partial sampling skips the census (subset is not a census).
    assert audit_journeys(journeys, expect=dict(expect, arrived=3),
                          sample=0.5) == []


# --------------------------------------------------------------------- #
# Dispatcher integration: audits, forced shed, byte-identity.
# --------------------------------------------------------------------- #


def test_run_journeys_pass_the_full_audit(journey_run):
    path, stats = journey_run
    journeys = journeys_from_events(load_run(path))
    assert stats.requeued > 0, "outage produced no requeues"
    assert audit_journeys(journeys, expect=_expect(stats)) == []
    # The outage run force-keeps its requeued journeys.
    requeued = [t for t, evs in journeys.items()
                if any(e["state"] == "requeued" for e in evs)]
    assert len(requeued) > 0


def test_journeys_never_perturb_the_trace(stack):
    pool, clusters, method, spec, dcfg = stack
    events = _events(pool, horizon=2.0)
    baseline = Dispatcher(clusters, method, spec, dcfg).run(
        events, rng=SERVE.seed + 4)
    traced = Dispatcher(
        clusters, method, spec, replace(dcfg, journey_sample=1.0)).run(
        events, rng=SERVE.seed + 4)
    assert traced.trace_bytes() == baseline.trace_bytes()


@pytest.mark.parametrize("policy", ["reject", "drop_oldest"])
def test_shed_journeys_survive_aggressive_sampling(stack, tmp_path, policy):
    pool, clusters, method, spec, dcfg = stack
    # queue_capacity < max_batch keeps the size trigger from draining
    # the queue before admission control ever binds.
    cfg = replace(dcfg, queue_capacity=3, max_batch=8, shed_policy=policy,
                  journey_sample=0.01)
    events = _events(pool, rate=80.0, horizon=2.0)
    with recording(mode="jsonl", run=f"shed-{policy}", out_dir=tmp_path,
                   stream=io.StringIO()):
        stats = Dispatcher(clusters, method, spec, cfg).run(
            events, rng=SERVE.seed + 4)
    assert stats.shed > 0, "overload never shed"
    journeys = journeys_from_events(load_run(tmp_path / f"shed-{policy}.jsonl"))
    shed = [t for t, evs in journeys.items() if evs[-1]["state"] == "shed"]
    # Every shed task has a journey despite the 1% sampling fraction.
    assert len(shed) == stats.shed
    assert audit_journeys(journeys, sample=cfg.journey_sample) == []


def test_trace_replay_verify_includes_the_journey_audit(journey_run, stack):
    path, original = journey_run
    rep = TraceReplay.from_logs([path])
    assert rep.journey_sample == 1.0
    stats = rep.replay(stack=stack)
    assert rep.verify(stats) == []
    assert stats.trace_bytes() == original.trace_bytes()
    # Corrupt one logged journey event: verify must now fail.
    for ev in rep._journey_events:
        if ev["state"] == "completed":
            ev["state"] = "dispatched"
            break
    assert any("invalid transition" in p for p in rep.verify(stats))


# --------------------------------------------------------------------- #
# Fleet: stitched journeys and the cross-shard audit.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet_run(tmp_path_factory, stack):
    out_dir = tmp_path_factory.mktemp("fleet-journeys")
    cfg = FleetConfig(n_shards=2, serve=JOURNEY_SERVE)
    controller = FleetController(cfg, stack=stack)
    events = _events(controller.pool)
    stats = controller.run(events, telemetry="jsonl", out_dir=out_dir,
                           run_prefix="fleet-j")
    logs = sorted(glob.glob(str(out_dir / "fleet-j-s*.jsonl")))
    assert len(logs) == 2
    return logs, stats


def test_fleet_journeys_open_with_routing_and_stitch_cleanly(fleet_run):
    logs, stats = fleet_run
    journeys = stitch_journeys(load_run(p) for p in logs)
    assert len(journeys) == stats.arrived
    for evs in journeys.values():
        assert evs[0]["state"] == "routed"
        assert "home" in evs[0] and "reason" in evs[0]
    assert audit_journeys(journeys, expect=_expect(stats)) == []


def test_fleet_replay_verify_includes_the_journey_audit(fleet_run, stack):
    logs, _ = fleet_run
    replay = TraceReplay.from_logs(logs)
    assert replay.audit_journeys() == []
    stats = replay.replay(stack=stack)
    assert replay.verify(stats) == []


# --------------------------------------------------------------------- #
# Exemplars: /snapshot payload and the serve-top dashboard.
# --------------------------------------------------------------------- #


def test_serve_snapshot_carries_the_exemplar_payload():
    rec = JourneyRecorder(1.0)
    _complete(rec, 1, 0.0, wait=0.3)
    _complete(rec, 2, 0.1, wait=0.02)
    snap = serve_snapshot(journeys=rec)
    payload = snap["journeys"]
    assert payload["emitted"] == 2
    bounds = {b["le"] for b in payload["buckets"]}
    assert 0.5 in bounds and 0.05 in bounds
    # Every exemplar resolves to an emitted journey's trace ID.
    assert {b["trace"] for b in payload["buckets"]} \
        <= {trace_id(1, 0.0), trace_id(2, 0.1)}


def test_exemplars_merge_and_render_in_top(journey_run):
    path, _ = journey_run
    snap = snapshot_from_logs([path])
    assert snap["journeys"]["emitted"] > 0
    text = render_top(snap)
    assert "wait exemplars" in text
    # Exemplar traces shown in the dashboard exist in the log.
    journeys = journeys_from_events(load_run(path))
    for b in snap["journeys"]["buckets"]:
        assert b["trace"] in journeys


def _ref_snapshot_from_logs(paths) -> dict:
    """The one-pass log fold ``snapshot_from_logs`` replaced with a fold of
    per-log snapshots, kept as the reference the dashboard text is held to."""
    from pathlib import Path

    from repro.telemetry import merge_aggregates
    from repro.telemetry.jsonl import aggregate_events, meta_of

    aggs, exemplars, shards_seen = [], [], []
    for p in paths:
        events = load_run(p)
        aggs.append(aggregate_events(events))
        meta = meta_of(events)
        shard = (meta.get("labels", {}).get("shard")
                 if isinstance(meta.get("labels"), dict) else None)
        if shard is None and isinstance(meta.get("serve"), dict):
            shard = meta["serve"].get("shard")
        if shard is not None and str(shard) not in shards_seen:
            shards_seen.append(str(shard))
        exemplars += [ev for ev in events if ev.get("type") == "event"
                      and ev.get("name") == EXEMPLAR_EVENT]
    agg = merge_aggregates(aggs)
    snap = {"aggregate": agg, "run": " + ".join(Path(p).stem for p in paths)}
    if exemplars:
        snap["journeys"] = merge_exemplar_payloads(exemplars)
    if shards_seen:
        snap["shards_seen"] = shards_seen
    return snap


def test_top_from_logs_renders_like_the_one_pass_fold(journey_run, fleet_run):
    """One log, one shard log, and a 2-shard fleet's logs render the same
    dashboard text as before the fold went through merge_snapshots."""
    path, _ = journey_run
    logs, _ = fleet_run
    for paths in ([path], logs[:1], logs):
        text = render_top(snapshot_from_logs(paths))
        assert text == render_top(_ref_snapshot_from_logs(paths))
        assert "wait exemplars" in text
    assert "shards (2)" in text


def test_merge_exemplar_payloads_sums_counts_and_keeps_worst():
    a = {"sample": 0.1, "emitted": 3, "sampled_out": 1, "forced": 1,
         "buckets": [{"le": 0.5, "count": 2, "trace": "aa", "task_id": 1,
                      "wait_hours": 0.4}]}
    b = {"sample": 1.0, "emitted": 5, "sampled_out": 0, "forced": 2,
         "buckets": [{"le": 0.5, "count": 3, "trace": "bb", "task_id": 2,
                      "wait_hours": 0.45},
                     {"le": "+Inf", "count": 1, "trace": "cc", "task_id": 3,
                      "wait_hours": 9.0}]}
    merged = merge_exemplar_payloads([a, b])
    assert merged["emitted"] == 8 and merged["forced"] == 3
    assert merged["sample"] == 1.0
    half, inf = merged["buckets"]
    assert half["count"] == 5 and half["trace"] == "bb"  # worst wait wins
    assert inf["le"] == "+Inf" and inf["trace"] == "cc"
    assert merge_exemplar_payloads([]) is None
    # The overflow bucket renders without crashing the dashboard.
    text = render_top({"run": "x", "aggregate": {}, "journeys": merged})
    assert "+inf" in text


def test_render_waterfall_draws_execution_bars():
    tr, evs = _journey(5, 0.25, GOOD)
    evs[2]["end"] = 0.5
    out = render_waterfall(tr, evs)
    assert tr in out and "task 5" in out
    for state in ("admitted", "dispatched", "scheduled", "completed"):
        assert state in out
    sched = next(ln for ln in out.splitlines() if "scheduled" in ln)
    assert "#" in sched  # the execution span renders as a bar
    assert render_waterfall("dead", []).endswith("(no events)")


# --------------------------------------------------------------------- #
# The repro trace CLI.
# --------------------------------------------------------------------- #


class TestTraceCLI:
    def test_top_ranks_by_wait(self, journey_run, capsys):
        path, _ = journey_run
        assert main(["trace", "top", "--log", str(path),
                     "--slowest", "3"]) == 0
        out = capsys.readouterr().out
        assert "slowest 3 of" in out
        waits = [float(ln.split("wait")[1].split("h")[0])
                 for ln in out.splitlines()[1:]]
        assert waits == sorted(waits, reverse=True)

    def test_show_renders_a_waterfall_by_task_and_prefix(self, journey_run,
                                                         capsys):
        path, _ = journey_run
        journeys = journeys_from_events(load_run(path))
        trace = sorted(journeys)[0]
        tid = journeys[trace][0]["task_id"]
        assert main(["trace", "show", "--log", str(path), str(tid)]) == 0
        out = capsys.readouterr().out
        assert f"task {tid}" in out
        assert main(["trace", "show", "--log", str(path), trace[:8]]) == 0
        assert trace in capsys.readouterr().out
        assert main(["trace", "show", "--log", str(path), "zzzz"]) == 1

    def test_show_finds_an_all_digit_trace_prefix(self, journey_run, capsys):
        path, _ = journey_run
        journeys = journeys_from_events(load_run(path))
        tids = {e["task_id"] for evs in journeys.values() for e in evs}
        prefixes = [(t[:k], t) for t in sorted(journeys)
                    for k in range(3, 17) if t[:k].isdigit()]
        needle, trace = next((p, t) for p, t in prefixes
                             if int(p) not in tids)
        assert main(["trace", "show", "--log", str(path), needle]) == 0
        assert trace in capsys.readouterr().out

    def test_grep_filters_by_state(self, journey_run, capsys):
        path, stats = journey_run
        assert main(["trace", "grep", "--log", str(path),
                     "--state", "requeued"]) == 0
        out = capsys.readouterr().out
        assert f"{stats.requeued} of {stats.arrived} journeys" in out
        assert main(["trace", "grep", "--log", str(path),
                     "--state", "bogus"]) == 2

    def test_journey_free_log_exits_cleanly(self, tmp_path, capsys):
        with recording(mode="jsonl", run="plain", out_dir=tmp_path,
                       stream=io.StringIO()) as rec:
            rec.event("serve/arrival", t=0.0, task_id=1)
        rc = main(["trace", "top", "--log", str(tmp_path / "plain.jsonl")])
        assert rc == 2
        assert "no journeys" in capsys.readouterr().err

    def test_serve_run_flag_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["serve", "run", "--pool-size", "16", "--rate", "25",
                   "--horizon", "1.5", "--train-epochs", "4",
                   "--telemetry", "jsonl", "--journeys", "1.0"])
        assert rc == 0
        log = tmp_path / "results" / "telemetry" / "serve-run.jsonl"
        rep = TraceReplay.from_logs([log])
        assert rep.journey_sample == 1.0
        assert rep.audit_journeys() == []
        assert main(["trace", "top", "--log", str(log)]) == 0
        assert "slowest" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Truncated / corrupted shard logs (crash-tolerant loaders).
# --------------------------------------------------------------------- #


def _synthetic_shard_log(tmp_path, sid, n=30):
    """A labeled shard log with live span + journey lines and counters."""
    with recording(mode="jsonl", run=f"shard-{sid}", out_dir=tmp_path,
                   meta={"serve": {"shard": sid}}, labels={"shard": sid},
                   stream=io.StringIO()) as rec:
        jt = JourneyRecorder(1.0)
        base = 1000 * int(sid)  # disjoint task identities per shard
        for i in range(n):
            rec.counter_add("serve/arrived")
            with rec.span("serve/solve"):
                pass
            _complete(jt, base + i, 0.1 * i, wait=0.02 * (i % 5))
        jt.finish()
    return tmp_path / f"shard-{sid}.jsonl"


def _truncate_tail(path, frac=0.6):
    """Chop the log mid-line, as a crash mid-write would."""
    data = path.read_bytes()
    cut = int(len(data) * frac)
    if data[cut - 1:cut] == b"\n":
        cut += 10
    path.write_bytes(data[:cut])
    assert not path.read_bytes().endswith(b"\n")


class TestTruncatedLogs:
    def test_trailing_partial_line_is_tolerated(self, tmp_path):
        from repro.telemetry import aggregate_runs

        intact = _synthetic_shard_log(tmp_path, "0")
        broken = _synthetic_shard_log(tmp_path, "1")
        _truncate_tail(broken)
        agg = aggregate_runs([intact, broken])
        # Counters flush at close, i.e. last in the file: the truncated
        # shard contributes none, the intact shard's survive untouched.
        arrived = sum(s["value"] for k, s in agg["counters"].items()
                      if k.split("{", 1)[0] == "serve/arrived")
        assert arrived == 30
        # Live-recorded spans from BOTH shards survive and merge.
        assert agg["spans"]["serve/solve"]["calls"] > 30
        # Journey lines before the cut still stitch and audit per-journey.
        journeys = stitch_journeys([load_run(intact), load_run(broken)])
        complete = {t: evs for t, evs in journeys.items()
                    if evs[-1]["state"] in TERMINAL_STATES}
        assert len(complete) > 30
        assert audit_journeys(complete) == []

    def test_truncated_shard_still_gets_a_dashboard_row(self, tmp_path):
        intact = _synthetic_shard_log(tmp_path, "0")
        broken = _synthetic_shard_log(tmp_path, "1")
        _truncate_tail(broken, frac=0.2)  # metric lines all gone
        snap = snapshot_from_logs([intact, broken])
        assert snap["shards_seen"] == ["0", "1"]
        text = render_top(snap)
        assert "shards (2)" in text
        rows = [ln for ln in text.splitlines() if ln.startswith("  1 ")]
        assert rows, "truncated shard vanished from the shard table"

    def test_mid_file_corruption_is_rejected(self, tmp_path):
        from repro.telemetry import aggregate_runs

        log = _synthetic_shard_log(tmp_path, "0")
        lines = log.read_text().splitlines(keepends=True)
        lines[len(lines) // 2] = '{"type": "event", "name": truncated-mid\n'
        log.write_text("".join(lines))
        with pytest.raises(ValueError, match="invalid JSON line"):
            load_run(log)
        with pytest.raises(ValueError, match="invalid JSON line"):
            aggregate_runs([log])


# --------------------------------------------------------------------- #
# Alert events carry the shard/instance identity.
# --------------------------------------------------------------------- #


def test_alert_events_carry_identity_labels(tmp_path):
    with recording(mode="jsonl", run="alerts", out_dir=tmp_path,
                   labels={"shard": "3", "instance": "edge-a"},
                   stream=io.StringIO()):
        monitor = QualityMonitor()
        # Conservation violation on finish: 2 tasks unaccounted for.
        monitor.on_finish(ServeStats(arrived=10, completed=4, failed=1,
                                     shed=2, unserved=1))
    events = load_run(tmp_path / "alerts.jsonl")
    alerts = [e for e in events
              if e.get("type") == "event" and e.get("name") == "alert"]
    assert alerts, "no alert event recorded"
    for ev in alerts:
        assert ev["shard"] == "3"
        assert ev["instance"] == "edge-a"


def test_alert_events_stay_clean_without_identity(tmp_path):
    with recording(mode="jsonl", run="bare", out_dir=tmp_path,
                   stream=io.StringIO()):
        monitor = QualityMonitor()
        monitor.on_finish(ServeStats(arrived=5, completed=1))
    events = load_run(tmp_path / "bare.jsonl")
    alerts = [e for e in events if e.get("name") == "alert"]
    assert alerts and all("shard" not in e and "instance" not in e
                          for e in alerts)
