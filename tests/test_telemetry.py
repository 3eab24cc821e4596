"""Tests for the telemetry layer (spans, metrics, recorder, JSONL logs)."""

from __future__ import annotations

import io
import json
import time

import numpy as np
import pytest

from repro.matching import MatchingProblem, SolverConfig, feasible_gamma, solve_relaxed
from repro.telemetry import (
    ITER_BUCKETS,
    MODES,
    NULL,
    NULL_PROFILER,
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Recorder,
    StageProfiler,
    aggregate_events,
    aggregate_runs,
    get_recorder,
    load_run,
    merge_aggregates,
    meta_of,
    quantile,
    recording,
    run_metadata,
    series_key,
    split_series_key,
)
from repro import telemetry


# --------------------------------------------------------------------- #
# Spans.
# --------------------------------------------------------------------- #


class TestSpans:
    def test_nesting_builds_paths(self):
        rec = Recorder("summary", run="t")
        with rec.activate():
            with rec.span("train"):
                with rec.span("epoch"):
                    with rec.span("solve"):
                        pass
                with rec.span("eval"):  # opens under "train" again
                    pass
            with rec.span("report"):  # and at top level again
                pass
        agg = rec.aggregate()["spans"]
        assert set(agg) == {"train", "train/epoch", "train/epoch/solve",
                            "train/eval", "report"}
        assert agg["train/epoch/solve"]["calls"] == 1

    def test_exception_safety(self):
        rec = Recorder("summary", run="t")
        with rec.activate():
            with pytest.raises(RuntimeError, match="boom"):
                with rec.span("outer"):
                    with rec.span("inner"):
                        raise RuntimeError("boom")
            # the path contextvar is restored even through the raise
            with rec.span("after"):
                pass
        agg = rec.aggregate()["spans"]
        assert "after" in agg
        assert agg["outer"]["errors"] == 1
        assert agg["outer/inner"]["errors"] == 1

    def test_span_records_elapsed_and_ok(self):
        rec = Recorder("summary", run="t")
        with rec.activate():
            with rec.span("s") as s:
                pass
        assert s.ok and s.elapsed >= 0.0 and s.path == "s"

    def test_invalid_span_names_rejected(self):
        rec = Recorder("summary", run="t")
        for bad in ("", "/lead", "trail/"):
            with pytest.raises(ValueError):
                rec.span(bad)

    def test_module_level_span_without_recorder_is_null(self):
        assert telemetry.span("anything") is NULL_SPAN
        with telemetry.span("x") as s:
            with Recorder("summary", run="t").span("real") as real:
                assert real.path == "real"  # no contextvar writes by the null span
        assert s.elapsed == 0.0


# --------------------------------------------------------------------- #
# Metric instruments.
# --------------------------------------------------------------------- #


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("n")
        c.add()
        c.add(2.5)
        assert c.value == 3.5 and c.calls == 2
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_last_value(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(-4)
        assert g.value == -4.0 and g.calls == 2

    def test_histogram_le_boundary_semantics(self):
        h = Histogram("h", bounds=(1.0, 5.0, 10.0))
        # Prometheus le semantics: v == boundary lands in that bucket.
        h.observe(1.0)
        h.observe(5.0)
        h.observe(0.0)
        assert h.counts == [2, 1, 0, 0]
        h.observe(10.0)
        h.observe(10.000001)  # overflow bucket
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.vmin == 0.0 and h.vmax == pytest.approx(10.000001)

    def test_histogram_bulk_observe(self):
        h = Histogram("h", bounds=(2.0, 4.0))
        h.observe(3.0, n=7)
        h.observe(3.0, n=0)  # no-op
        h.observe(3.0, n=-2)  # no-op
        assert h.counts == [0, 7, 0]
        assert h.count == 7 and h.total == pytest.approx(21.0)
        assert h.mean == pytest.approx(3.0)
        assert h.calls == 1

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_recorder_keeps_first_bounds(self):
        rec = Recorder("summary", run="t")
        rec.observe("x", 1.0, bounds=(1.0, 2.0))
        rec.observe("x", 100.0, bounds=(50.0,))  # later bounds ignored
        assert rec.aggregate()["histograms"]["x"]["bounds"] == [1.0, 2.0]


class TestQuantile:
    """The public histogram quantile (shared by summaries, bench, monitor)."""

    def test_quantile_on_live_histogram_and_state_dict(self):
        h = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 9.0):
            h.observe(v)
        # Bucket upper bounds, not exact order statistics.
        assert quantile(h, 0.25) == 1.0
        assert quantile(h, 0.5) == 2.0
        assert quantile(h, 0.875) == 4.0
        assert quantile(h, 1.0) == pytest.approx(9.0)  # overflow -> max
        assert quantile(h.state(), 0.5) == quantile(h, 0.5)

    def test_quantile_empty_and_validation(self):
        h = Histogram("h", bounds=(1.0,))
        assert quantile(h, 0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            quantile(h, 1.5)
        with pytest.raises(ValueError, match="quantile"):
            quantile(h, -0.1)


# --------------------------------------------------------------------- #
# Recorder lifecycle and off mode.
# --------------------------------------------------------------------- #


class TestRecorder:
    def test_mode_and_run_validation(self):
        assert MODES == ("off", "summary", "jsonl")
        with pytest.raises(ValueError):
            Recorder("verbose", run="t")
        with pytest.raises(ValueError):
            Recorder("summary", run="a/b")

    def test_off_mode_records_nothing(self, tmp_path, capsys):
        with recording(mode="off", run="t", out_dir=tmp_path) as rec:
            assert rec is NULL
            assert get_recorder() is NULL
            telemetry.counter_add("c")
            telemetry.gauge_set("g", 1.0)
            telemetry.observe("h", 1.0)
            telemetry.event("e")
            with telemetry.span("s"):
                pass
        assert NULL.events_recorded == 0
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out == ""

    def test_activation_is_scoped(self):
        rec = Recorder("summary", run="t")
        assert get_recorder() is NULL
        with rec.activate():
            assert get_recorder() is rec
        assert get_recorder() is NULL

    def test_summary_mode_writes_no_file(self, tmp_path):
        import io

        sink = io.StringIO()
        with recording(mode="summary", run="t", out_dir=tmp_path, stream=sink):
            telemetry.counter_add("c")
        assert list(tmp_path.iterdir()) == []
        assert "telemetry summary" in sink.getvalue()

    def test_close_idempotent(self, tmp_path):
        import io

        rec = Recorder("jsonl", run="t", out_dir=tmp_path, stream=io.StringIO())
        rec.counter_add("c")
        p1 = rec.close()
        p2 = rec.close()
        assert p1 == p2 and p1.exists()
        # the second close must not duplicate flushed metric lines
        kinds = [e["type"] for e in load_run(p1)]
        assert kinds.count("metric") == 1

    def test_summary_table_renders(self):
        rec = Recorder("summary", run="t")
        with rec.activate():
            with rec.span("fit"):
                pass
        rec.counter_add("solve/calls", 3)
        rec.gauge_set("lr", 0.1)
        rec.observe("iters", 12.0, bounds=ITER_BUCKETS)
        out = rec.summary_table()
        for needle in ("fit", "solve/calls", "lr", "iters"):
            assert needle in out


# --------------------------------------------------------------------- #
# JSONL round trip.
# --------------------------------------------------------------------- #


def _record_workload(rec: Recorder) -> None:
    with rec.activate():
        with rec.span("train"):
            for k in range(3):
                with rec.span("epoch"):
                    rec.counter_add("solve/calls")
                    rec.observe("solve/iterations", 5.0 + k, bounds=ITER_BUCKETS)
        rec.gauge_set("final_loss", 0.25)
        rec.event("milestone", label="done")


class TestJsonlRoundTrip:
    def test_aggregate_round_trip(self, tmp_path):
        import io

        rec = Recorder("jsonl", run="rt", out_dir=tmp_path, stream=io.StringIO())
        _record_workload(rec)
        path = rec.close()
        events = load_run(path)
        assert aggregate_events(events) == rec.aggregate()

    def test_meta_header_first_with_schema(self, tmp_path):
        import io

        meta = run_metadata(config="cfg", seeds=(0, 1), note="x")
        rec = Recorder("jsonl", run="rt", out_dir=tmp_path, meta=meta,
                       stream=io.StringIO())
        _record_workload(rec)
        events = load_run(rec.close())
        head = meta_of(events)
        assert head["type"] == "meta" and head["schema"] == 3
        assert head["run"] == "rt"
        assert head["seeds"] == [0, 1]
        assert head["note"] == "x"
        assert isinstance(head["git_sha"], str) and head["git_sha"]

    def test_rejects_bad_logs(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"type": "span"}\n')
        with pytest.raises(ValueError, match="meta header"):
            load_run(p)
        for schema in (1, 2, 99):  # nothing writes 1 or 2; 3 is the one schema
            p.write_text('{"type": "meta", "schema": %d}\n' % schema)
            with pytest.raises(ValueError, match="unsupported schema"):
                load_run(p)
        # Corruption *before* the tail is an error, not truncation.
        p.write_text('{"schema": 3, "type": "meta"}\nnot json\n{"type": "event"}\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_run(p)

    def test_empty_log_raises_clear_error(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="empty run log"):
            load_run(p)
        p.write_text("\n   \n")
        with pytest.raises(ValueError, match="empty run log"):
            load_run(p)
        # A log that is *only* a partial line is empty after tolerance.
        p.write_text('{"schema": 3, "type": "me')
        with pytest.raises(ValueError, match="empty run log"):
            load_run(p)

    def test_trailing_partial_line_tolerated(self, tmp_path):
        """A run killed mid-write leaves a partial last line; the rest of
        the log must stay loadable."""
        rec = Recorder("jsonl", run="crash", out_dir=tmp_path,
                       stream=io.StringIO())
        with rec.activate():
            rec.event("alert", kind="drift", window=3)
        path = rec.close()
        whole = load_run(path)
        with open(path, "a") as fh:
            fh.write('{"type": "event", "name": "alert", "trunc')
        assert load_run(path) == whole

    def test_seq_monotone_and_sorted_keys(self, tmp_path):
        import io

        rec = Recorder("jsonl", run="rt", out_dir=tmp_path, stream=io.StringIO())
        _record_workload(rec)
        path = rec.close()
        raw = path.read_text().splitlines()
        for line in raw:
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True)
        seqs = [e["seq"] for e in load_run(path)[1:]]
        assert seqs == sorted(seqs) == list(range(len(seqs)))

    def test_deterministic_structure_across_runs(self, tmp_path):
        """Two identical seeded runs produce structurally identical logs
        (same lines once the wall-clock fields are masked)."""
        import io

        def one_run(name: str):
            rng = np.random.default_rng(0)
            T = rng.uniform(0.2, 3.0, (3, 8))
            A = rng.uniform(0.6, 0.99, (3, 8))
            p = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4),
                                entropy=0.05)
            rec = Recorder("jsonl", run=name, out_dir=tmp_path,
                           stream=io.StringIO())
            with rec.activate():
                with rec.span("solve"):
                    solve_relaxed(p, SolverConfig(max_iters=200))
            return rec.close()

        def masked(path):
            out = []
            for ev in load_run(path):
                ev = dict(ev)
                ev.pop("run", None)  # the only intentional difference
                if ev.get("type") in ("span", "span_summary"):
                    ev.pop("dur_s", None)
                    ev.pop("total_s", None)
                if ev.get("name", "").endswith("_s"):  # wall-clock histograms
                    for k in ("sum", "min", "max", "counts"):
                        ev.pop(k, None)
                out.append(json.dumps(ev, sort_keys=True))
            return out

        assert masked(one_run("a")) == masked(one_run("b"))


# --------------------------------------------------------------------- #
# Integration with the instrumented solver / metadata.
# --------------------------------------------------------------------- #


class TestIntegration:
    def test_solver_emits_convergence_metrics(self):
        rng = np.random.default_rng(1)
        T = rng.uniform(0.2, 3.0, (3, 8))
        A = rng.uniform(0.6, 0.99, (3, 8))
        p = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4),
                            entropy=0.05)
        rec = Recorder("summary", run="t")
        with rec.activate():
            sol = solve_relaxed(p, SolverConfig(max_iters=200))
        agg = rec.aggregate()
        assert agg["counters"]["solve/calls"]["value"] == 1
        hist = agg["histograms"]["solve/iterations"]
        assert hist["count"] == 1 and hist["sum"] >= 1
        # Line-search evaluations: at least one per iteration.
        trials = agg["histograms"]["solve/trials"]
        assert trials["count"] == 1
        assert trials["sum"] == sol.trials >= sol.iterations == hist["sum"]

    @staticmethod
    def _dispatch_recorder_on_off(clusters, dcfg=None, *, pool_size=12, epochs=2,
                                  rate=30.0, hours=1.5):
        """One short dispatch run twice — recorder off, then on; returns
        the recorder's histograms after asserting identical trace bytes."""
        from repro.methods import TSM, FitContext, MatchSpec
        from repro.predictors.training import TrainConfig
        from repro.serve import Dispatcher, PoissonLoad
        from repro.workloads import TaskPool

        pool = TaskPool(pool_size, rng=0)
        spec = MatchSpec(solver=SolverConfig(tol=1e-4, max_iters=100))
        ctx = FitContext.build(clusters, pool.split(0.6, rng=1)[0], spec, rng=2)
        method = TSM(train_config=TrainConfig(epochs=epochs)).fit(ctx)
        events = PoissonLoad(pool, rate).draw(hours, np.random.default_rng(3))

        off = Dispatcher(clusters, method, spec, dcfg).run(list(events), rng=4)
        rec = Recorder("summary", run="t")
        with rec.activate():
            on = Dispatcher(clusters, method, spec, dcfg).run(list(events), rng=4)
        assert on.trace_bytes() == off.trace_bytes()
        assert b"trials" not in on.trace_bytes()
        return rec.aggregate()["histograms"]

    def test_trials_metric_stays_out_of_the_dispatch_trace(self):
        """``solve/trials`` is observation only: the dispatch trace is the
        same bytes with the recorder on or off and never mentions it."""
        from repro.clusters import make_setting

        hists = self._dispatch_recorder_on_off(make_setting("A"))
        assert hists["solve/trials"]["sum"] >= hists["solve/iterations"]["sum"] > 0

    def test_blocks_mode_trials_and_padding_metrics(self):
        """Blocks mode reports the cascade's instance-evaluations under the
        same ``solve/trials`` name, and how ragged its windows were."""
        from repro.clusters import make_specialist_pool
        from repro.serve import DispatcherConfig

        # Predictors trained enough for the viability graph to split.
        hists = self._dispatch_recorder_on_off(
            make_specialist_pool(8), DispatcherConfig(max_batch=32, solve_mode="blocks"),
            pool_size=64, epochs=30, rate=200.0, hours=0.5)
        windows = hists["blocks/count"]["count"]
        assert windows > 0 and hists["blocks/count"]["sum"] > windows  # real splits
        assert hists["solve/trials"]["count"] == windows
        assert hists["solve/trials"]["sum"] >= hists["blocks/iterations"]["sum"] > 0
        assert hists["blocks/groups"]["count"] == hists["blocks/pad_frac"]["count"] == windows
        assert hists["blocks/pad_frac"]["sum"] > 0  # unequal task counts were padded

    def test_run_metadata_fields(self):
        meta = run_metadata(config={"a": 1}, seeds=np.array([3, 4]))
        assert meta["seeds"] == [3, 4]
        assert meta["config"] == repr({"a": 1})
        assert meta["python"].count(".") == 2
        assert isinstance(meta["argv"], list)

    def test_recording_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            with recording(mode="nope"):
                pass


# --------------------------------------------------------------------- #
# Labeled series and the metric registry.
# --------------------------------------------------------------------- #


class TestSeriesKeys:
    def test_unlabeled_key_is_the_bare_name(self):
        assert series_key("serve/windows") == "serve/windows"
        assert series_key("serve/windows", {}) == "serve/windows"

    def test_labels_sorted_and_escaped(self):
        key = series_key("m", {"b": "2", "a": "1"})
        assert key == 'm{a="1",b="2"}'
        # Insertion order never changes the canonical key.
        assert key == series_key("m", {"a": "1", "b": "2"})
        assert series_key("m", {"x": 'say "hi"\n'}) == 'm{x="say \\"hi\\"\\n"}'

    def test_split_round_trip(self):
        assert split_series_key("plain") == ("plain", "")
        name, suffix = split_series_key('m{a="1",b="2"}')
        assert name == "m" and suffix == '{a="1",b="2"}'

    def test_invalid_label_names_rejected(self):
        reg = MetricRegistry()
        for bad in ("", "0lead", "has-dash", "has space"):
            with pytest.raises(ValueError, match="label name"):
                reg.counter_add("m", labels={bad: "v"})
        with pytest.raises(ValueError, match="label name"):
            MetricRegistry(base_labels={"bad-name": "v"})


class TestMetricRegistry:
    def test_base_labels_stamp_every_series(self):
        reg = MetricRegistry(base_labels={"shard": "3"})
        reg.counter_add("serve/windows")
        reg.gauge_set("depth", 7.0)
        reg.observe("lat", 0.5, bounds=(1.0,))
        snap = reg.snapshot()
        assert set(snap["counters"]) == {'serve/windows{shard="3"}'}
        assert set(snap["gauges"]) == {'depth{shard="3"}'}
        assert set(snap["histograms"]) == {'lat{shard="3"}'}
        for section in ("counters", "gauges", "histograms"):
            (state,) = snap[section].values()
            assert state["labels"] == {"shard": "3"}

    def test_call_labels_merge_over_base(self):
        reg = MetricRegistry(base_labels={"shard": "0"})
        reg.counter_add("serve/windows", labels={"predictor_version": "v3"})
        (key,) = reg.snapshot()["counters"]
        assert key == 'serve/windows{predictor_version="v3",shard="0"}'

    def test_unlabeled_state_has_no_labels_field(self):
        """An unlabeled series serializes as the bare instrument state."""
        reg = MetricRegistry()
        reg.counter_add("n", 2.0)
        state = reg.snapshot()["counters"]["n"]
        assert state == {"value": 2.0, "calls": 1}

    def test_same_name_different_labels_are_distinct_series(self):
        reg = MetricRegistry()
        reg.counter_add("serve/windows", labels={"shard": "0"})
        reg.counter_add("serve/windows", 2.0, labels={"shard": "1"})
        reg.counter_add("serve/windows", 4.0, labels={"shard": "0"})
        snap = reg.snapshot()["counters"]
        assert snap['serve/windows{shard="0"}']["value"] == 5.0
        assert snap['serve/windows{shard="1"}']["value"] == 2.0

    def test_recorder_delegates_labels(self):
        rec = Recorder("summary", run="t", labels={"shard": "0"})
        with rec.activate():
            telemetry.counter_add("serve/windows")
            telemetry.observe("lat", 0.5, bounds=(1.0,))
        agg = rec.aggregate()
        assert 'serve/windows{shard="0"}' in agg["counters"]
        assert 'lat{shard="0"}' in agg["histograms"]


class TestFleetAggregation:
    def _record(self, tmp_path, shard, windows, lat):
        with recording(mode="jsonl", run=f"shard{shard}", out_dir=tmp_path,
                       labels={"shard": shard}) as rec:
            telemetry.counter_add("serve/windows", windows)
            telemetry.gauge_set("serve/queue_depth_last", 3.0 + windows)
            for v in lat:
                telemetry.observe("serve/lat", v, bounds=(0.5, 1.0))
            rec.event("serve/arrival", t=0.1, task_id=0)
        return tmp_path / f"shard{shard}.jsonl", rec.aggregate()

    def test_two_recorder_merge_is_lossless(self, tmp_path):
        """The acceptance gate: series recorded under distinct shard
        labels survive a fleet merge byte-for-byte — nothing sums across
        shards, nothing is dropped."""
        path0, agg0 = self._record(tmp_path, "0", windows=3, lat=[0.2, 0.7])
        path1, agg1 = self._record(tmp_path, "1", windows=5, lat=[1.4])
        fleet = aggregate_runs([path0, path1])
        for agg in (agg0, agg1):
            for section in ("counters", "gauges", "histograms"):
                for key, state in agg[section].items():
                    assert fleet[section][key] == state
        assert set(fleet["counters"]) == {
            'serve/windows{shard="0"}', 'serve/windows{shard="1"}'}

    def test_identical_keys_accumulate(self):
        h = {"bounds": [1.0], "counts": [2, 1], "count": 3, "sum": 2.5,
             "min": 0.1, "max": 3.0, "calls": 3}
        h2 = {"bounds": [1.0], "counts": [0, 4], "count": 4, "sum": 9.0,
              "min": 2.0, "max": 4.0, "calls": 4}
        merged = merge_aggregates([
            {"counters": {"n": {"value": 1.0, "calls": 1}},
             "gauges": {"g": {"value": 5.0, "calls": 1}},
             "histograms": {"h": h},
             "spans": {"fit": {"total_s": 1.0, "calls": 2, "errors": 0}}},
            {"counters": {"n": {"value": 2.0, "calls": 3}},
             "gauges": {"g": {"value": 9.0, "calls": 2}},
             "histograms": {"h": h2},
             "spans": {"fit": {"total_s": 0.5, "calls": 1, "errors": 1}}},
        ])
        assert merged["counters"]["n"] == {"value": 3.0, "calls": 4}
        assert merged["gauges"]["g"]["value"] == 9.0  # last writer wins
        assert merged["gauges"]["g"]["calls"] == 3
        hm = merged["histograms"]["h"]
        assert hm["counts"] == [2, 5] and hm["count"] == 7
        assert hm["min"] == 0.1 and hm["max"] == 4.0
        assert merged["spans"]["fit"] == {
            "total_s": 1.5, "calls": 3, "errors": 1}

    def test_histogram_bounds_mismatch_raises(self):
        a = {"histograms": {"h": {"bounds": [1.0], "counts": [1, 0],
                                  "count": 1, "sum": 0.5, "calls": 1}}}
        b = {"histograms": {"h": {"bounds": [2.0], "counts": [1, 0],
                                  "count": 1, "sum": 0.5, "calls": 1}}}
        with pytest.raises(ValueError, match="mismatched bucket bounds"):
            merge_aggregates([a, b])

    def test_quantile_of_merged_overflow_histogram(self):
        """Merged states lose per-value detail but never surface +inf:
        all-overflow mass falls back to the max sidecar."""
        h = {"bounds": [1.0], "counts": [0, 3], "count": 3, "sum": 9.0,
             "min": 2.0, "max": 4.0, "calls": 3}
        merged = merge_aggregates([{"histograms": {"h": h}}])
        assert quantile(merged["histograms"]["h"], 0.5) == 4.0


class TestQuantileHardening:
    """The documented finite-sentinel contract for degenerate states."""

    def test_empty_states_return_zero(self):
        assert quantile({"bounds": [1.0], "counts": [], "count": 0}, 0.9) == 0.0
        assert quantile({"bounds": [1.0], "counts": [0, 0], "count": 0}, 0.5) == 0.0
        assert quantile({"bounds": [1.0]}, 0.5) == 0.0

    def test_all_mass_in_overflow_uses_max_sidecar(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        h.observe(50.0, n=4)
        assert quantile(h, 0.5) == 50.0
        assert quantile(h, 1.0) == 50.0

    def test_overflow_without_finite_max_falls_back_to_last_bound(self):
        state = {"bounds": [1.0, 2.0], "counts": [0, 0, 5], "count": 5}
        assert quantile(state, 0.5) == 2.0  # max sidecar missing
        state["max"] = None
        assert quantile(state, 0.5) == 2.0
        state["max"] = float("inf")
        assert quantile(state, 0.5) == 2.0  # non-finite sidecar ignored
        state["max"] = 7.5
        assert quantile(state, 0.5) == 7.5


# --------------------------------------------------------------------- #
# Stage profiler (unit level; serving integration in test_serve.py).
# --------------------------------------------------------------------- #


class TestStageProfiler:
    def test_null_profiler_is_inert(self):
        assert NULL_PROFILER.enabled is False
        with NULL_PROFILER.stage("anything"):
            pass
        NULL_PROFILER.begin_window()
        NULL_PROFILER.end_window()
        NULL_PROFILER.observe_sim("wait", 1.0)
        assert NULL_PROFILER.events_recorded == 0

    def test_empty_budget(self):
        budget = StageProfiler().budget()
        assert budget["windows"] == 0
        assert budget["stages"] == {} and budget["sim_stages"] == {}
        assert budget["coverage_p95"] == 0.0

    def test_nested_stages_build_paths_and_self_time(self):
        prof = StageProfiler()
        prof.begin_window()
        with prof.stage("solve"):
            with prof.stage("relaxed"):
                pass
            with prof.stage("rounding"):
                pass
        prof.end_window()
        budget = prof.budget()
        assert set(budget["stages"]) == {
            "solve", "solve;relaxed", "solve;rounding"}
        solve = budget["stages"]["solve"]
        children = (budget["stages"]["solve;relaxed"]["total_s"]
                    + budget["stages"]["solve;rounding"]["total_s"])
        assert solve["self_s"] == pytest.approx(solve["total_s"] - children)
        assert budget["windows"] == 1
        # Only depth-1 time counts toward attribution (children are
        # already inside their parent's duration).
        assert budget["e2e"]["total_s"] >= solve["total_s"] > 0.0
        assert 0.0 < budget["coverage_p95"] <= 1.0

    def test_sim_stages_are_separate_from_wall_clock(self):
        prof = StageProfiler()
        prof.begin_window()
        with prof.stage("form"):
            pass
        for _ in range(3):
            prof.observe_sim("admission_wait", 0.25)
        prof.observe_sim("batch_wait", 0.1)
        prof.end_window()
        budget = prof.budget()
        sim = budget["sim_stages"]
        assert sim["admission_wait"]["calls"] == 3
        assert sim["admission_wait"]["total_hours"] == pytest.approx(0.75)
        assert sim["batch_wait"]["p50"] == pytest.approx(0.1)
        # Simulated hours never pollute the wall-clock coverage.
        assert budget["e2e"]["total_s"] < 0.25

    def test_collapsed_stacks_include_residual_root(self, tmp_path):
        prof = StageProfiler()
        prof.begin_window()
        with prof.stage("form"):
            pass
        deadline = time.perf_counter() + 0.002
        while time.perf_counter() < deadline:
            pass  # unattributed work between stages
        prof.end_window()
        lines = prof.collapsed_stacks()
        assert any(ln.startswith("window ") for ln in lines)  # residual
        out = prof.write_flamegraph(tmp_path / "flame.txt")
        assert out.read_text().strip().splitlines() == lines
