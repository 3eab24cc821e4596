"""Tests for the online quality monitor (repro.monitor).

Covers the full observability stack:

- drift detectors (quiet on stationary streams, fire on shifts, re-arm);
- SLO burn-rate rules (cold-start gate, rising-edge alerting);
- regret attribution (decomposition identity, exact lower bound,
  deterministic sampling);
- the QualityMonitor ServeCallback (pure observer, synthetic
  degradation fires ``retrain_suggested``, conservation check, alert
  telemetry events);
- Prometheus text export;
- JSONL trace replay (byte-identical re-drive, logged-counter
  verification, CLI round-trip through ``main()``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.monitor import (
    Cusum,
    DriftBank,
    MonitorConfig,
    PageHinkley,
    QualityMonitor,
    QuantileWindow,
    RegretAttributor,
    SLOMonitor,
    SLORule,
    TraceReplay,
    prometheus_text,
    render_top,
    sanitize_name,
    serve_snapshot,
    top,
)
from repro.serve import (
    Dispatcher,
    PoissonLoad,
    ServeConfig,
    ServeStats,
    build_stack,
)
from repro.serve.dispatcher import WindowSnapshot
from repro.telemetry import load_run, recording
from repro.utils.rng import as_generator


def _events(pool, rate=40.0, horizon=3.0, seed=3):
    return PoissonLoad(pool, rate).draw(horizon, as_generator(seed))


# --------------------------------------------------------------------- #
# Drift detectors.
# --------------------------------------------------------------------- #


class TestDriftDetectors:
    def test_page_hinkley_quiet_then_fires_on_shift(self):
        rng = np.random.default_rng(0)
        ph = PageHinkley(delta=0.05, threshold=5.0, min_samples=40)
        quiet = [float(x) for x in np.abs(rng.normal(0.1, 0.05, 300))]
        assert not any(ph.update(x) for x in quiet)
        shifted = [float(x) for x in np.abs(rng.normal(1.0, 0.2, 200))]
        fired_at = [i for i, x in enumerate(shifted) if ph.update(x)]
        assert fired_at, "Page-Hinkley never fired on a 10x mean shift"
        assert fired_at[0] < 50  # reacts within a few dozen samples

    def test_cusum_two_sided(self):
        down = Cusum(drift=0.02, threshold=1.0, warmup=30)
        xs = [0.5] * 30 + [-0.5] * 50  # downward shift after warmup
        assert any(down.update(x) for x in xs)
        up = Cusum(drift=0.02, threshold=1.0, warmup=30)
        xs = [0.0] * 30 + [1.0] * 50
        assert any(up.update(x) for x in xs)

    def test_quantile_window_catches_tail_blowup(self):
        rng = np.random.default_rng(1)
        qw = QuantileWindow(q=0.9, window=50, factor=2.5)
        base = [float(x) for x in np.abs(rng.normal(0.1, 0.02, 300))]
        assert not any(qw.update(x) for x in base)
        # Mean barely moves, tail explodes: every 10th sample is huge.
        tail = [2.0 if i % 10 == 0 else 0.1 for i in range(200)]
        assert any(qw.update(x) for x in tail)

    def test_reset_rearms(self):
        ph = PageHinkley(min_samples=5, threshold=0.5, delta=0.0)
        [ph.update(1.0 + i) for i in range(20)]
        ph.reset()
        assert ph.n == 0 and ph.stat == 0.0
        qw = QuantileWindow(window=4)
        [qw.update(1.0) for _ in range(10)]
        qw.reset()
        assert qw.stat == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError):
            Cusum(warmup=0)
        with pytest.raises(ValueError):
            QuantileWindow(q=1.0)
        with pytest.raises(ValueError):
            QuantileWindow(factor=1.0)

    def test_bank_fires_once_per_shift_and_rearms(self):
        bank = DriftBank("sig", {
            "ph": PageHinkley(delta=0.0, threshold=1.0, min_samples=5),
        })
        hits = [bank.update(x) for x in [0.0] * 10 + [2.0] * 100]
        fired = [i for i, h in enumerate(hits) if h]
        # The post-fire reset re-arms against the shifted regime, so a
        # sustained shift cannot alert on every subsequent sample.
        assert fired
        assert len(fired) < 10
        assert bank.state()["samples"] == 110
        with pytest.raises(ValueError):
            DriftBank("sig", {})


# --------------------------------------------------------------------- #
# SLO burn-rate rules.
# --------------------------------------------------------------------- #


class _ResortingQuantileWindow(QuantileWindow):
    """The detector as it was — the whole window re-sorted for every
    sample — kept verbatim as the oracle."""

    @property
    def stat(self) -> float:
        if self._ref_q is None or len(self._current) < self.window:
            return 0.0
        ordered = sorted(list(self._current))
        cur = ordered[min(len(ordered) - 1, int(self.q * len(ordered)))]
        return cur / max(self._ref_q, self.floor)

    def update(self, x: float) -> bool:
        if self._ref_q is None:
            self._reference.append(x)
            if len(self._reference) == self.window:
                ordered = sorted(self._reference)
                self._ref_q = ordered[min(len(ordered) - 1, int(self.q * len(ordered)))]
            return False
        self._current.append(x)
        if len(self._current) > self.window:
            self._current.popleft()
        return len(self._current) == self.window and self.stat > self.factor

    def reset(self) -> None:
        self._reference.clear()
        self._current.clear()
        self._ref_q = None


_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.1, 0.25, 3.0, float("inf")]),  # ties
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)


class TestQuantileWindowKeepsItsWindowSorted:
    @settings(max_examples=150)
    @given(
        q=st.sampled_from([0.5, 0.9, 0.99]),
        window=st.integers(2, 12),
        factor=st.sampled_from([1.5, 2.5]),
        stream=st.lists(st.one_of(_SAMPLE, st.just("reset")), max_size=120),
        rearm=st.booleans(),
    )
    def test_same_alarms_and_statistic_as_the_resorting_detector(
            self, q, window, factor, stream, rearm):
        new = QuantileWindow(q=q, window=window, factor=factor)
        old = _ResortingQuantileWindow(q=q, window=window, factor=factor)
        for x in stream:
            if x == "reset":
                new.reset(), old.reset()
                continue
            fired = new.update(x)
            assert fired == old.update(x)
            assert new.stat == old.stat
            assert new._sorted == sorted(new._current)
            if fired and rearm:  # what DriftBank does on an alarm
                new.reset(), old.reset()

    def test_a_nan_sample_leaves_with_its_window(self):
        new = QuantileWindow(q=0.9, window=5, factor=1.5)
        old = _ResortingQuantileWindow(q=0.9, window=5, factor=1.5)
        rng = np.random.default_rng(3)
        stream = [float(x) for x in rng.uniform(0.0, 1.0, 40)]
        stream[12] = stream[13] = float("nan")
        for k, x in enumerate(stream):
            assert new.update(x) == old.update(x) or 12 <= k < 18
        assert new.stat == old.stat and new._sorted == sorted(new._current)


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLORule(name="x", objective=0.0)
        with pytest.raises(ValueError):
            SLORule(name="x", objective=0.1, fast_windows=10, slow_windows=5)
        with pytest.raises(ValueError, match="duplicate"):
            SLOMonitor([SLORule(name="a", objective=0.1),
                        SLORule(name="a", objective=0.2)])

    def test_cold_start_gate_holds_alerts(self):
        mon = SLOMonitor([SLORule(name="r", objective=0.05,
                                  fast_windows=4, slow_windows=8)])
        # All-bad windows, but fewer than fast_windows seen: no alert yet.
        assert not mon.observe("r", 1, 1)
        assert not mon.observe("r", 1, 1)
        assert not mon.observe("r", 1, 1)
        assert mon.observe("r", 1, 1)  # 4th window: warmed and burning

    def test_rising_edge_only(self):
        mon = SLOMonitor([SLORule(name="r", objective=0.1,
                                  fast_windows=2, slow_windows=4,
                                  burn_threshold=2.0)])
        for _ in range(6):
            mon.observe("r", 0, 10)  # healthy history
        assert mon.observe("r", 10, 10)  # breach edge
        assert not mon.observe("r", 10, 10)  # still breaching: latched
        for _ in range(4):
            mon.observe("r", 0, 10)  # recover
        assert not mon.status["r"].breaching
        assert mon.observe("r", 10, 10)  # second edge alerts again
        assert mon.status["r"].alerts == 2

    def test_counts_validated(self):
        mon = SLOMonitor([SLORule(name="r", objective=0.1)])
        with pytest.raises(ValueError):
            mon.observe("r", 3, 2)

    @settings(max_examples=100)
    @given(
        fast=st.integers(1, 5), extra=st.integers(0, 6),
        counts=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60),
    )
    def test_running_sums_are_the_resummed_buffers(self, fast, extra, counts):
        """The burn rates come from integer sums carried along the rolling
        buffers; re-summing the last windows (how it was) is the oracle."""
        rule = SLORule(name="r", objective=0.1, fast_windows=fast,
                       slow_windows=fast + extra, burn_threshold=2.0)
        status = SLOMonitor([rule]).status["r"]
        seen, breaching = [], False

        def burn(pairs):
            total = sum(t for _, t in pairs)
            return (sum(b for b, _ in pairs) / total) / rule.objective if total else 0.0

        for bad, more in counts:
            seen.append((bad, bad + more))
            edge = status.observe(bad, bad + more)
            f, s = burn(seen[-fast:]), burn(seen[-(fast + extra):])
            assert (status.fast_burn, status.slow_burn) == (f, s)
            burning = len(seen) >= fast and f > 2.0 and s > 2.0
            assert edge == (burning and not breaching)
            breaching = burning


class _OneAtATimePageHinkley(PageHinkley):
    """``update`` as it was before ``scan``: one float, state on ``self``."""

    def update(self, x: float) -> bool:
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self.cum += x - self.mean - self.delta
        self.cum_min = min(self.cum_min, self.cum)
        return self.n >= self.min_samples and self.stat > self.threshold


class _OneAtATimeCusum(Cusum):
    def update(self, x: float) -> bool:
        self.n += 1
        if self.n <= self.warmup:
            self.reference += (x - self.reference) / self.n
            return False
        dev = x - self.reference
        self.g_pos = max(0.0, self.g_pos + dev - self.drift)
        self.g_neg = max(0.0, self.g_neg - dev - self.drift)
        return self.stat > self.threshold


class _OneAtATimeBank(DriftBank):
    """The bank's per-sample loop as it was, reading the crossing ``stat``
    before the fired detector re-arms."""

    def update(self, x: float):
        self.samples += 1
        hits = []
        for name, det in self.detectors.items():
            if det.update(x):
                hits.append((name, det.stat))
                self.fired.append((self.samples, name))
                det.reset()
        return hits


def _banks(window: int):
    def detectors(ph, cusum, qw):
        return {
            "page_hinkley": ph(delta=0.05, threshold=1.5, min_samples=6),
            "cusum": cusum(drift=0.05, threshold=1.0, warmup=5),
            "quantile_window": qw(q=0.9, window=window, factor=1.5),
        }
    return (DriftBank("sig", detectors(PageHinkley, Cusum, QuantileWindow)),
            _OneAtATimeBank("sig", detectors(
                _OneAtATimePageHinkley, _OneAtATimeCusum, _ResortingQuantileWindow)))


class TestUpdateManyIsRepeatedUpdate:
    @settings(max_examples=150)
    @given(
        window=st.integers(2, 9),
        chunks=st.lists(st.lists(_SAMPLE, max_size=24), max_size=12),
    )
    def test_same_alarms_statistics_and_state(self, window, chunks):
        new, old = _banks(window)
        for chunk in chunks:
            got = new.update_many(np.array(chunk, dtype=float))
            want = [(j, name, stat) for j, x in enumerate(chunk)
                    for name, stat in old.update(x)]
            # assert_equal: an ``inf`` sample leaves NaN state, equal to itself.
            np.testing.assert_equal(got, want)
            assert new.samples == old.samples and new.fired == old.fired
            for name, det in new.detectors.items():
                ref = old.detectors[name]
                np.testing.assert_equal(det.stat, ref.stat, err_msg=name)
                for f in ("n", "mean", "cum", "cum_min", "reference", "g_pos", "g_neg"):
                    if hasattr(det, f):
                        np.testing.assert_equal(getattr(det, f), getattr(ref, f), err_msg=f)

    def test_a_shift_mid_chunk_alarms_at_the_same_sample(self):
        rng = np.random.default_rng(5)
        stream = np.concatenate([np.abs(rng.normal(0.1, 0.03, 90)),
                                 np.abs(rng.normal(1.2, 0.3, 150))])
        new, old = _banks(window=16)
        got = []
        for lo in range(0, stream.size, 16):  # serving-sized chunks
            got += [(lo + j, name) for j, name, _ in new.update_many(stream[lo:lo + 16])]
        want = [(i, name) for i, x in enumerate(stream.tolist())
                for name, _ in old.update(x)]
        assert got == want and len({name for _, name in got}) == 3
        assert new.fired == old.fired == [(i + 1, name) for i, name in want]
        # ``update`` is ``update_many`` of one.
        assert new.update(50.0) == [name for name, _ in old.update(50.0)]

    def test_a_fired_alarm_reports_the_statistic_that_crossed(self):
        rng = np.random.default_rng(5)
        stream = np.concatenate([np.abs(rng.normal(0.1, 0.03, 90)),
                                 np.abs(rng.normal(1.2, 0.3, 150))])
        bank, _ = _banks(window=16)
        hits = bank.update_many(stream)
        assert {name for _, name, _ in hits} == set(bank.detectors)
        for _, name, stat in hits:
            det = bank.detectors[name]
            assert stat > (det.factor if name == "quantile_window" else det.threshold)


# --------------------------------------------------------------------- #
# Regret attribution.
# --------------------------------------------------------------------- #


def _snapshot(window, T, A, T_hat, A_hat, X, *, realized=None, success=None,
              time=1.0, gamma=0.2):
    m, k = T.shape
    realized = np.asarray(realized if realized is not None
                          else T[np.argmax(X, axis=0), np.arange(k)])
    success = np.asarray(success if success is not None else [True] * k)
    slack = float((X * A).sum() / (m * k) - gamma)
    return WindowSnapshot(
        window=window, time=time, cluster_ids=tuple(range(m)),
        task_ids=tuple(range(k)), T=T, A=A, T_hat=T_hat, A_hat=A_hat, X=X,
        gamma=gamma, reliability_slack=slack,
        arrival=np.full(k, max(time - 0.1, 0.0)), start=np.full(k, time),
        end=np.full(k, time) + realized, realized_hours=realized,
        success=success, requeues=np.zeros(k, dtype=int), queue_depth=0,
        arrived_total=(window + 1) * k, shed_total=0,
        features=np.zeros((k, 1)),
    )


def _toy_matrices(rng, m=3, k=4, err=0.0):
    T = rng.uniform(1.0, 4.0, size=(m, k))
    A = rng.uniform(0.7, 0.99, size=(m, k))
    T_hat = T * (1.0 + err * rng.standard_normal((m, k)))
    return T, np.clip(A, 0.0, 1.0), np.abs(T_hat) + 1e-3, A


class TestAttribution:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        T, A, T_hat, A_hat = _toy_matrices(rng, err=0.5)
        # A deliberately bad executed assignment: everything on cluster 0.
        X = np.zeros_like(T)
        X[0, :] = 1.0
        attributor = RegretAttributor(sample_every=1)
        out = attributor.attribute(_snapshot(0, T, A, T_hat, A_hat, X))
        assert out is not None
        assert out.total_gap == pytest.approx(
            out.prediction_gap + out.rounding_slack)
        assert out.total_gap == pytest.approx(
            (out.cost_executed - out.cost_fractional) / out.n_tasks)
        # Piling every task on one cluster must cost real makespan.
        assert out.prediction_gap > 0.0

    def test_sampling_is_deterministic_end_of_block(self):
        attributor = RegretAttributor(sample_every=5)
        assert [w for w in range(20) if attributor.wants(w)] == [4, 9, 14, 19]
        every = RegretAttributor(sample_every=1)
        assert all(every.wants(w) for w in range(5))

    def test_unsampled_window_returns_none(self):
        rng = np.random.default_rng(1)
        T, A, T_hat, A_hat = _toy_matrices(rng)
        X = np.eye(3, 4)
        attributor = RegretAttributor(sample_every=10)
        assert attributor.attribute(_snapshot(0, T, A, T_hat, A_hat, X)) is None
        assert attributor.summary() == {"sampled": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            RegretAttributor(sample_every=0)


# --------------------------------------------------------------------- #
# QualityMonitor.
# --------------------------------------------------------------------- #


def _feed(monitor, *, n_windows, err, rng, success_rate=1.0):
    """Drive a monitor with synthetic snapshots at a given error level."""
    for w in range(monitor.windows_seen, monitor.windows_seen + n_windows):
        T, A, T_hat, A_hat = _toy_matrices(rng, err=err)
        X = np.zeros_like(T)
        X[np.argmin(T_hat, axis=0), np.arange(T.shape[1])] = 1.0
        success = rng.random(T.shape[1]) < success_rate
        monitor.on_window(_snapshot(w, T, A, T_hat, A_hat, X,
                                    success=success, time=0.1 * (w + 1)))


def test_fixed_monitor_options_hold_the_defaults_they_had():
    """``asdict(MonitorConfig())`` as of 269f618: the fields that stayed keep
    their defaults, the ones that became constants keep their values."""
    from dataclasses import asdict

    from repro.monitor import quality
    from repro.monitor.drift import Cusum, PageHinkley, QuantileWindow

    slo = {"fast_windows": 6, "slow_windows": 30, "burn_threshold": 2.0}
    was = {
        "sample_every": 8, "exact_max_tasks": 0, "solver_config": None,
        "wait_bound_hours": 2.0, "cooldown_windows": 50,
        "slos": ({"name": "wait", "objective": 0.1, **slo},
                 {"name": "shed", "objective": 0.05, **slo},
                 {"name": "reliability", "objective": 0.05, **slo}),
        "time_delta": 0.05, "time_threshold": 4.0, "time_min_samples": 40,
        "time_quantile_window": 64, "reliability_drift": 0.08,
        "reliability_threshold": 6.0, "regret_delta": 0.02, "regret_threshold": 0.5,
        "regret_min_samples": 5,
    }
    now = asdict(MonitorConfig())
    assert now.items() <= {k: v for k, v in was.items() if k != "slos"}.items()
    assert len(now) <= 6
    assert quality.WAIT_BOUND_HOURS == was["wait_bound_hours"]
    assert tuple(asdict(r) for r in quality.DEFAULT_SLOS) == was["slos"]
    banks = QualityMonitor().banks
    assert banks["time_error"].detectors == {
        "page_hinkley": PageHinkley(delta=was["time_delta"], threshold=was["time_threshold"],
                                    min_samples=was["time_min_samples"]),
        "quantile_window": QuantileWindow(window=was["time_quantile_window"])}
    assert banks["reliability_error"].detectors == {
        "cusum": Cusum(drift=was["reliability_drift"], threshold=was["reliability_threshold"])}
    assert banks["decision_regret"].detectors == {
        "page_hinkley": PageHinkley(delta=was["regret_delta"], threshold=was["regret_threshold"],
                                    min_samples=was["regret_min_samples"])}
    assert not hasattr(QualityMonitor().attributor, "exact_max_tasks")


class TestQualityMonitor:
    def test_stationary_run_raises_no_drift_alerts(self):
        monitor = QualityMonitor()
        _feed(monitor, n_windows=80, err=0.02, rng=np.random.default_rng(0))
        kinds = {a.kind for a in monitor.alerts}
        assert "drift" not in kinds
        assert "retrain_suggested" not in kinds
        assert monitor.summary()["windows_seen"] == 80

    def test_synthetic_degradation_fires_retrain_suggested(self):
        monitor = QualityMonitor()
        rng = np.random.default_rng(0)
        _feed(monitor, n_windows=40, err=0.02, rng=rng)
        assert not monitor.retrain_suggested_at
        _feed(monitor, n_windows=40, err=1.5, rng=rng)
        assert monitor.retrain_suggested_at, "degradation never suggested retrain"
        drift = [a for a in monitor.alerts if a.kind == "drift"]
        assert {a.signal for a in drift} >= {"time_error", "decision_regret"}
        for a in drift:  # value is the crossing statistic, not the re-armed one
            det = monitor.banks[a.signal].detectors[a.detector]
            assert a.value > (det.factor if a.detector == "quantile_window" else det.threshold)

    def test_retrain_cooldown_suppresses_duplicates(self):
        monitor = QualityMonitor(MonitorConfig(cooldown_windows=1000))
        rng = np.random.default_rng(0)
        _feed(monitor, n_windows=40, err=0.02, rng=rng)
        _feed(monitor, n_windows=60, err=2.0, rng=rng)
        # Several detectors fire during sustained degradation, but the
        # cooldown admits a single retrain suggestion.
        assert len(monitor.retrain_suggested_at) == 1

    def test_identical_feeds_give_identical_alert_sequences(self):
        logs = []
        for _ in range(2):
            monitor = QualityMonitor()
            rng = np.random.default_rng(7)
            _feed(monitor, n_windows=30, err=0.02, rng=rng)
            _feed(monitor, n_windows=30, err=1.0, rng=rng)
            logs.append(monitor.alert_log())
        assert logs[0] == logs[1]

    def test_conservation_violation_alerts_on_finish(self):
        monitor = QualityMonitor()
        stats = ServeStats(arrived=10, completed=4, failed=1, shed=2, unserved=1)
        monitor.on_finish(stats)  # 2 tasks unaccounted for
        assert [a.kind for a in monitor.alerts] == ["conservation"]
        assert monitor.alerts[0].value == 2.0

    def test_alerts_become_telemetry_events(self, tmp_path):
        import io

        with recording(mode="jsonl", run="monitor-events", out_dir=tmp_path,
                       stream=io.StringIO()):
            monitor = QualityMonitor()
            rng = np.random.default_rng(0)
            _feed(monitor, n_windows=40, err=0.02, rng=rng)
            _feed(monitor, n_windows=40, err=1.5, rng=rng)
            monitor.on_finish(ServeStats())
        events = load_run(tmp_path / "monitor-events.jsonl")
        alert_events = [e for e in events
                        if e.get("type") == "event" and e.get("name") == "alert"]
        assert len(alert_events) == len(monitor.alerts)
        assert {e["kind"] for e in alert_events} >= {"drift", "retrain_suggested"}


# --------------------------------------------------------------------- #
# Prometheus export.
# --------------------------------------------------------------------- #


class TestPrometheusExport:
    def test_sanitize_name(self):
        assert sanitize_name("serve/solve_iterations") == \
            "repro_serve_solve_iterations"
        assert sanitize_name("a b//c") == "repro_a_b_c"
        assert sanitize_name("9lives") == "repro_9lives"
        with pytest.raises(ValueError):
            sanitize_name("///")

    def test_histogram_renders_cumulative_le_series(self):
        agg = {
            "counters": {"serve/shed": {"value": 3, "calls": 3}},
            "gauges": {"monitor/windows_seen": {"value": 7.0, "calls": 1}},
            "histograms": {"serve/batch_size": {
                "bounds": [1.0, 2.0], "counts": [1, 2, 1], "count": 4,
                "sum": 8.0, "min": 1.0, "max": 5.0, "calls": 4}},
            "spans": {"solve": {"total_s": 0.5, "calls": 2, "errors": 1}},
        }
        text = prometheus_text(agg)
        assert 'repro_serve_batch_size_bucket{le="1"} 1' in text
        assert 'repro_serve_batch_size_bucket{le="2"} 3' in text
        assert 'repro_serve_batch_size_bucket{le="+Inf"} 4' in text
        assert "repro_serve_batch_size_sum 8" in text
        assert "repro_serve_batch_size_count 4" in text
        assert "repro_serve_shed_total 3" in text
        assert "repro_monitor_windows_seen 7" in text
        assert "repro_solve_seconds_total 0.5" in text
        assert "repro_solve_errors_total 1" in text
        assert text == prometheus_text(agg)  # deterministic

    def test_empty_aggregate_renders_empty(self):
        assert prometheus_text({}) == ""


# --------------------------------------------------------------------- #
# Trace replay (dispatcher integration + CLI round trip).
# --------------------------------------------------------------------- #


REPLAY_CONFIG = ServeConfig(pool_size=20, seed=0, train_epochs=5,
                            solver_tol=1e-4, solver_max_iters=300,
                            max_batch=12)
REPLAY_PARAMS = REPLAY_CONFIG.to_params()


@pytest.fixture(scope="module")
def replay_stack():
    """One trained stack reused across every replay of the same params."""
    return build_stack(REPLAY_CONFIG)


@pytest.fixture(scope="module")
def run_log(tmp_path_factory, replay_stack):
    """A real monitored serve run recorded to JSONL, ready to replay."""
    import io

    out_dir = tmp_path_factory.mktemp("telemetry")
    pool, clusters, method, spec, cfg = replay_stack
    events = _events(pool, rate=30.0, horizon=2.0, seed=3)
    with recording(mode="jsonl", run="serve-run", out_dir=out_dir,
                   meta={"serve": REPLAY_PARAMS}, stream=io.StringIO()):
        dispatcher = Dispatcher(clusters, method, spec, cfg)
        stats = dispatcher.run(events, rng=REPLAY_PARAMS["seed"] + 4)
    return out_dir / "serve-run.jsonl", stats


class TestTraceReplay:
    def test_replay_reproduces_run_exactly(self, run_log, replay_stack):
        path, original = run_log
        replay = TraceReplay.from_logs([path])
        stats = replay.replay(stack=replay_stack)
        assert replay.verify(stats) == []
        assert stats.trace_bytes() == original.trace_bytes()
        assert stats.conserved

    def test_replay_twice_is_byte_identical_with_same_alerts(
            self, run_log, replay_stack):
        path, _ = run_log
        replay = TraceReplay.from_logs([path])
        traces, alert_logs = [], []
        for _ in range(2):
            monitor = QualityMonitor(MonitorConfig(sample_every=2))
            stats = replay.replay(callbacks=[monitor], stack=replay_stack)
            traces.append(stats.trace_bytes())
            alert_logs.append(monitor.alert_log())
        assert traces[0] == traces[1]
        assert alert_logs[0] == alert_logs[1]

    def test_monitoring_does_not_change_the_trace(self, run_log, replay_stack):
        path, original = run_log
        replay = TraceReplay.from_logs([path])
        monitored = replay.replay(callbacks=[QualityMonitor()],
                                  stack=replay_stack)
        assert monitored.trace_bytes() == original.trace_bytes()
        assert monitored.callback_seconds > 0.0
        assert original.callback_seconds == 0.0

    def test_verify_catches_tampered_counters(self, run_log, replay_stack):
        path, _ = run_log
        replay = TraceReplay.from_logs([path])
        stats = replay.replay(stack=replay_stack)
        replay.run_stats["completed"] += 1
        problems = replay.verify(stats)
        assert any("completed" in p for p in problems)

    def test_from_log_rejects_non_serve_logs(self, tmp_path, capsys):
        import io

        with recording(mode="jsonl", run="not-serve", out_dir=tmp_path,
                       stream=io.StringIO()) as rec:
            rec.event("something", x=1)
        with pytest.raises(ValueError, match="serve"):
            TraceReplay.from_logs([tmp_path / "not-serve.jsonl"])
        # The command says so in one line and exits 2, like its siblings.
        assert main(["replay", "--log", str(tmp_path / "not-serve.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not-serve.jsonl" in err
        # A serve dict short of a key every writer writes: the error
        # names the log and the key.
        partial = {k: v for k, v in REPLAY_PARAMS.items() if k != "warm_start"}
        with recording(mode="jsonl", run="partial", out_dir=tmp_path,
                       meta={"serve": partial}, stream=io.StringIO()):
            pass
        with pytest.raises(ValueError, match=r"partial\.jsonl.*missing.*warm_start"):
            TraceReplay.from_logs([tmp_path / "partial.jsonl"])
        # A serve dict with a key no field carries (a log another version
        # of the code wrote): refused by file and key, exit code 2.
        foreign = {**REPLAY_PARAMS, "monitor": {"sample_every": 8, "slos": []}}
        with recording(mode="jsonl", run="foreign", out_dir=tmp_path,
                       meta={"serve": foreign}, stream=io.StringIO()):
            pass
        with pytest.raises(ValueError, match=r"foreign\.jsonl.*unknown keys \['slos'\]"):
            TraceReplay.from_logs([tmp_path / "foreign.jsonl"])
        assert main(["replay", "--log", str(tmp_path / "foreign.jsonl")]) == 2
        assert "unknown keys ['slos']" in capsys.readouterr().err

    def test_replay_refuses_a_learned_seed_log(self, tmp_path, capsys):
        """A log whose run seeded windows from the retired learned head
        cannot be reproduced: the command says so and exits 2."""
        import io

        params = {**REPLAY_PARAMS, "warm_start": "learned"}
        with recording(mode="jsonl", run="learned", out_dir=tmp_path,
                       meta={"serve": params}, stream=io.StringIO()) as rec:
            rec.event("serve/arrival", t=0.1, task_id=0)
        assert main(["replay", "--log", str(tmp_path / "learned.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot replay") and "warm_start" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_from_log_rejects_empty_arrivals(self, tmp_path):
        import io

        with recording(mode="jsonl", run="no-arrivals", out_dir=tmp_path,
                       meta={"serve": REPLAY_PARAMS}, stream=io.StringIO()):
            pass
        with pytest.raises(ValueError, match="nothing to replay"):
            TraceReplay.from_logs([tmp_path / "no-arrivals.jsonl"])

    def test_cli_round_trip(self, tmp_path, monkeypatch, capsys):
        """serve run --telemetry jsonl, then replay + monitor via main()."""
        monkeypatch.chdir(tmp_path)
        rc = main(["serve", "run", "--pool-size", "16", "--rate", "25",
                   "--horizon", "1.5", "--train-epochs", "4",
                   "--telemetry", "jsonl"])
        assert rc == 0
        log = tmp_path / "results" / "telemetry" / "serve-run.jsonl"
        assert log.exists()
        alerts_out = tmp_path / "alerts.jsonl"
        rc = main(["replay", "--log", str(log),
                   "--alerts-out", str(alerts_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay verified" in out
        assert alerts_out.exists()
        for line in alerts_out.read_text().splitlines():
            json.loads(line)
        rc = main(["monitor", "--log", str(log),
                   "--prometheus", str(tmp_path / "metrics.prom")])
        assert rc == 0
        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_serve_arrived_total" in prom


# --------------------------------------------------------------------- #
# Replaying schedule-driven hot-swaps against the original registry.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def swap_run_log(tmp_path_factory, replay_stack):
    """A run whose hot-swap came from an external swap_schedule (no
    retrain section in the log), recorded with its checkpoint registry."""
    import io

    from repro.serve import ModelRegistry

    base = tmp_path_factory.mktemp("swap-replay")
    pool, clusters, method, spec, cfg = replay_stack
    registry = ModelRegistry(base / "registry")
    registry.save(method, tag="deploy")
    events = _events(pool, rate=30.0, horizon=2.0, seed=3)
    with recording(mode="jsonl", run="swap-run", out_dir=base,
                   meta={"serve": REPLAY_PARAMS}, stream=io.StringIO()):
        dispatcher = Dispatcher(clusters, method, spec, cfg,
                                registry=registry,
                                swap_schedule={1: "v0001"})
        stats = dispatcher.run(events, rng=REPLAY_PARAMS["seed"] + 4)
    assert stats.swaps == 1
    return base / "swap-run.jsonl", base / "registry", stats


class TestScheduleSwapReplay:
    def test_without_registry_root_is_rejected(self, swap_run_log,
                                               replay_stack):
        path, _, _ = swap_run_log
        replay = TraceReplay.from_logs([path])
        assert replay.swaps and replay.config.retrain is None
        with pytest.raises(ValueError, match="registry_root"):
            replay.replay(stack=replay_stack)

    def test_registry_root_reapplies_the_logged_swaps(self, swap_run_log,
                                                      replay_stack):
        path, registry_root, original = swap_run_log
        replay = TraceReplay.from_logs([path])
        stats = replay.replay(stack=replay_stack,
                              registry_root=str(registry_root))
        assert replay.verify(stats) == []
        assert stats.trace_bytes() == original.trace_bytes()
        assert stats.swaps == 1

    def test_unknown_version_fails_fast(self, swap_run_log, replay_stack,
                                        tmp_path):
        path, _, _ = swap_run_log
        replay = TraceReplay.from_logs([path])
        with pytest.raises(ValueError, match="not present"):
            replay.replay(stack=replay_stack, registry_root=str(tmp_path))

    def test_retrained_checkpoint_fails_digest_check(self, swap_run_log,
                                                     replay_stack, tmp_path):
        from repro.serve import ModelRegistry

        path, _, _ = swap_run_log
        # A registry whose v0001 holds *different* weights than the run's.
        config = REPLAY_CONFIG.with_overrides(seed=7)
        _, _, other_method, _, _ = build_stack(config)
        imposter = ModelRegistry(tmp_path / "imposter")
        imposter.save(other_method, tag="retrained-since")
        replay = TraceReplay.from_logs([path])
        with pytest.raises(ValueError, match="digest"):
            replay.replay(stack=replay_stack,
                          registry_root=str(tmp_path / "imposter"))


# --------------------------------------------------------------------- #
# Prometheus exposition edge cases (labeled registry, weird values).
# --------------------------------------------------------------------- #


class TestPrometheusEdgeCases:
    def test_distinct_names_colliding_after_sanitize_raise(self):
        agg = {"counters": {
            "serve/shed": {"value": 1, "calls": 1},
            "serve_shed": {"value": 2, "calls": 1},  # same sanitized name
        }}
        with pytest.raises(ValueError, match="collision"):
            prometheus_text(agg)

    def test_same_name_different_labels_share_one_family(self):
        agg = {"counters": {
            'serve/windows{shard="0"}': {"value": 3, "calls": 3,
                                         "labels": {"shard": "0"}},
            'serve/windows{shard="1"}': {"value": 5, "calls": 5,
                                         "labels": {"shard": "1"}},
        }}
        text = prometheus_text(agg)
        assert text.count("# TYPE repro_serve_windows_total counter") == 1
        assert 'repro_serve_windows_total{shard="0"} 3' in text
        assert 'repro_serve_windows_total{shard="1"} 5' in text

    def test_nan_and_inf_render_prometheus_spellings(self):
        agg = {"gauges": {
            "g/nan": {"value": float("nan"), "calls": 1},
            "g/pos": {"value": float("inf"), "calls": 1},
            "g/neg": {"value": float("-inf"), "calls": 1},
        }}
        lines = prometheus_text(agg).splitlines()
        assert "repro_g_nan NaN" in lines
        assert "repro_g_pos +Inf" in lines
        assert "repro_g_neg -Inf" in lines

    def test_labeled_histogram_merges_le_into_suffix(self):
        agg = {"histograms": {'lat{shard="2"}': {
            "bounds": [1.0], "counts": [2, 1], "count": 3, "sum": 2.5,
            "min": 0.5, "max": 4.0, "calls": 3, "labels": {"shard": "2"},
        }}}
        text = prometheus_text(agg)
        assert 'repro_lat_bucket{shard="2",le="1"} 2' in text
        assert 'repro_lat_bucket{shard="2",le="+Inf"} 3' in text
        assert 'repro_lat_sum{shard="2"} 2.5' in text
        assert 'repro_lat_count{shard="2"} 3' in text

    def test_ordering_is_input_order_independent(self):
        a = {"counters": {
            'm{shard="1"}': {"value": 1, "calls": 1, "labels": {"shard": "1"}},
            'm{shard="0"}': {"value": 2, "calls": 2, "labels": {"shard": "0"}},
        }}
        b = {"counters": dict(reversed(list(a["counters"].items())))}
        text = prometheus_text(a)
        assert text == prometheus_text(b)
        assert text.index('shard="0"') < text.index('shard="1"')


# --------------------------------------------------------------------- #
# Live metrics plane (/metrics endpoint + serve top).
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def live_run(tmp_path_factory, replay_stack):
    """A profiled, monitored, journey-traced run under a shard-labelled
    JSONL recorder, with the live snapshot taken mid-run and after drain."""
    import io
    from dataclasses import replace

    from repro.serve import ServeCallback
    from repro.telemetry import StageProfiler

    out_dir = tmp_path_factory.mktemp("live")
    pool, clusters, method, spec, cfg = replay_stack
    events = _events(pool, rate=30.0, horizon=2.0, seed=3)
    monitor, prof, snaps = QualityMonitor(), StageProfiler(), {}

    class MidRun(ServeCallback):
        def on_window(self, snapshot):
            if snapshot.window == 4:
                snaps["mid"] = snapshot_fn()

    with recording(mode="jsonl", run="serve-run-0", out_dir=out_dir,
                   meta={"serve": REPLAY_PARAMS}, labels={"shard": "0"},
                   stream=io.StringIO()) as rec:
        dispatcher = Dispatcher(clusters, method, spec,
                                replace(cfg, journey_sample=1.0),
                                callbacks=[monitor, MidRun()], profiler=prof)

        def snapshot_fn():
            return serve_snapshot(rec, profiler=prof, monitor=monitor,
                                  journeys=dispatcher.journeys,
                                  extra={"run": "serve-run-0"})

        dispatcher.run(events, rng=REPLAY_PARAMS["seed"] + 4)
        snaps["drained"] = snapshot_fn()
    return out_dir / "serve-run-0.jsonl", snaps


class TestLivePlane:
    def _snapshot(self):
        from repro.telemetry import Recorder, StageProfiler
        import io as _io

        rec = Recorder("summary", run="live", stream=_io.StringIO(),
                       labels={"shard": "0"})
        prof = StageProfiler()
        with rec.activate():
            from repro import telemetry

            telemetry.counter_add("serve/windows", 4)
            telemetry.counter_add("serve/arrived", 9)
            telemetry.counter_add("serve/seed_cache", 3)
            telemetry.counter_add("serve/seed_cold", 1)
            telemetry.observe("serve/queue_depth", 5.0, bounds=(2.0, 8.0))
            prof.begin_window()
            with prof.stage("solve"):
                pass
            prof.observe_sim("batch_wait", 0.05)
            prof.end_window()
            return serve_snapshot(rec, profiler=prof, extra={"run": "live"})

    def test_serve_snapshot_summarizes_labeled_run(self):
        from repro.telemetry.metrics import quantile

        snap = self._snapshot()
        agg = snap["aggregate"]
        # One record: the budget is gauges of the aggregate, under the
        # recorder's base labels; no private status/profile channels.
        assert "status" not in snap and "profile" not in snap
        assert agg["counters"]['serve/seed_cache{shard="0"}']["value"] == 3.0
        assert agg["counters"]['serve/seed_cold{shard="0"}']["value"] == 1.0
        assert quantile(agg["histograms"]['serve/queue_depth{shard="0"}'],
                        0.95) == 8.0
        assert agg["gauges"]['serve/profile_windows{shard="0"}']["value"] == 1
        assert 'serve/windows{shard="0"}' in agg["counters"]

    def test_render_top_is_pure_and_complete(self):
        snap = self._snapshot()
        text = render_top(snap)
        assert "repro serve top — live" in text
        assert "windows      4" in text
        assert "cache" in text and "cold" in text
        assert "latency budget over 1 windows" in text
        assert "solve" in text and "(unattr)" in text
        assert "batch_wait" in text
        # Pure: same snapshot, same text.
        assert render_top(snap) == text

    def test_metrics_server_serves_scrape_and_snapshot(self):
        import urllib.error
        import urllib.request

        from repro.monitor import MetricsServer

        snap = self._snapshot()
        with MetricsServer(lambda: snap) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                body = resp.read().decode()
            assert 'repro_serve_windows_total{shard="0"} 4' in body
            # Mid-run scrape carries the live stage budget as gauges,
            # under the recorder's shard label like the drained ones.
            assert 'repro_serve_stage_total_s{shard="0",stage="solve"}' in body
            assert "repro_serve_profile_coverage_p95" in body
            with urllib.request.urlopen(f"{server.url}/snapshot") as resp:
                parsed = json.loads(resp.read().decode())
            counters = parsed["aggregate"]["counters"]
            assert counters['serve/seed_cache{shard="0"}']["value"] == 3
            assert counters['serve/seed_cold{shard="0"}']["value"] == 1
            with urllib.request.urlopen(f"{server.url}/healthz") as resp:
                assert resp.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope")
            assert err.value.code == 404
            url = server.url
        with pytest.raises(OSError):  # context exit stopped the server
            urllib.request.urlopen(f"{url}/healthz", timeout=0.5)

    def test_top_once_renders_and_exits_clean(self):
        import contextlib
        import io as _io

        from repro.monitor import MetricsServer, top

        snap = self._snapshot()
        out = _io.StringIO()
        with MetricsServer(lambda: snap) as server, \
                contextlib.redirect_stdout(out):
            assert top(server.url, iterations=1) == 0
        text = out.getvalue()
        assert "repro serve top — live" in text
        assert "\x1b[2J" not in text  # no ANSI clear on a non-tty stream

    def test_top_unreachable_endpoint_fails_gracefully(self):
        import contextlib
        import io as _io

        out = _io.StringIO()
        with contextlib.redirect_stdout(out):
            assert top("127.0.0.1:9", iterations=1) == 1
        assert "cannot reach" in out.getvalue()

    @pytest.mark.parametrize("status", [200, 404])
    def test_top_non_json_endpoint_fails_gracefully(self, status):
        import contextlib
        import io as _io
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Html(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"<html>not a repro endpoint</html>"
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Html)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        url = f"127.0.0.1:{httpd.server_address[1]}"
        out = _io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                assert top(url, iterations=1) == 1
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert out.getvalue().startswith(
            f"serve top: cannot read snapshot from {url}: ")
        assert "Traceback" not in out.getvalue()

    def test_live_metrics_keep_their_series_keys_through_drain(self, live_run):
        """A shard-labelled run's budget and SLO series have the same keys
        mid-run as after drain: the live snapshot sets the same gauges,
        under the same base labels, that the drain path writes."""
        import urllib.request

        from repro.monitor import MetricsServer

        _, snaps = live_run
        bodies = {}
        for when in ("mid", "drained"):
            with MetricsServer(lambda: snaps[when]) as server:
                with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                    bodies[when] = resp.read().decode()
        prefixes = ("repro_serve_stage_", "repro_serve_window_",
                    "repro_serve_profile_", "repro_serve_sim_stage_",
                    "repro_monitor_slo_", "repro_monitor_alerts_total")

        def keys(body):
            return sorted(ln.rsplit(" ", 1)[0] for ln in body.splitlines()
                          if ln.startswith(prefixes))

        assert keys(bodies["mid"]) == keys(bodies["drained"])
        assert 'repro_serve_stage_total_s{shard="0",stage="solve"}' \
            in keys(bodies["mid"])
        assert 'repro_monitor_slo_wait_fast_burn{shard="0"}' \
            in keys(bodies["mid"])

    def test_top_from_log_equals_the_drained_live_frame(self, live_run):
        from repro.monitor import snapshot_from_logs

        log, snaps = live_run
        frame = render_top(snaps["drained"])
        assert render_top(snapshot_from_logs([log])) == frame
        for section in ("seed sources:", "latency budget over",
                        "simulated-time stages", "wait exemplars",
                        "SLO burn rates"):
            assert section in frame

    def test_busy_metrics_port_exits_before_training(self, capsys):
        import socket

        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            code = main(["serve", "run", "--pool-size", "16",
                         "--train-epochs", "1", "--metrics-port", str(port)])
        out, err = capsys.readouterr()
        assert code == 2
        assert "training" not in out
        assert err.strip().splitlines() == [err.strip()]
        assert f"port {port}" in err and "Traceback" not in err
