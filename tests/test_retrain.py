"""Tests for the closed-loop online learning pipeline (repro.retrain).

Covers the full loop plus the serving-API redesign that ships with it:

- label harvesting edge cases: orphan/re-queue dedup, causality
  (``end <= now``), eviction, newest-first holdout split, and the
  conservation identity between buffer contents and dispatcher records;
- cooperative refits: StepwiseTrainer reproduces the blocking training
  loops' trajectory exactly when driven in arbitrary step budgets;
- the checkpoint registry's promotion surface: deterministic weights
  digests, live pointer, lineage, rollback, and the invariant that
  canary-rejected checkpoints are saved but never become live;
- the canary gate: insufficient holdout always fails, a self-comparison
  always passes, a degraded candidate fails with named reasons;
- the typed ServeConfig facade: validation, JSON round-trip, and the
  deprecation shims over the legacy dict helpers;
- alert sinks: fan-out, file tailing, and sink-failure isolation;
- the end-to-end closed loop: drift -> retrain -> canary -> hot-swap ->
  lower served error, byte-identical on re-run; the mirrored scenario
  where every candidate is rejected and live never moves; and trace
  replay of a run whose checkpoints were swapped by the loop itself.
"""

from __future__ import annotations

import io
import json
import warnings

import numpy as np
import pytest

from repro.matching.relaxed import SolverConfig
from repro.monitor import (
    FileTailSink,
    MonitorConfig,
    QualityMonitor,
    TraceReplay,
)
from repro.predictors.models import PredictorPair
from repro.predictors.training import (
    WEIGHT_DECAY,
    StepwiseTrainer,
    TrainConfig,
    train_reliability,
    train_time_mse,
)
from repro.retrain import (
    CanaryGate,
    CanaryWindow,
    Label,
    RefitJob,
    ReplayBuffer,
    RetrainConfig,
)
from repro.retrain import buffer as buffer_module
from repro.serve import (
    Dispatcher,
    DispatcherConfig,
    ModelRegistry,
    Outage,
    ServeCallback,
    ServeConfig,
    build_platform,
    build_stack,
    weights_digest,
)
from repro.telemetry import recording
from repro.utils.rng import as_generator


def _label(task_id=0, arrival=0.0, cluster_id=0, window=0, dispatched=0.5,
           end=1.0, realized_hours=0.4, success=True, requeues=0, d=3):
    return Label(task_id=task_id, arrival=arrival, cluster_id=cluster_id,
                 window=window, dispatched=dispatched, end=end,
                 realized_hours=realized_hours, success=success,
                 requeues=requeues, features=np.full(d, float(task_id)))


# --------------------------------------------------------------------- #
# Replay buffer: dedup, causality, eviction, split.
# --------------------------------------------------------------------- #


class TestReplayBuffer:
    def test_later_dispatch_supersedes_earlier(self):
        buf = ReplayBuffer()
        buf.add(_label(dispatched=0.5, end=1.0, realized_hours=0.4))
        buf.add(_label(dispatched=2.0, end=2.6, realized_hours=0.6))
        assert len(buf) == 1
        assert buf.labels()[0].realized_hours == 0.6
        assert buf.stats()["superseded"] == 1

    def test_out_of_order_phantom_is_dropped(self):
        buf = ReplayBuffer()
        buf.add(_label(dispatched=2.0, end=2.6, realized_hours=0.6))
        buf.add(_label(dispatched=0.5, end=1.0, realized_hours=0.4))
        assert len(buf) == 1
        assert buf.labels()[0].realized_hours == 0.6
        assert buf.stats()["superseded"] == 0

    def test_same_task_different_arrivals_are_distinct(self):
        buf = ReplayBuffer()
        buf.add(_label(task_id=7, arrival=0.25))
        buf.add(_label(task_id=7, arrival=1.75))
        assert len(buf) == 2

    def test_discard_voids_requeued_label(self):
        buf = ReplayBuffer()
        buf.add(_label(task_id=3, arrival=0.5))
        assert buf.discard(3, 0.5)
        assert not buf.discard(3, 0.5)
        assert len(buf) == 0
        assert buf.stats()["discarded"] == 1

    def test_ready_enforces_causality(self):
        buf = ReplayBuffer()
        buf.add(_label(task_id=0, end=1.0))
        buf.add(_label(task_id=1, end=3.0))
        assert [l.task_id for l in buf.ready(2.0)] == [0]
        assert [l.task_id for l in buf.ready(3.0)] == [0, 1]

    def test_capacity_evicts_oldest_by_end(self, monkeypatch):
        monkeypatch.setattr(buffer_module, "CAPACITY", 2)
        buf = ReplayBuffer()
        for tid, end in ((0, 5.0), (1, 1.0), (2, 9.0)):
            buf.add(_label(task_id=tid, end=end))
        assert sorted(l.task_id for l in buf.labels()) == [0, 2]
        assert buf.stats()["evicted"] == 1

    def test_heap_eviction_matches_the_scan(self, monkeypatch):
        """10 000 labels with supersedes, out-of-order phantoms, discards
        and ``end`` ties: the heap evicts exactly the labels a scan for
        the least ``(end, key)`` evicts, and keeps the same counters."""
        monkeypatch.setattr(buffer_module, "CAPACITY", 256)
        rng = np.random.default_rng(5)
        buf, scan = ReplayBuffer(), _ScanBuffer()
        keys: "list[tuple[int, float]]" = []
        for i in range(10_000):
            u = rng.random()
            if u < 0.05 and keys:
                tid, arrival = keys[rng.integers(len(keys))]
                assert buf.discard(tid, arrival) == scan.discard(tid, arrival)
                continue
            if u < 0.15 and keys:  # a later (or out-of-order) dispatch
                tid, arrival = keys[rng.integers(len(keys))]
            else:
                tid, arrival = i, float(rng.integers(400)) / 8
                keys.append((tid, arrival))
            label = _label(task_id=tid, arrival=arrival,
                           dispatched=float(rng.integers(400)) / 8,
                           end=float(rng.integers(400)) / 8)
            buf.add(label)
            scan.add(label)
            assert buf._labels.keys() == scan._labels.keys()
        assert all(buf._labels[k] is scan._labels[k] for k in scan._labels)
        assert buf.stats() == scan.stats()
        assert min(buf.stats()[c] for c in ("superseded", "discarded", "evicted")) > 0

    def test_sample_is_deterministic_and_causal(self):
        buf = ReplayBuffer()
        for tid in range(20):
            buf.add(_label(task_id=tid, end=float(tid)))
        a = buf.sample(15.0, 5, as_generator(0))
        b = buf.sample(15.0, 5, as_generator(0))
        assert [l.key for l in a] == [l.key for l in b]
        assert all(l.end <= 15.0 for l in a)

    def test_split_holdout_takes_newest(self):
        buf = ReplayBuffer()
        labels = [_label(task_id=tid, end=float(tid)) for tid in range(8)]
        train, hold = buf.split_holdout(labels)
        assert [l.task_id for l in hold] == [6, 7]
        assert [l.task_id for l in train] == [0, 1, 2, 3, 4, 5]

    def test_datasets_censor_failed_runs_from_time_head(self):
        labels = [_label(task_id=0, success=True, realized_hours=0.5),
                  _label(task_id=1, success=False, realized_hours=0.1)]
        ds = ReplayBuffer.datasets(labels)[0]
        assert ds.n_time == 1 and ds.n_rel == 2
        assert ds.t.tolist() == [0.5]
        assert ds.a.tolist() == [1.0, 0.0]


class _ScanBuffer(ReplayBuffer):
    """The buffer as it was: an eviction scans every label for the least
    ``(end, key)``, and a harvest builds each label from NumPy scalars."""

    def add(self, label):
        self.harvested += 1
        prior = self._labels.get(label.key)
        if prior is not None:
            if label.dispatched < prior.dispatched:
                return
            self.superseded += 1
        self._labels[label.key] = label
        if len(self._labels) > buffer_module.CAPACITY:
            oldest = min(self._labels.values(), key=lambda l: (l.end, l.key))
            del self._labels[oldest.key]
            self.evicted += 1

    def harvest(self, snapshot):
        k = len(snapshot.task_ids)
        for j in range(k):
            self.add(Label(
                task_id=int(snapshot.task_ids[j]),
                arrival=float(snapshot.arrival[j]),
                cluster_id=int(snapshot.cluster_ids[
                    int(np.argmax(snapshot.X[:, j]))]),
                window=snapshot.window,
                dispatched=snapshot.time,
                end=float(snapshot.end[j]),
                realized_hours=float(snapshot.realized_hours[j]),
                success=bool(snapshot.success[j]),
                requeues=int(snapshot.requeues[j]),
                features=snapshot.features[j],
            ))
        return k


class _Harvester(ServeCallback):
    """Minimal harvesting callback: the controller's buffer wiring alone,
    with a per-task-loop buffer fed beside it."""

    def __init__(self):
        self.buffer = ReplayBuffer()
        self.per_task = _ScanBuffer()

    def on_window(self, snapshot):
        assert self.buffer.harvest(snapshot) == self.per_task.harvest(snapshot)

    def on_requeue(self, task_id, arrival, t):
        self.buffer.discard(task_id, arrival)
        self.per_task.discard(task_id, arrival)


class TestHarvestFromDispatcher:
    """Edge cases against a real outage-ridden run (ISSUE satellite 5)."""

    @pytest.fixture(scope="class")
    def harvested(self, retrain_stack):
        from repro.serve import PoissonLoad

        pool, clusters, spec, method = retrain_stack
        events = PoissonLoad(pool, 60.0).draw(3.0, as_generator(3))
        harvester = _Harvester()
        dispatcher = Dispatcher(
            clusters, method, spec,
            DispatcherConfig(max_batch=8, max_wait_hours=0.25,
                             queue_capacity=64),
            callbacks=[harvester])
        stats = dispatcher.run(
            events, rng=4,
            outages=[Outage(cluster_id=0, start=0.6, end=1.4)])
        return harvester.buffer, stats, harvester.per_task

    def test_outage_run_requeues(self, harvested):
        _, stats, _ = harvested
        assert stats.requeued > 0, "fixture must exercise the orphan path"

    def test_window_harvest_builds_the_per_task_labels(self, harvested):
        buf, _, twin = harvested
        labels, per_task = buf.labels(), twin.labels()
        assert len(labels) == len(per_task) > 0
        for got, want in zip(labels, per_task):
            for name in Label._fields:
                a, b = getattr(got, name), getattr(want, name)
                if name == "features":
                    assert a.tobytes() == b.tobytes()
                else:
                    assert (type(a), a) == (type(b), b), name
        assert buf.stats() == twin.stats()

    def test_no_duplicate_logical_arrivals(self, harvested):
        buf, _, _ = harvested
        keys = [l.key for l in buf.labels()]
        assert len(keys) == len(set(keys))

    def test_requeued_labels_resolve_to_final_dispatch(self, harvested):
        buf, stats, _ = harvested
        final = {(r.task_id, r.arrival): r for r in stats.records}
        requeued = [l for l in buf.labels() if l.requeues > 0]
        assert requeued, "orphaned tasks must re-appear with requeues > 0"
        for label in buf.labels():
            rec = final[label.key]
            assert label.end == rec.end
            assert label.success == rec.success
            assert label.requeues == rec.requeues

    def test_no_time_travelling_labels(self, harvested):
        buf, _, _ = harvested
        for label in buf.labels():
            assert label.end >= label.dispatched >= label.arrival

    def test_conservation_buffer_matches_run_counters(self, harvested):
        buf, stats, _ = harvested
        # Every executed logical arrival yields exactly one surviving
        # label; phantoms from pre-outage dispatches are superseded or
        # discarded, never double-counted.
        assert len(buf) == stats.completed + stats.failed
        s = buf.stats()
        assert s["harvested"] == len(buf) + s["superseded"] + s["discarded"]


# --------------------------------------------------------------------- #
# Cooperative refits.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def retrain_stack():
    """Small trained serving stack shared across the retrain tests."""
    from repro.clusters import make_setting
    from repro.matching.relaxed import SolverConfig
    from repro.methods import TSM, FitContext, MatchSpec
    from repro.workloads import TaskPool

    pool = TaskPool(24, rng=0)
    clusters = make_setting("A")
    train, _ = pool.split(0.6, rng=1)
    spec = MatchSpec(solver=SolverConfig(tol=1e-4, max_iters=300))
    ctx = FitContext.build(clusters, train, spec, rng=2)
    method = TSM(train_config=TrainConfig(epochs=8)).fit(ctx)
    return pool, clusters, spec, method


def _toy_data(n=24, d=4, seed=0):
    rng = as_generator(seed)
    Z = rng.normal(size=(n, d))
    t = np.exp(rng.normal(size=n) * 0.3 + 0.5)
    a = rng.uniform(0.2, 1.0, size=n)
    return Z, t, a


class TestStepwiseTrainer:
    def test_matches_blocking_time_loop_exactly(self):
        Z, t, _ = _toy_data()
        cfg = TrainConfig(epochs=5, batch_size=8)
        blocking = PredictorPair(Z.shape[1], (8,), rng=7)
        stepwise = PredictorPair(Z.shape[1], (8,), rng=7)
        res = train_time_mse(blocking.time, Z, t, cfg, as_generator(11))
        trainer = StepwiseTrainer(stepwise.time, Z, t, cfg, as_generator(11),
                                  loss="log_mse")
        while not trainer.done:
            trainer.run_steps(3)  # deliberately awkward budget
        np.testing.assert_allclose(trainer.result().history, res.history)
        probe = as_generator(5).normal(size=(6, Z.shape[1]))
        np.testing.assert_array_equal(blocking.time.predict(probe),
                                      stepwise.time.predict(probe))

    def test_matches_blocking_reliability_loop_exactly(self):
        Z, _, a = _toy_data()
        cfg = TrainConfig(epochs=4, batch_size=8)
        blocking = PredictorPair(Z.shape[1], (8,), rng=3)
        stepwise = PredictorPair(Z.shape[1], (8,), rng=3)
        res = train_reliability(blocking.reliability, Z, a, cfg, as_generator(9))
        trainer = StepwiseTrainer(stepwise.reliability, Z, a, cfg,
                                  as_generator(9), loss="mse")
        while not trainer.done:
            trainer.run_steps(1)
        np.testing.assert_allclose(trainer.result().history, res.history)

    def test_budget_is_respected_and_done_is_sticky(self):
        Z, t, _ = _toy_data()
        trainer = StepwiseTrainer(PredictorPair(Z.shape[1], (8,), rng=0).time,
                                  Z, t, TrainConfig(epochs=2, batch_size=8),
                                  as_generator(0))
        assert trainer.run_steps(1) == 1
        assert trainer.steps_done == 1
        total = trainer.total_steps
        assert trainer.run_steps(10_000) == total - 1
        assert trainer.done
        assert trainer.run_steps(5) == 0
        with pytest.raises(RuntimeError):
            trainer.step()


class TestRefitJob:
    def _datasets(self, d=4):
        labels = [_label(task_id=tid, cluster_id=tid % 2, end=float(tid), d=d)
                  for tid in range(20)]
        return ReplayBuffer.datasets(labels)

    def test_skips_starved_clusters_but_trains_the_rest(self):
        live = [PredictorPair(4, (8,), rng=i) for i in range(2)]
        datasets = self._datasets()
        job = RefitJob.build(live, [0, 1], {0: datasets[0]},
                             config=TrainConfig(epochs=2, batch_size=8),
                             rng=as_generator(0), min_cluster_labels=4)
        assert job.trained_clusters == [0]
        assert job.skipped_clusters == [1]
        while not job.done:
            job.run_steps(7)
        # Starved cluster keeps the live weights; trained cluster moved.
        probe = as_generator(1).normal(size=(3, 4))
        np.testing.assert_array_equal(live[1].time.predict(probe),
                                      job.pairs[1].time.predict(probe))
        assert not np.array_equal(live[0].time.predict(probe),
                                  job.pairs[0].time.predict(probe))

    def test_all_clusters_starved_raises(self):
        live = [PredictorPair(4, (8,), rng=0)]
        with pytest.raises(ValueError):
            RefitJob.build(live, [0], {}, rng=as_generator(0))


# --------------------------------------------------------------------- #
# Registry promotion surface.
# --------------------------------------------------------------------- #


class TestRegistryPromotion:
    @pytest.fixture()
    def registry(self, retrain_stack, tmp_path):
        _, _, _, method = retrain_stack
        reg = ModelRegistry(tmp_path / "registry")
        reg.save(method, tag="bootstrap")
        reg.set_live("v0001")
        return reg, method

    def test_digest_is_deterministic_and_weight_sensitive(self, retrain_stack):
        _, _, _, method = retrain_stack
        d1, d2 = weights_digest(method), weights_digest(method)
        assert d1 == d2 and len(d1) == 64
        other = [p.clone() for p in method.pairs]
        trainer = StepwiseTrainer(other[0].time, *_toy_data(d=other[0].in_features)[:2],
                                  TrainConfig(epochs=1, batch_size=8),
                                  as_generator(0))
        trainer.run_steps(1)
        assert weights_digest(other) != d1

    def test_save_never_moves_live(self, registry, retrain_stack):
        reg, method = registry
        info = reg.save(method, tag="canary-rejected", parent="v0001")
        assert reg.live() == "v0001"
        assert info.version == "v0002"
        assert reg.info("v0002").meta["tag"] == "canary-rejected"

    def test_lineage_and_rollback(self, registry, retrain_stack):
        reg, method = registry
        reg.save(method, tag="refit-incremental", parent="v0001")
        reg.set_live("v0002")
        reg.save(method, tag="refit-incremental", parent="v0002")
        reg.set_live("v0003")
        assert reg.lineage() == ["v0003", "v0002", "v0001"]
        info = reg.rollback()
        assert info.version == "v0002"
        assert reg.live() == "v0002"

    def test_live_pointer_survives_reopen(self, registry, tmp_path):
        reg, _ = registry
        assert ModelRegistry(tmp_path / "registry").live() == reg.live()


# --------------------------------------------------------------------- #
# Canary gate.
# --------------------------------------------------------------------- #


class TestCanaryGate:
    def _fixture(self, d=4, n=24, seed=0):
        rng = as_generator(seed)
        pairs = [PredictorPair(d, (8,), rng=1)]
        labels = [
            _label(task_id=i, cluster_id=0, end=float(i),
                   realized_hours=float(np.exp(rng.normal() * 0.2)),
                   success=bool(rng.uniform() < 0.9), d=d)
            for i in range(n)
        ]
        Z = np.stack([l.features for l in labels[:6]])
        windows = [CanaryWindow(
            window=0, pair_rows=(0,),
            T=np.abs(rng.normal(size=(1, 6))) + 0.1,
            A=rng.uniform(0.5, 1.0, size=(1, 6)),
            gamma=0.5, Z=Z)]
        return pairs, labels, windows

    def test_insufficient_holdout_always_fails(self):
        pairs, labels, windows = self._fixture()
        gate = CanaryGate(min_holdout=12)
        decision = gate.evaluate(pairs, pairs, {0: 0}, labels[:5], windows)
        assert not decision.passed
        assert decision.reasons == ("insufficient_holdout(5<12)",)
        assert np.isnan(decision.time_mse_candidate)

    def test_self_comparison_passes(self):
        pairs, labels, windows = self._fixture()
        gate = CanaryGate(min_holdout=4)
        decision = gate.evaluate(pairs, pairs, {0: 0}, labels, windows)
        assert decision.passed and decision.reasons == ()
        assert decision.time_mse_candidate == decision.time_mse_live
        assert decision.regret_candidate == decision.regret_live

    def test_degraded_candidate_fails_with_named_axes(self):
        pairs, labels, windows = self._fixture()
        bad = [PredictorPair(4, (8,), rng=99)]
        Z = np.stack([l.features for l in labels])
        ok = np.array([l.success for l in labels])
        t = np.array([l.realized_hours for l in labels])[ok]
        # Train the live model so the untrained candidate is clearly worse.
        train_time_mse(pairs[0].time, Z[ok], t,
                       TrainConfig(epochs=60, batch_size=8), as_generator(0))
        gate = CanaryGate(min_holdout=4)
        decision = gate.evaluate(bad, pairs, {0: 0}, labels, windows)
        assert not decision.passed
        assert "time_mse" in decision.reasons
        assert decision.metrics()["canary_passed"] == 0.0

    def test_no_cached_windows_is_vacuously_equal_on_regret(self):
        pairs, labels, _ = self._fixture()
        gate = CanaryGate(min_holdout=4)
        decision = gate.evaluate(pairs, pairs, {0: 0}, labels, [])
        assert decision.passed
        assert np.isnan(decision.regret_candidate)


# --------------------------------------------------------------------- #
# ServeConfig facade + deprecation shims.
# --------------------------------------------------------------------- #


def test_fixed_retrain_options_hold_the_defaults_they_had():
    """``asdict(RetrainConfig())`` as of 269f618, against the fields that
    stayed and the constants the others became."""
    from dataclasses import asdict

    from repro.retrain import buffer, canary, loop

    was = {
        "trigger": "drift", "period_windows": 0, "cooldown_windows": 16, "capacity": 4096,
        "min_labels": 32, "min_cluster_labels": 8, "sample_size": 256,
        "half_life_hours": 8.0, "holdout_fraction": 0.25, "mode": "incremental",
        "steps_per_window": 8, "epochs": 40, "lr": 0.005, "batch_size": 16,
        "weight_decay": 1e-05, "canary_min_holdout": 12, "canary_windows": 6,
        "time_ratio_max": 1.0, "brier_ratio_max": 1.05, "regret_ratio_max": 1.02,
        "guard_windows": 10, "guard_ratio": 1.5, "seed": 0,
    }
    now = asdict(RetrainConfig())
    assert now.items() <= was.items() and len(now) <= 15
    assert buffer.CAPACITY == was["capacity"]
    assert buffer.HOLDOUT_FRACTION == was["holdout_fraction"]
    assert buffer.HALF_LIFE_HOURS == was["half_life_hours"]
    train = RetrainConfig().train_config()
    assert (train.batch_size, train.epochs, train.lr) == (was["batch_size"], 40, 0.005)
    assert WEIGHT_DECAY == was["weight_decay"]
    assert (canary.TIME_RATIO_MAX, canary.BRIER_RATIO_MAX, canary.REGRET_RATIO_MAX) == (
        was["time_ratio_max"], was["brier_ratio_max"], was["regret_ratio_max"])
    assert canary.ABS_SLACK == 1e-3  # CanaryGate's own default, never a config field
    assert loop.GUARD_RATIO == was["guard_ratio"]


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(pool_size=0)
        with pytest.raises(ValueError):
            ServeConfig(shed_policy="panic")
        with pytest.raises(ValueError):
            RetrainConfig(trigger="hope")

    def test_json_round_trip_with_subsystems(self):
        config = ServeConfig(
            pool_size=20, train_epochs=5, max_batch=12,
            monitor=MonitorConfig(sample_every=5),
            retrain=RetrainConfig(trigger="both", period_windows=6, seed=3),
            registry_root="/tmp/reg")
        params = json.loads(json.dumps(config.to_params()))
        assert ServeConfig.from_params(params) == config

    def test_from_params_names_a_missing_key(self):
        # Every writer writes every key; a dict without one is not a
        # serve parameter dict, and the error says which key.
        for key in ("setting", "solve_mode", "monitor", "journey_sample"):
            params = ServeConfig(pool_size=20).to_params()
            params.pop(key)
            with pytest.raises(ValueError, match=f"missing.*{key}"):
                ServeConfig.from_params(params)
        # ...and one with a key no field carries was written by another
        # version of the code: refused by name, at every nesting level.
        full = ServeConfig(
            pool_size=20, monitor=MonitorConfig(solver_config=SolverConfig()),
            retrain=RetrainConfig(trigger="manual"), registry_root="/tmp/reg").to_params()
        for section, what, key in (
                (full, "serve", "warm_cache"),
                (full["monitor"], "monitor", "slos"),
                (full["monitor"]["solver_config"], "monitor solver_config", "backtrack"),
                (full["retrain"], "retrain", "guard_ratio")):
            section[key] = 1
            with pytest.raises(ValueError, match=rf"{what} params have unknown keys \['{key}'\]"):
                ServeConfig.from_params(full)
            del section[key]
        assert ServeConfig.from_params(full).retrain.trigger == "manual"

    def test_with_overrides(self):
        base = ServeConfig()
        assert base.with_overrides(seed=9).seed == 9
        assert base.seed == 0

    def test_solver_knobs_validate_and_round_trip(self):
        with pytest.raises(ValueError):
            ServeConfig(solve_mode="quantum")
        with pytest.raises(ValueError):
            ServeConfig(warm_start="maybe")
        config = ServeConfig(warm_start="off", solve_mode="blocks")
        params = json.loads(json.dumps(config.to_params()))
        assert params["solve_mode"] == "blocks"
        assert params["warm_start"] == "off"
        assert ServeConfig.from_params(params) == config
        dcfg = config.dispatcher_config()
        assert dcfg.solve_mode == "blocks"
        assert not dcfg.warm_start

    def test_bool_warm_start_rejected(self):
        # The string is the only spelling: a boolean fails the same
        # membership check as any other unknown value, and so does the
        # retired "learned" seed source.
        for flag in (True, False, "learned"):
            with pytest.raises(ValueError, match="warm_start"):
                ServeConfig(warm_start=flag)
        off = ServeConfig(warm_start="off")
        assert not off.dispatcher_config().warm_start

    def test_legacy_helpers_removed(self):
        # The PR-5 deprecation shims are gone: ServeConfig / build_stack
        # from repro.serve are the only way in.
        with pytest.raises(ImportError):
            from repro.monitor import serve_params  # noqa: F401
        with pytest.raises(ImportError):
            from repro.monitor.replay import build_stack  # noqa: F401
        import repro.monitor as monitor

        assert "serve_params" not in monitor.__all__
        assert "build_stack" not in monitor.__all__

    def test_clusters_registry_shim_removed(self):
        import importlib
        import sys

        sys.modules.pop("repro.clusters.registry", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.clusters.registry")


# --------------------------------------------------------------------- #
# Alert sinks.
# --------------------------------------------------------------------- #


class _ExplodingSink:
    def emit(self, alert):
        raise RuntimeError("sink down")


class _SpySink:
    def __init__(self):
        self.seen = []

    def emit(self, alert):
        self.seen.append(alert)


def _monitored_run(retrain_stack, sinks):
    from repro.serve import PoissonLoad

    pool, clusters, spec, method = retrain_stack
    monitor = QualityMonitor(MonitorConfig(sample_every=5, time_threshold=0.5,
                                           time_delta=0.01))
    for sink in sinks:
        monitor.add_sink(sink)
    dispatcher = Dispatcher(clusters, method, spec,
                            DispatcherConfig(max_batch=8, max_wait_hours=0.25,
                                             queue_capacity=64),
                            callbacks=[monitor])
    events = PoissonLoad(pool, 40.0).draw(3.0, as_generator(3))
    dispatcher.run(events, rng=4)
    return monitor


class TestAlertSinks:
    def test_fan_out_reaches_every_sink(self, retrain_stack, tmp_path):
        path = tmp_path / "alerts.jsonl"
        spy = _SpySink()
        monitor = _monitored_run(retrain_stack, [FileTailSink(path), spy])
        assert monitor.alerts, "fixture must raise at least one alert"
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(monitor.alerts) == len(spy.seen)
        assert lines[0]["kind"] == monitor.alerts[0].kind
        assert spy.seen[0].window == monitor.alerts[0].window

    def test_failing_sink_is_isolated(self, retrain_stack):
        spy = _SpySink()
        monitor = _monitored_run(retrain_stack, [_ExplodingSink(), spy])
        assert monitor.alerts, "fixture must raise at least one alert"
        # The healthy sink got every alert; failures were counted, and
        # the run itself was never interrupted.
        assert spy.seen == monitor.alerts
        assert monitor.sink_errors["_ExplodingSink"] == len(monitor.alerts)
        assert monitor.summary()["sink_errors"]["_ExplodingSink"] > 0

    def test_add_sink_chains(self, tmp_path):
        monitor = QualityMonitor().add_sink(_SpySink())
        assert monitor.sinks


# --------------------------------------------------------------------- #
# The closed loop, end to end.
# --------------------------------------------------------------------- #

#: Drift-triggered closed loop sized for tests: the label-count backoff
#: defers the (single) drift trigger until enough evidence accumulated.
LOOP_RETRAIN = RetrainConfig(
    trigger="drift", min_labels=90, min_cluster_labels=4, sample_size=128,
    epochs=8, steps_per_window=64, canary_min_holdout=4, guard_windows=3,
    cooldown_windows=4)


def _loop_config(train_epochs, retrain=LOOP_RETRAIN):
    return ServeConfig(
        pool_size=24, seed=0, train_epochs=train_epochs,
        solver_max_iters=300, max_batch=8,
        monitor=MonitorConfig(sample_every=5), retrain=retrain)


def _run_loop(config, root, horizon=8.0, telemetry=None, out_dir=None):
    platform = build_platform(config, registry_root=str(root))
    events = platform.load("poisson", 30.0).draw(
        horizon, as_generator(config.seed + 3))
    if telemetry:
        with recording(mode="jsonl", run=telemetry, out_dir=str(out_dir),
                       meta={"serve": config.to_params()},
                       stream=io.StringIO()):
            stats = platform.run(events)
    else:
        stats = platform.run(events)
    return platform, stats


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def recovery(self, tmp_path_factory):
        """Undertrained deploy: drift fires, refit promotes, error drops."""
        root = tmp_path_factory.mktemp("loop")
        config = _loop_config(train_epochs=1)
        platform, stats = _run_loop(config, root / "a", telemetry="loop",
                                    out_dir=root)
        return config, platform, stats, root

    def test_drift_alert_started_the_cascade(self, recovery):
        _, platform, _, _ = recovery
        kinds = [a.kind for a in platform.monitor.alerts]
        assert "retrain_suggested" in kinds
        triggered = [e for e in platform.controller.events
                     if e["kind"] == "triggered"]
        assert triggered and triggered[0]["reason"].startswith("drift")

    def test_canary_passed_and_swap_applied(self, recovery):
        _, platform, stats, _ = recovery
        kinds = [e["kind"] for e in platform.controller.events]
        assert "promoted" in kinds
        assert stats.swaps >= 1
        assert platform.registry.live() != "v0001"
        assert [s["reason"] for s in stats.swap_events] == ["retrain"] * stats.swaps

    def test_post_swap_error_below_pre_retrain_level(self, recovery):
        _, platform, _, _ = recovery
        first = next(e["window"] for e in platform.controller.events
                     if e["kind"] == "promoted")
        errors = platform.controller.window_errors
        pre = [m for w, m in errors if w <= first]
        post = [m for w, m in errors if w > first]
        assert pre and post
        assert np.mean(post) < np.mean(pre)

    def test_promotion_lineage_is_recorded(self, recovery):
        _, platform, _, _ = recovery
        lineage = platform.registry.lineage()
        assert lineage[-1] == "v0001"
        assert len(lineage) >= 2

    def test_rerun_is_byte_identical(self, recovery):
        config, platform, stats, root = recovery
        platform2, stats2 = _run_loop(config, root / "b")
        assert stats2.trace_bytes() == stats.trace_bytes()
        assert platform2.registry.live() == platform.registry.live()
        assert (platform2.registry.info(platform2.registry.live()).digest
                == platform.registry.info(platform.registry.live()).digest)

    def test_trace_replay_reproduces_retrain_swaps(self, recovery):
        config, platform, stats, root = recovery
        replay = TraceReplay.from_logs([root / "loop.jsonl"])
        assert replay.swaps, "log must carry hot-swap breadcrumbs"
        assert replay.config == config.with_overrides(
            registry_root=replay.config.registry_root)
        stats2 = replay.replay()
        assert replay.verify(stats2) == []
        assert stats2.trace_bytes() == stats.trace_bytes()

    def test_canary_rejection_protects_a_healthy_deploy(self, tmp_path):
        config = _loop_config(
            train_epochs=120,
            retrain=RetrainConfig(
                trigger="periodic", period_windows=5, min_labels=24,
                min_cluster_labels=4, sample_size=128, epochs=8,
                steps_per_window=64, canary_min_holdout=4, guard_windows=3,
                cooldown_windows=6))
        platform, stats = _run_loop(config, tmp_path / "reg", horizon=6.0)
        kinds = [e["kind"] for e in platform.controller.events]
        assert "rejected" in kinds
        assert "promoted" not in kinds
        assert stats.swaps == 0
        assert platform.registry.live() == "v0001"
        rejected = [e["version"] for e in platform.controller.events
                    if e["kind"] == "rejected"]
        for version in rejected:
            assert platform.registry.info(version).meta["tag"] == "canary-rejected"
