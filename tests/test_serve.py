"""Tests for the online serving layer (repro.serve).

Covers the four serving components end to end:

- load generation (determinism, validation, factory);
- the warm-start solver cache and prediction memo;
- the versioned checkpoint registry (round-trip, hot-swap, mismatch);
- the micro-batching dispatcher (byte-identical soak replay, bounded
  queue + shedding, dropout re-queue zero-loss, warm≈cold equivalence).
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.matching.relaxed import SolverConfig, solve_relaxed
from repro.methods import TSM, Decision, FitContext, MatchSpec
from repro.methods.base import BaseMethod
from repro.predictors.models import PredictorPair
from repro.predictors.training import TrainConfig
from repro.serve import cache as cache_module
from repro.serve import (
    CHECKPOINT_FORMAT,
    BurstyLoad,
    DiurnalLoad,
    Dispatcher,
    DispatcherConfig,
    ModelRegistry,
    Outage,
    PoissonLoad,
    PredictionMemo,
    ServeCallback,
    ServeConfig,
    WarmStartCache,
    batch_size_bucket,
    build_stack,
    make_cache_key,
    make_load,
    weights_digest,
)
from repro.telemetry import recording
from repro.utils.rng import as_generator
from repro.workloads import TaskPool

#: Serving-grade solver: looser tol than the offline experiments so the
#: tests run in seconds (the rounded assignment is long since stable in
#: the 1e-7 tail).
SOLVER = SolverConfig(tol=1e-4, max_iters=300)


@pytest.fixture(scope="module")
def stack():
    """A small trained serving stack shared by the dispatcher tests."""
    pool = TaskPool(24, rng=0)
    clusters = make_setting("A")
    train, _ = pool.split(0.6, rng=1)
    spec = MatchSpec(solver=SOLVER)
    ctx = FitContext.build(clusters, train, spec, rng=2)
    method = TSM(train_config=TrainConfig(epochs=8)).fit(ctx)
    return pool, clusters, spec, method


def _events(pool, rate=40.0, horizon=3.0, seed=3):
    return PoissonLoad(pool, rate).draw(horizon, as_generator(seed))


# --------------------------------------------------------------------- #
# Load generation.
# --------------------------------------------------------------------- #


class TestLoadgen:
    def test_poisson_deterministic(self):
        pool = TaskPool(8, rng=0)
        load = PoissonLoad(pool, 30.0)
        a = load.draw(2.0, as_generator(7))
        b = load.draw(2.0, as_generator(7))
        assert [(t, task.task_id) for t, task in a] == [
            (t, task.task_id) for t, task in b
        ]

    @pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal"])
    def test_make_load_draws_sorted_within_horizon(self, pattern):
        pool = TaskPool(8, rng=0)
        events = make_load(pattern, pool, 40.0).draw(4.0, as_generator(1))
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert all(0.0 < t < 4.0 for t in times)
        assert len(events) > 0

    def test_draw_schedule_frozen(self):
        """One SHA-256 over every drawn ``(hour, task_id)`` and each
        generator's state after its draw, for the three shapes x pools of
        7, 64 and 256 x seeds 0-5: any change to what is drawn, or in what
        order, from the shared generator fails it."""
        h = hashlib.sha256()
        for pattern in ("poisson", "bursty", "diurnal"):
            for size in (7, 64, 256):
                load = make_load(pattern, TaskPool(size, rng=0), 40.0)
                for seed in range(6):
                    rng = as_generator(seed)
                    for hour, task in load.draw(30.0, rng):
                        h.update(f"{hour!r},{task.task_id};".encode())
                    h.update(repr(rng.bit_generator.state).encode())
        assert h.hexdigest() == (
            "74f441b1c9bb08c7b63dada89ee3ad28c58958f4c644d0a3e44392c5fd927672")

    def test_make_load_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown load pattern"):
            make_load("square-wave", TaskPool(4, rng=0), 10.0)

    def test_validation(self):
        pool = TaskPool(4, rng=0)
        with pytest.raises(ValueError):
            PoissonLoad(pool, 0.0)
        with pytest.raises(ValueError, match="burst_rate must exceed"):
            BurstyLoad(pool, base_rate=10.0, burst_rate=5.0)
        with pytest.raises(ValueError):
            DiurnalLoad(pool, peak_rate=5.0, trough_rate=5.0)
        with pytest.raises(ValueError, match="horizon"):
            PoissonLoad(pool, 10.0).draw(0.0, as_generator(0))

    def test_diurnal_rate_profile_bounds(self):
        load = DiurnalLoad(TaskPool(4, rng=0), peak_rate=10.0, trough_rate=2.0)
        rates = [load.rate_at(t) for t in np.linspace(0, 48, 97)]
        assert min(rates) >= 2.0 - 1e-12
        assert max(rates) <= 10.0 + 1e-12


# --------------------------------------------------------------------- #
# Warm-start cache + prediction memo.
# --------------------------------------------------------------------- #


class TestWarmStartCache:
    def test_bucketing(self):
        assert batch_size_bucket(1) == 0
        assert batch_size_bucket(2) == 1
        assert batch_size_bucket(3) == batch_size_bucket(4) == 2
        assert batch_size_bucket(5) == batch_size_bucket(8) == 3
        with pytest.raises(ValueError):
            batch_size_bucket(0)

    def test_key_is_order_insensitive(self):
        assert make_cache_key([3, 1, 2], 8) == make_cache_key([1, 2, 3], 8)

    def test_empty_cache_misses(self):
        pool = TaskPool(6, rng=0)
        cache = WarmStartCache()
        key = make_cache_key([0, 1, 2], 4)
        assert cache.seed(key, pool.tasks[:4], 3) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_store_then_seed_roundtrip(self):
        pool = TaskPool(6, rng=0)
        tasks = pool.tasks[:4]
        key = make_cache_key([0, 1, 2], len(tasks))
        X = np.random.default_rng(0).dirichlet(np.ones(3), size=len(tasks)).T
        sol = _fake_solution(X)
        cache = WarmStartCache()
        cache.store(key, tasks, sol)
        X0 = cache.seed(key, tasks, 3)
        assert X0 is not None
        np.testing.assert_allclose(X0.sum(axis=0), 1.0)
        np.testing.assert_allclose(X0, X, atol=1e-5)
        assert cache.hit_rate == 1.0

    def test_mostly_unseen_batch_declares_miss(self):
        pool = TaskPool(10, rng=0)
        key = make_cache_key([0, 1, 2], 4)
        cache = WarmStartCache()
        X = np.full((3, 4), 1 / 3)
        cache.store(key, pool.tasks[:4], _fake_solution(X))
        # 1 of 4 tasks known -> below the half-known threshold.
        assert cache.seed(key, [pool.tasks[3]] + pool.tasks[6:9], 3) is None
        # 2 of 4 known -> seeded.
        assert cache.seed(key, pool.tasks[2:6], 3) is not None

    def test_bucket_fallback_for_off_bucket_batch(self):
        pool = TaskPool(10, rng=0)
        cache = WarmStartCache()
        tasks = pool.tasks[:8]  # bucket 3
        X = np.full((3, 8), 1 / 3)
        cache.store(make_cache_key([0, 1, 2], 8), tasks, _fake_solution(X))
        # A 3-task flush window (bucket 2) still finds the columns.
        assert cache.seed(make_cache_key([0, 1, 2], 3), tasks[:3], 3) is not None
        # A different cluster signature does not.
        assert cache.seed(make_cache_key([0, 1, 7], 3), tasks[:3], 3) is None

    def test_lru_eviction(self):
        pool = TaskPool(6, rng=0)
        cache = WarmStartCache(max_entries=2)
        X = np.full((3, 2), 1 / 3)
        for sig in ([0, 1], [0, 2], [0, 3]):
            cache.store(make_cache_key(sig, 2), pool.tasks[:2], _fake_solution(X))
        assert len(cache) == 2
        assert cache.seed(make_cache_key([0, 1], 2), pool.tasks[:2], 3) is None

    def test_step_memory_scales_lr(self):
        pool = TaskPool(4, rng=0)
        key = make_cache_key([0, 1, 2], 2)
        cache = WarmStartCache()
        X = np.full((3, 2), 1 / 3)
        cache.store(key, pool.tasks[:2], _fake_solution(X, halvings=3))
        base = SolverConfig(lr=0.8)
        assert cache.solver_config(key, base).lr == pytest.approx(0.8 / 4.0)
        # halvings <= 1 and unknown keys leave the config untouched.
        cache.store(key, pool.tasks[:2], _fake_solution(X, halvings=1))
        assert cache.solver_config(key, base) is base
        assert cache.solver_config(make_cache_key([9], 2), base) is base


def _fake_solution(X, halvings=0):
    from repro.matching.relaxed import RelaxedSolution

    return RelaxedSolution(
        X=X, objective=0.0, iterations=1, converged=True,
        history=np.zeros(2), halvings=halvings,
    )


class TestPredictionMemo:
    def test_matches_direct_predict(self, stack):
        pool, clusters, spec, method = stack
        tasks = pool.tasks[:6]
        memo = PredictionMemo()
        T1, A1 = memo.predict(method, tasks)
        T2, A2 = method.predict(list(tasks))
        np.testing.assert_allclose(T1, T2)
        np.testing.assert_allclose(A1, A2)

    def test_hits_and_bump(self, stack):
        pool, clusters, spec, method = stack
        tasks = pool.tasks[:5]
        memo = PredictionMemo()
        memo.predict(method, tasks)
        assert memo.misses == 5 and memo.hits == 0
        memo.predict(method, tasks)
        assert memo.hits == 5
        memo.bump()
        assert len(memo) == 0 and memo.version == 1
        memo.predict(method, tasks)
        assert memo.misses == 10

    def test_capacity_bound(self, stack, monkeypatch):
        pool, clusters, spec, method = stack
        monkeypatch.setattr(cache_module, "CAPACITY", 3)
        memo = PredictionMemo()
        memo.predict(method, pool.tasks[:8])
        assert len(memo) == 3


# --------------------------------------------------------------------- #
# Checkpoint registry.
# --------------------------------------------------------------------- #


class TestModelRegistry:
    def test_save_load_roundtrip(self, stack, tmp_path):
        pool, clusters, spec, method = stack
        reg = ModelRegistry(tmp_path / "reg")
        info = reg.save(method, config=TrainConfig(epochs=8),
                        metrics={"loss": 0.5}, tag="fit")
        assert info.version == "v0001"
        assert info.meta["n_clusters"] == len(clusters)
        assert info.meta["metrics"] == {"loss": 0.5}
        assert "git_sha" in info.meta

        # A freshly initialized (untrained) stack predicts differently;
        # loading the checkpoint restores the trained outputs exactly.
        tasks = pool.tasks[:5]
        want_T, want_A = method.predict(tasks)
        other = TSM(train_config=TrainConfig(epochs=1))
        other.fit(FitContext.build(clusters, pool.tasks[:8], spec, rng=99))
        assert not np.allclose(other.predict(tasks)[0], want_T)
        reg.load_into(other)
        got_T, got_A = other.predict(tasks)
        np.testing.assert_allclose(got_T, want_T)
        np.testing.assert_allclose(got_A, want_A)

    def test_versioning_and_latest(self, stack, tmp_path):
        _, _, _, method = stack
        reg = ModelRegistry(tmp_path / "reg")
        assert reg.latest() is None and len(reg) == 0
        reg.save(method)
        reg.save(method, tag="second")
        assert reg.versions() == ["v0001", "v0002"]
        assert reg.latest() == "v0002"
        assert "v0001" in reg
        assert reg.info("v0002").meta["tag"] == "second"
        with pytest.raises(KeyError):
            reg.info("v9999")

    def test_cluster_count_mismatch_raises(self, stack, tmp_path):
        _, _, _, method = stack
        reg = ModelRegistry(tmp_path / "reg")
        in_features = method.pairs[0].time.standardizer.mean.size
        reg.save([PredictorPair(in_features, rng=0)])
        with pytest.raises(ValueError, match="cluster pairs"):
            reg.load_into(method, "v0001")

    def test_checkpoints_with_a_warm_start_bundle_still_load(self, stack, tmp_path):
        """Checkpoints written while the registry bundled a learned
        warm-start head (``warm_start.npz`` plus ``warm_start_digest`` in
        ``meta.json``) load, promote and roll back; the extra file and
        key are ignored and the format number is unchanged."""
        pool, clusters, spec, method = stack
        reg = ModelRegistry(tmp_path / "reg")
        reg.save(method, tag="fit")
        reg.save(method, tag="refit", parent="v0001")
        rng = np.random.default_rng(0)
        for version, bundled in (("v0001", True), ("v0002", False)):
            path = reg.info(version).path
            digest = None
            if bundled:
                np.savez(path / "warm_start.npz", W=rng.normal(size=(4, 3)),
                         b=np.zeros(3), mean=np.zeros(4), std=np.ones(4),
                         cluster_ids=np.arange(3, dtype=np.int64),
                         meta=np.asarray([1e-3, 1.25, 1.0]))
                digest = hashlib.sha256(b"head").hexdigest()
            meta = json.loads((path / "meta.json").read_text())
            meta["warm_start_digest"] = digest
            (path / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2))
        assert CHECKPOINT_FORMAT == 1
        assert reg.info("v0001").meta["format"] == CHECKPOINT_FORMAT
        assert reg.info("v0001").digest == weights_digest(method.pairs)

        tasks = pool.tasks[:5]
        want_T, want_A = method.predict(tasks)
        other = TSM(train_config=TrainConfig(epochs=1))
        other.fit(FitContext.build(clusters, pool.tasks[:8], spec, rng=99))
        assert reg.set_live("v0002").version == "v0002"
        assert reg.load_into(other).version == "v0002"
        got_T, got_A = other.predict(tasks)
        np.testing.assert_allclose(got_T, want_T)
        np.testing.assert_allclose(got_A, want_A)
        assert reg.rollback().version == "v0001"
        assert reg.load_into(other).digest == weights_digest(other.pairs)

    def test_empty_registry_load_raises(self, stack, tmp_path):
        _, _, _, method = stack
        with pytest.raises(KeyError, match="no checkpoints"):
            ModelRegistry(tmp_path / "reg").load_into(method)


# --------------------------------------------------------------------- #
# decide_full / solver warm-start semantics.
# --------------------------------------------------------------------- #


class TestDecideFull:
    def test_returns_decision_matching_decide(self, stack):
        pool, clusters, spec, method = stack
        tasks = pool.tasks[:6]
        T = np.stack([c.true_times(tasks) for c in clusters])
        A = np.stack([c.true_reliabilities(tasks) for c in clusters])
        problem = spec.build_problem(T, A)
        decision = method.decide_full(problem, tasks)
        assert isinstance(decision, Decision)
        np.testing.assert_allclose(decision.X, method.decide(problem, tasks))
        assert decision.relaxed.iterations > 0
        assert hasattr(decision.relaxed, "halvings")

    def test_warm_start_cuts_iterations_and_preserves_objective(self, stack):
        pool, clusters, spec, method = stack
        tasks = pool.tasks[:8]
        T = np.stack([c.true_times(tasks) for c in clusters])
        A = np.stack([c.true_reliabilities(tasks) for c in clusters])
        problem = spec.build_problem(T, A).with_predictions(
            *method.predict(list(tasks))
        )
        cold = solve_relaxed(problem, SOLVER)
        cache = WarmStartCache()
        key = make_cache_key([c.cluster_id for c in clusters], len(tasks))
        cache.store(key, tasks, cold)
        x0 = cache.seed(key, tasks, len(clusters))
        warm = solve_relaxed(problem, SOLVER, x0=x0)
        assert warm.iterations < cold.iterations
        assert warm.objective == pytest.approx(cold.objective, rel=1e-3)


# --------------------------------------------------------------------- #
# Dispatcher.
# --------------------------------------------------------------------- #


def _run(stack, events, *, cfg=None, rng=4, outages=None, **dispatcher_kw):
    pool, clusters, spec, method = stack
    with recording(mode="summary", stream=io.StringIO()):
        d = Dispatcher(clusters, method, spec, cfg, **dispatcher_kw)
        return d.run(events, rng=rng, outages=outages)


def _assert_causal(stats):
    """Every record respects simulated-time causality."""
    for r in stats.records:
        assert r.arrival <= r.dispatched + 1e-9
        assert r.dispatched <= r.start + 1e-9
        assert r.start <= r.end + 1e-9


class _FirstUp(BaseMethod):
    """Stub predictor: predicted times grow tenfold per cluster row, so the
    first cluster that is up is every window's optimum."""

    name = "first-up"

    def __init__(self, spec, m):
        super().__init__()
        self._spec, self._fitted, self.m = spec, True, m

    def _fit(self, ctx):
        pass

    def predict(self, tasks):
        T_hat = np.repeat(10.0 ** np.arange(self.m)[:, None], len(tasks), axis=1)
        return T_hat, np.ones_like(T_hat)


class TestDispatcher:
    def test_soak_replay_is_byte_identical(self, stack):
        pool = stack[0]
        events = _events(pool)
        cfg = DispatcherConfig(max_batch=8, max_wait_hours=0.2)
        a = _run(stack, events, cfg=cfg)
        b = _run(stack, events, cfg=cfg)
        assert a.conserved and b.conserved
        _assert_causal(a)
        assert a.trace_bytes() == b.trace_bytes()
        assert len(a.trace_bytes()) > 0

    def test_size_trigger_never_dispatches_before_arrivals(self, stack):
        pool = stack[0]
        # A burst at t=1.0 fills the queue to max_batch while busy_until
        # is still 0: the window must dispatch at the burst time, never
        # earlier (dispatched < arrival would poison the wait stats).
        events = [(1.0, task) for task in pool.tasks[:10]]
        stats = _run(stack, events, cfg=DispatcherConfig(max_batch=4))
        assert stats.conserved
        _assert_causal(stats)
        assert all(r.dispatched >= 1.0 - 1e-9 for r in stats.records)

    def test_no_dispatch_during_full_outage(self, stack):
        pool, clusters, spec, method = stack
        # Arrivals at t=0.1 ripen mid-outage (0.05-2.0 covers the whole
        # fleet); dispatch must wait for the rejoin, not happen at the
        # ripen time with no cluster up.
        events = [(0.1, t) for t in pool.tasks[:4]] + [(2.5, pool.tasks[4])]
        outages = [Outage(c.cluster_id, start=0.05, end=2.0) for c in clusters]
        stats = _run(stack, events, cfg=DispatcherConfig(max_batch=8),
                     outages=outages)
        assert stats.conserved and stats.unserved == 0
        _assert_causal(stats)
        assert all(r.dispatched >= 2.0 - 1e-9 for r in stats.records)

    def test_size_and_time_triggers(self, stack):
        pool = stack[0]
        events = _events(pool)
        stats = _run(stack, events, cfg=DispatcherConfig(max_batch=8))
        assert stats.windows >= 2
        assert max(stats.batch_sizes) <= 8
        assert stats.arrived == len(events)
        assert stats.shed == 0 and stats.conserved

    @pytest.mark.parametrize("policy", ["reject", "drop_oldest"])
    def test_overload_sheds_and_bounds_queue(self, stack, policy):
        pool = stack[0]
        events = _events(pool, rate=80.0, horizon=2.0)
        cfg = DispatcherConfig(
            max_batch=4, max_wait_hours=0.1, queue_capacity=6,
            shed_policy=policy, dispatch_overhead_hours=0.3,
        )
        stats = _run(stack, events, cfg=cfg)
        assert stats.shed > 0
        assert stats.max_queue_depth <= cfg.queue_capacity
        assert stats.conserved

    def test_shedding_is_deterministic(self, stack):
        pool = stack[0]
        events = _events(pool, rate=80.0, horizon=2.0)
        cfg = DispatcherConfig(max_batch=4, max_wait_hours=0.1,
                               queue_capacity=6, dispatch_overhead_hours=0.3)
        a = _run(stack, events, cfg=cfg)
        b = _run(stack, events, cfg=cfg)
        assert a.shed == b.shed > 0
        assert a.trace_bytes() == b.trace_bytes()

    def test_outage_requeues_without_losing_tasks(self, stack):
        pool, clusters, spec, method = stack
        events = _events(pool, rate=40.0, horizon=2.0)
        cfg = DispatcherConfig(max_batch=8)
        base = _run(stack, events, cfg=cfg)
        # Pick a cluster with work dispatched before t=0.6 but still
        # executing then — exactly the jobs a dropout orphans.
        victims = [r.cluster_id for r in base.records
                   if r.dispatched < 0.6 < r.end]
        assert victims, "fixture run must have work in flight at t=0.6"
        outage = Outage(victims[0], start=0.6, end=1.4)
        stats = _run(stack, events, cfg=cfg, outages=[outage])
        assert stats.requeued > 0
        assert stats.conserved
        assert stats.unserved == 0
        assert stats.shed == 0
        # Every arrival ran to an outcome: zero tasks lost.
        assert stats.completed + stats.failed == stats.arrived
        _assert_causal(stats)
        # Nothing runs on the victim during the outage window.
        for r in stats.records:
            if r.cluster_id == outage.cluster_id:
                assert r.end <= outage.start + 1e-9 or r.start >= outage.end - 1e-9

    def test_rejoined_cluster_starts_clean(self, stack):
        pool, clusters, spec, _ = stack
        first = _FirstUp(spec, len(clusters))
        a, b = pool.tasks[0], pool.tasks[1]
        d0 = clusters[0].true_time(a)
        t_a = 0.1
        # Outage orphans A mid-execution; B arrives after the rejoin but
        # before A's now-phantom end time t_a + d0 on the dead cluster.
        t_down, t_up = t_a + 0.5 * d0, t_a + 0.75 * d0
        t_b = t_a + 0.8 * d0
        cfg = DispatcherConfig(max_batch=1)
        d = Dispatcher(clusters, first, spec, cfg)
        stats = d.run(
            [(t_a, a), (t_b, b)], rng=0,
            outages=[Outage(clusters[0].cluster_id, start=t_down, end=t_up)],
        )
        assert stats.conserved and stats.requeued == 1
        _assert_causal(stats)
        rec_a = next(r for r in stats.records if r.task_id == a.task_id)
        assert rec_a.requeues == 1
        assert rec_a.cluster_id != clusters[0].cluster_id
        # B lands on the rejoined cluster and starts at its own dispatch:
        # the orphan's end time must not linger in the cluster's free_at.
        rec_b = next(r for r in stats.records if r.task_id == b.task_id)
        assert rec_b.cluster_id == clusters[0].cluster_id
        assert rec_b.dispatched == pytest.approx(t_b)
        assert rec_b.start == pytest.approx(rec_b.dispatched)

    def test_overlapping_outages_hold_the_cluster_down_until_the_last_ends(self, stack):
        pool, clusters, _, _ = stack
        events = _events(pool, rate=30.0, horizon=9.0)
        c0 = clusters[0].cluster_id
        both = _run(stack, events, outages=[Outage(c0, 1.0, 5.0), Outage(c0, 3.0, 7.0)])
        assert not [r for r in both.records
                    if r.cluster_id == c0 and 1.0 <= r.dispatched < 7.0]
        # The same run as one outage over their union.
        union = _run(stack, events, outages=[Outage(c0, 1.0, 7.0)])
        assert both.trace_bytes() == union.trace_bytes()

    def test_requeued_tasks_survive_drop_oldest_overload(self, stack):
        pool = stack[0]
        events = _events(pool, rate=80.0, horizon=2.0)
        cfg = DispatcherConfig(
            max_batch=4, max_wait_hours=0.1, queue_capacity=4,
            shed_policy="drop_oldest", dispatch_overhead_hours=0.25,
        )
        base = _run(stack, events, cfg=cfg)
        victims = [r.cluster_id for r in base.records
                   if r.dispatched < 0.5 < r.end]
        assert victims
        stats = _run(stack, events, cfg=cfg,
                     outages=[Outage(victims[0], start=0.5, end=1.5)])
        assert stats.conserved
        # Requeued orphans are shed-exempt: arrived == served + shed holds
        # and nothing vanished even with both pressures active.
        assert stats.requeued > 0 and stats.shed > 0

    def test_higher_load_increases_waiting(self, stack):
        pool = stack[0]
        cfg = DispatcherConfig(max_batch=8)
        waits = [
            _run(stack, _events(pool, rate=rate, horizon=8.0, seed=5),
                 cfg=cfg).mean_wait_hours
            for rate in (2.0, 20.0)
        ]
        assert waits[1] > waits[0]

    def test_arrived_counter_is_live(self, stack):
        """``serve/arrived`` is counted at admission, so a mid-run scrape
        (``serve top``, ``/metrics``) reads it, not zero until the end."""
        pool, clusters, spec, method = stack
        seen = []

        class Scrape(ServeCallback):
            def on_window(self, snapshot):
                counters = rec.aggregate()["counters"]
                seen.append((counters["serve/arrived"]["value"],
                             snapshot.arrived_total))

        with recording(mode="summary", stream=io.StringIO()) as rec:
            stats = Dispatcher(clusters, method, spec, callbacks=[Scrape()]).run(
                _events(pool), rng=4)
            final = rec.aggregate()["counters"]["serve/arrived"]["value"]
        assert len(seen) > 1 and seen[0][1] < stats.arrived
        assert all(live == total for live, total in seen)
        assert final == stats.arrived

    def test_warm_soak_reproduces_committed_anchor(self):
        """The 12 h Poisson 60/h soak on the default stack hashes to the
        digest committed in ``BENCH_serve.json`` — the anchor the platform
        benchmark's ``serve_steady`` verify reads."""
        config = ServeConfig()
        pool, clusters, method, spec, dcfg = build_stack(config)
        events = make_load("poisson", pool, 60.0).draw(
            12.0, as_generator(config.seed + 3))
        stats = Dispatcher(clusters, method, spec, dcfg).run(
            events, rng=config.seed + 4)
        bench = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
        anchor = json.loads(bench.read_text())["warm"]["trace_sha256"]
        assert hashlib.sha256(stats.trace_bytes()).hexdigest() == anchor

    def test_warm_start_helps_and_matches_cold_service(self, stack):
        pool = stack[0]
        events = _events(pool, rate=40.0, horizon=4.0)
        runs = {}
        for warm in (False, True):
            cfg = DispatcherConfig(max_batch=8, warm_start=warm)
            runs[warm] = _run(stack, events, cfg=cfg)
        cold, warm = runs[False], runs[True]
        assert cold.conserved and warm.conserved
        assert warm.cache["hits"] > 0
        # Same arrivals served either way; the cache only changes solver
        # effort, never admission/shedding behaviour.
        assert (cold.arrived, cold.shed, cold.windows) == (
            warm.arrived, warm.shed, warm.windows
        )
        assert sum(warm.solver_iterations) < sum(cold.solver_iterations)

    def test_hot_swap_mid_run(self, stack, tmp_path):
        pool, clusters, spec, method = stack
        reg = ModelRegistry(tmp_path / "reg")
        reg.save(method, tag="fit")
        events = _events(pool, rate=40.0, horizon=2.0)
        memo = PredictionMemo()
        cleared = []

        class SpyCache(WarmStartCache):
            def clear(self):
                cleared.append(len(self))
                super().clear()

        cache = SpyCache()
        cfg = DispatcherConfig(max_batch=8)
        stats = _run(stack, events, cfg=cfg, memo=memo, cache=cache,
                     registry=reg, swap_schedule={1: "v0001"})
        assert stats.swaps == 1
        assert memo.version == 1
        # The warm-start cache is dropped with the memo at the swap so
        # post-swap windows never seed from the old model's solutions.
        assert len(cleared) == 1 and cleared[0] > 0
        assert stats.conserved

    def test_swap_schedule_requires_registry(self, stack):
        pool, clusters, spec, method = stack
        with pytest.raises(ValueError, match="registry"):
            Dispatcher(clusters, method, spec, swap_schedule={0: "v0001"})


# --------------------------------------------------------------------- #
# Block-decomposed serving and seed-source accounting.
# --------------------------------------------------------------------- #


class TestBlocksServing:
    def test_blocks_mode_preserves_default_trace(self, stack):
        """On the generalist setting-A fleet the viability graph is one
        component, so solve_mode="blocks" must reproduce the scalar
        dispatch trace byte for byte (the soak-SHA compatibility gate)."""
        pool = stack[0]
        events = _events(pool, rate=40.0, horizon=3.0)
        runs = {}
        for mode in ("scalar", "blocks"):
            cfg = DispatcherConfig(max_batch=8, solve_mode=mode)
            runs[mode] = _run(stack, events, cfg=cfg)
        assert runs["scalar"].conserved and runs["blocks"].conserved
        assert runs["blocks"].trace_bytes() == runs["scalar"].trace_bytes()

    def test_seed_sources_are_accounted(self, stack):
        pool = stack[0]
        events = _events(pool, rate=40.0, horizon=3.0)
        cfg = DispatcherConfig(max_batch=8, warm_start=True)
        stats = _run(stack, events, cfg=cfg)
        # Every window's opening point is attributed to exactly one source.
        assert sum(stats.seed_sources.values()) == stats.windows
        assert stats.seed_sources.get("cache", 0) > 0
        assert stats.seed_sources.get("cold", 0) > 0


# --------------------------------------------------------------------- #
# Stage profiler integration (latency budget).
# --------------------------------------------------------------------- #


class TestProfiledServing:
    def test_profiled_trace_is_byte_identical(self, stack):
        """The profiler is a pure observer: wall-clock only, no RNG, so
        the dispatch trace matches the unprofiled run byte for byte (the
        profiler-off case is the soak-SHA acceptance gate; on is
        stronger and holds too)."""
        from repro.telemetry.profiler import StageProfiler

        pool = stack[0]
        events = _events(pool)
        base = _run(stack, list(events))
        prof = StageProfiler()
        profiled = _run(stack, list(events), profiler=prof)
        assert profiled.trace_bytes() == base.trace_bytes()
        assert base.profile == {}  # profiler off: stats carry no budget

    def test_budget_decomposes_window_latency(self, stack):
        from repro.telemetry.profiler import StageProfiler

        pool = stack[0]
        events = _events(pool)
        prof = StageProfiler()
        stats = _run(stack, list(events), profiler=prof)
        budget = stats.profile
        assert budget["windows"] == stats.windows
        # The dispatcher's named depth-1 stages, all called once/window.
        for name in ("form", "predict", "seed", "solve", "commit", "schedule"):
            assert budget["stages"][name]["calls"] == stats.windows
        # The method layer nests its phases under the solve stage.
        assert "solve;relaxed" in budget["stages"]
        assert "solve;rounding" in budget["stages"]
        # Children never exceed their parent; self-time is the difference.
        solve = budget["stages"]["solve"]
        child_total = sum(
            s["total_s"] for path, s in budget["stages"].items()
            if path.startswith("solve;"))
        assert child_total <= solve["total_s"] + 1e-9
        assert solve["self_s"] == pytest.approx(solve["total_s"] - child_total)
        # Attribution: the named stages explain the e2e window latency.
        assert budget["coverage_p95"] >= 0.95
        assert budget["unattributed"]["frac"] < 0.05
        # Simulated-time stages are separate (they are not wall-clock):
        # one batch-formation wait per window, one admission wait per
        # dispatched task.
        assert budget["sim_stages"]["batch_wait"]["calls"] == stats.windows
        assert budget["sim_stages"]["admission_wait"]["calls"] >= stats.windows

    def test_profiled_run_records_stage_gauges(self, stack):
        from repro.telemetry import Recorder
        from repro.telemetry.profiler import StageProfiler

        pool, clusters, spec, method = stack
        events = _events(pool)
        rec = Recorder(mode="summary", run="prof", stream=io.StringIO())
        with rec.activate():
            d = Dispatcher(clusters, method, spec, None, profiler=StageProfiler())
            d.run(list(events), rng=4)
            gauges = rec.aggregate()["gauges"]
        keys = {k.split("{", 1)[0] for k in gauges}
        assert "serve/stage_total_s" in keys
        assert "serve/profile_coverage_p95" in keys
        stage_labels = {
            g["labels"]["stage"] for k, g in gauges.items()
            if k.split("{", 1)[0] == "serve/stage_total_s"}
        assert "solve" in stage_labels and "unattributed" in stage_labels

    def test_collapsed_stacks_and_flamegraph_file(self, stack, tmp_path):
        from repro.telemetry.profiler import StageProfiler

        pool = stack[0]
        prof = StageProfiler()
        _run(stack, _events(pool), profiler=prof)
        lines = prof.collapsed_stacks()
        assert lines
        for line in lines:
            frames, count = line.rsplit(" ", 1)
            assert frames.startswith("window")
            assert int(count) > 0
        # Nested frames keep their full path under the root.
        assert any(ln.startswith("window;solve;relaxed ") for ln in lines)
        out = prof.write_flamegraph(tmp_path / "flame" / "serve.txt")
        assert out.read_text().splitlines() == lines

    def test_serve_config_profile_round_trip(self):
        from repro.serve import ServeConfig, build_platform

        config = ServeConfig(pool_size=16, train_epochs=2, profile=True)
        assert ServeConfig.from_params(config.to_params()).profile is True
        platform = build_platform(config)
        assert platform.profiler is not None
        assert platform.dispatcher.profiler is platform.profiler
        off = build_platform(config.with_overrides(profile=False))
        assert off.profiler is None
