"""Tests for the cluster execution engine and its traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matching import MatchingProblem, feasible_gamma, makespan
from repro.matching.rounding import assignment_from_labels
from repro.matching.speedup import ExponentialDecaySpeedup
from repro.sim import ExecutionConfig, TaskOutcome, simulate_matching
from repro.sim.trace import SimulationResult, TaskRecord


class _FlatCluster:
    """A stand-in cluster with round durations, so finishes tie across
    clusters and the order of the draws made at a tie shows."""

    def __init__(self, cluster_id: int, hours: float, a: float = 1.0, spread: int = 2):
        self.cluster_id, self.hours, self.a, self.spread = cluster_id, hours, a, spread

    def true_time(self, task) -> float:
        return self.hours * (1 + task.task_id % self.spread)

    def true_reliability(self, task) -> float:
        return self.a


class TestTrace:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            TaskRecord(0, 0, start=2.0, end=1.0, outcome=TaskOutcome.SUCCESS)

    def test_empty_result_raises(self):
        r = SimulationResult()
        with pytest.raises(ValueError):
            r.success_rate
        with pytest.raises(ValueError):
            r.utilization


class TestEngine:
    @pytest.fixture()
    def scenario(self, task_pool, setting_a):
        tasks = task_pool.tasks[:8]
        rng = np.random.default_rng(4)
        X = assignment_from_labels(rng.integers(0, 3, 8), 3)
        T = np.stack([c.true_times(tasks) for c in setting_a])
        A = np.stack([c.true_reliabilities(tasks) for c in setting_a])
        problem = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.2))
        return setting_a, tasks, X, problem

    def test_deterministic_sequential_matches_analytic(self, scenario):
        clusters, tasks, X, problem = scenario
        res = simulate_matching(clusters, tasks, X)
        assert res.makespan == pytest.approx(makespan(X, problem))
        assert res.success_rate == 1.0
        assert len(res.records) == len(tasks)

    def test_deterministic_parallel_matches_analytic(self, scenario):
        clusters, tasks, X, problem = scenario
        zeta = ExponentialDecaySpeedup()
        from dataclasses import replace

        pz = replace(problem, speedup=(zeta,))
        res = simulate_matching(
            clusters, tasks, X, ExecutionConfig(mode="parallel", speedup=zeta)
        )
        assert res.makespan == pytest.approx(makespan(X, pz))

    def test_utilization_matches_analytic(self, scenario):
        from repro.metrics import cluster_utilization

        clusters, tasks, X, problem = scenario
        res = simulate_matching(clusters, tasks, X)
        assert res.utilization == pytest.approx(cluster_utilization(X, problem))

    def test_failures_reduce_success_rate(self, scenario):
        clusters, tasks, X, _ = scenario
        rates = []
        for seed in range(30):
            res = simulate_matching(
                clusters, tasks, X, ExecutionConfig(failures=True), rng=seed
            )
            rates.append(res.success_rate)
        mean_rate = float(np.mean(rates))
        # True mean reliability in setting A is ~0.96; allow a wide band.
        assert 0.80 <= mean_rate <= 1.0
        assert min(rates) < 1.0 or mean_rate > 0.99  # some failure observed

    def test_retries_improve_success(self, scenario):
        clusters, tasks, X, _ = scenario
        no_retry, retry = [], []
        for seed in range(40):
            r0 = simulate_matching(clusters, tasks, X,
                                   ExecutionConfig(failures=True, max_retries=0), rng=seed)
            r2 = simulate_matching(clusters, tasks, X,
                                   ExecutionConfig(failures=True, max_retries=2), rng=seed)
            no_retry.append(r0.success_rate)
            retry.append(r2.success_rate)
        assert np.mean(retry) >= np.mean(no_retry)

    def test_jitter_preserves_mean(self, scenario):
        clusters, tasks, X, problem = scenario
        spans = [
            simulate_matching(clusters, tasks, X,
                              ExecutionConfig(jitter_std=0.1), rng=seed).makespan
            for seed in range(40)
        ]
        assert np.mean(spans) == pytest.approx(makespan(X, problem), rel=0.1)

    def test_records_come_in_finish_order(self, task_pool):
        clusters = [_FlatCluster(0, 3.0, spread=1), _FlatCluster(1, 1.0, spread=1)]
        X = assignment_from_labels(np.array([0, 1, 1, 1, 1]), 2)
        res = simulate_matching(clusters, task_pool.tasks[:5], X)
        assert [(r.task_id, r.end) for r in res.records] == [
            (1, 1.0), (2, 2.0), (0, 3.0), (3, 3.0), (4, 4.0)]
        assert res.makespan == 4.0

    def test_finish_ties_go_in_start_order(self, task_pool):
        # Every task takes 1 h, so the clusters finish together at each
        # hour; the cluster that started first records (and draws) first.
        clusters = [_FlatCluster(c, 1.0, spread=1) for c in (7, 3, 5)]
        X = assignment_from_labels(np.arange(9) % 3, 3)
        res = simulate_matching(clusters, task_pool.tasks[:9], X)
        assert [(r.task_id, r.cluster_id) for r in res.records] == [
            (j, (7, 3, 5)[j % 3]) for j in range(9)]

    def test_cluster_chain_runs_back_to_back(self, task_pool, setting_a):
        tasks = task_pool.tasks[:12]
        X = assignment_from_labels(np.arange(12) % 3, 3)
        cfg = ExecutionConfig(jitter_std=0.1, failures=True, max_retries=3)
        res = simulate_matching(setting_a, tasks, X, cfg, rng=2)
        assert sorted(r.task_id for r in res.records) == [t.task_id for t in tasks]
        for c in setting_a:
            mine = sorted((r for r in res.records if r.cluster_id == c.cluster_id),
                          key=lambda r: r.start)
            assert mine[0].start == 0.0
            # Records never overlap; a gap is a failed attempt that was retried.
            assert all(a.end <= b.start for a, b in zip(mine, mine[1:]))
            assert mine[-1].end == pytest.approx(res.cluster_busy[c.cluster_id])

    def test_shape_validation(self, scenario):
        clusters, tasks, X, _ = scenario
        with pytest.raises(ValueError):
            simulate_matching(clusters, tasks, X[:, :3])
        with pytest.raises(ValueError):
            ExecutionConfig(mode="warp")
        with pytest.raises(ValueError):
            ExecutionConfig(jitter_std=-1)


#: SHA-256 of ``_grid_digest``'s runs, recorded on the event-kernel engine
#: the per-cluster loops replaced: records, busy time, makespan and the
#: ``sim/*`` telemetry must not move by one bit or one draw.
FROZEN_GRID_SHA256 = "4576eeb9ba40c9ae62fea99cbce1f3ae0710f98636cb89a66ee3054350d6c6a6"

_GRID_CONFIGS = (
    ExecutionConfig(),
    ExecutionConfig(jitter_std=0.08, failures=True, max_retries=2),
    ExecutionConfig(failures=True),
    ExecutionConfig(mode="parallel", speedup=ExponentialDecaySpeedup()),
    ExecutionConfig(mode="parallel", speedup=ExponentialDecaySpeedup(),
                    jitter_std=0.08, failures=True),
)


def _grid_digest(task_pool, settings) -> str:
    import hashlib
    import json

    from repro.telemetry.recorder import Recorder

    h = hashlib.sha256()
    rec = Recorder()
    with rec.activate():
        for clusters in settings:
            for seed in range(8):
                n = 8 + 2 * seed
                tasks = task_pool.tasks[:n]
                labels = np.random.default_rng(100 + seed).integers(0, len(clusters), n)
                X = assignment_from_labels(labels, len(clusters))
                for cfg in _GRID_CONFIGS:
                    res = simulate_matching(clusters, tasks, X, cfg, rng=seed)
                    h.update(repr([
                        [(r.task_id, r.cluster_id, r.start.hex(), r.end.hex(),
                          r.outcome.value, r.attempts) for r in res.records],
                        [(c, b.hex()) for c, b in sorted(res.cluster_busy.items())],
                        res.makespan.hex(),
                    ]).encode())
    agg = rec.aggregate()
    sim = {sec: {k: v for k, v in agg[sec].items() if k.startswith("sim/")}
           for sec in ("counters", "gauges", "histograms")}
    h.update(json.dumps(sim, sort_keys=True).encode())
    return h.hexdigest()


class TestFrozenGrid:
    def test_grid_digest_is_frozen(self, task_pool, setting_a, setting_b):
        flat = [_FlatCluster(i, 0.5, 0.7) for i in range(3)]
        digest = _grid_digest(task_pool, (setting_a, setting_b, flat))
        assert digest == FROZEN_GRID_SHA256
