"""Tests for the discrete-event kernel and the cluster execution engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matching import MatchingProblem, feasible_gamma, makespan
from repro.matching.rounding import assignment_from_labels
from repro.matching.speedup import ExponentialDecaySpeedup
from repro.sim import ExecutionConfig, Simulator, TaskOutcome, simulate_matching
from repro.sim.trace import SimulationResult, TaskRecord


class TestSimulatorKernel:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda s: order.append("b"))
        sim.schedule(1.0, lambda s: order.append("a"))
        sim.schedule(3.0, lambda s: order.append("c"))
        end = sim.run()
        assert order == ["a", "b", "c"]
        assert end == 3.0

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda s: order.append("first"))
        sim.schedule(1.0, lambda s: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_callbacks_can_schedule(self):
        sim = Simulator()
        hits = []

        def chain(s):
            hits.append(s.now)
            if len(hits) < 3:
                s.schedule(1.0, chain)

        sim.schedule(0.0, chain)
        sim.run()
        assert hits == [0.0, 1.0, 2.0]

    def test_cancel(self):
        sim = Simulator()
        hits = []
        ev = sim.schedule(1.0, lambda s: hits.append(1))
        sim.cancel(ev)
        sim.run()
        assert hits == []
        assert sim.pending == 0

    def test_until_pauses_and_resumes(self):
        sim = Simulator()
        hits = []
        sim.schedule(5.0, lambda s: hits.append(5))
        assert sim.run(until=2.0) == 2.0
        assert hits == []
        sim.run()
        assert hits == [5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda s: None)

    def test_runaway_guard(self):
        sim = Simulator()

        def forever(s):
            s.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


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

    def test_shape_validation(self, scenario):
        clusters, tasks, X, _ = scenario
        with pytest.raises(ValueError):
            simulate_matching(clusters, tasks, X[:, :3])
        with pytest.raises(ValueError):
            ExecutionConfig(mode="warp")
        with pytest.raises(ValueError):
            ExecutionConfig(jitter_std=-1)
