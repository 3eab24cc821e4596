"""Integration tests for the experiment harnesses (small sizes).

These are the end-to-end paths behind Table 1, Fig. 4, Fig. 5 and Table 2;
run here at miniature scale so the suite stays fast while exercising every
stage: pool → measurement → fit → oracle → metrics → report.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.experiments import (
    ExperimentConfig,
    default_config,
    evaluate_round,
    oracle_matching,
    run_experiment,
    run_seed,
)
import repro.experiments.runner as runner_module
from repro.experiments.fig4 import fig4_methods
from repro.experiments.fig5 import run_fig5, series
from repro.experiments.table2 import PARALLEL_ZETA, run_table2
from repro.matching import makespan, reliability_value, solve_bruteforce
from repro.matching.zeroth_order import ZeroOrderConfig
from repro.methods import MFCPConfig, TAM, TSM
from repro.predictors.training import TrainConfig
from repro.workloads import TaskPool

TINY = ExperimentConfig(
    pool_size=30,
    eval_rounds=2,
    seeds=(0,),
    mfcp=MFCPConfig(epochs=4, pretrain=TrainConfig(epochs=40),
                    zero_order=ZeroOrderConfig(samples=4, delta=0.05, warm_start_iters=30)),
    supervised=TrainConfig(epochs=40),
    ucb_ensemble=2,
)


class TestConfig:
    def test_profiles(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "fast")
        fast = default_config()
        monkeypatch.setenv("REPRO_PROFILE", "full")
        full = default_config()
        assert full.eval_rounds > fast.eval_rounds
        assert len(full.seeds) > len(fast.seeds)
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(ValueError):
            default_config()

    def test_overrides(self):
        cfg = default_config("fast", pool_size=42)
        assert cfg.pool_size == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(pool_size=0)
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())


class TestOracle:
    def test_oracle_matches_bruteforce_small(self, rng):
        from tests.conftest import random_problem

        p = random_problem(rng, m=3, n=5)
        X = oracle_matching(p, TINY)
        bf = solve_bruteforce(p)
        assert makespan(X, p) == pytest.approx(bf.objective, abs=1e-9)

    def test_oracle_feasible(self, rng):
        from tests.conftest import random_problem

        p = random_problem(rng, gamma_quantile=0.7)
        X = oracle_matching(p, TINY)
        assert reliability_value(X, p) >= -1e-9

    def test_oracle_fallback_under_node_limit(self, rng, monkeypatch):
        from tests.conftest import random_problem

        p = random_problem(rng, m=3, n=8)
        monkeypatch.setattr(runner_module, "ORACLE_NODE_LIMIT", 3)
        X = oracle_matching(p, TINY)  # must not raise
        np.testing.assert_allclose(X.sum(axis=0), np.ones(p.N))


class TestRunner:
    @pytest.fixture(scope="class")
    def seed_result(self):
        return run_seed(
            0,
            lambda: make_setting("A"),
            lambda: [TAM(), TSM(train_config=TINY.supervised)],
            TINY,
        )

    def test_run_seed_structure(self, seed_result):
        assert set(seed_result.samples) == {"TAM", "TSM"}
        for samples in seed_result.samples.values():
            assert len(samples) == TINY.eval_rounds
            for s in samples:
                assert np.isfinite(s.regret)
                assert 0 <= s.reliability <= 1
                assert 0 < s.utilization <= 1

    def test_run_experiment_aggregates(self):
        reports = run_experiment(
            lambda: make_setting("A"),
            lambda: [TAM()],
            replace(TINY, seeds=(0, 1)),
        )
        assert reports["TAM"].regret[0] is not None
        assert len(reports["TAM"].samples) == 2 * TINY.eval_rounds

    def test_evaluate_round_direct(self):
        pool = TaskPool(12, rng=0)
        clusters = make_setting("A")
        from repro.methods import FitContext

        ctx = FitContext.build(clusters, pool.tasks[:8], TINY.spec, rng=1)
        methods = [TAM().fit(ctx)]
        out = evaluate_round(methods, clusters, pool.tasks[8:12], TINY)
        assert "TAM" in out


class TestHarnesses:
    def test_fig5_series_extraction(self):
        results = run_fig5(replace(TINY, eval_rounds=1), task_counts=(4, 6))
        ns, regrets = series(results, "regret")
        assert ns == [4, 6]
        assert set(regrets) == {"TAM", "TSM", "UCB", "MFCP-AD", "MFCP-FG"}

    def test_table2_uses_parallel_spec(self):
        reports = run_table2(replace(TINY, eval_rounds=1))
        assert "MFCP-FG" in reports and "MFCP-AD" not in reports
        # TAM determinism: constant predictions ⇒ identical rounds on the
        # same instance set, i.e. finite (typically tiny) std.
        assert np.isfinite(reports["TAM"].regret[1])

    def test_parallel_zeta_matches_paper_spec(self):
        assert PARALLEL_ZETA.floor == 0.6
        assert float(PARALLEL_ZETA.value(np.array(40.0))) == pytest.approx(0.6, abs=1e-3)

    def test_fig4_method_lineup(self):
        methods = fig4_methods(TINY)()
        assert [m.name for m in methods] == ["TAM", "TSM", "UCB", "MFCP-AD", "MFCP-FG"]
