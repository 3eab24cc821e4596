"""Tests for extension experiments (E7 cluster scaling, diagnostics, Fig. 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.experiments import ExperimentConfig
from repro.experiments.cluster_scaling import run_cluster_scaling
from repro.experiments.diagnostics import run_diagnostics
from repro.matching.zeroth_order import ZeroOrderConfig
from repro.methods import MFCPConfig
from repro.predictors.training import TrainConfig
from repro.workloads import TaskPool

TINY = ExperimentConfig(
    pool_size=30,
    eval_rounds=2,
    seeds=(0,),
    mfcp=MFCPConfig(epochs=3, pretrain=TrainConfig(epochs=30),
                    zero_order=ZeroOrderConfig(samples=2, delta=0.05, warm_start_iters=20)),
    supervised=TrainConfig(epochs=30),
)


class TestClusterScaling:
    def test_sweep_structure(self):
        results = run_cluster_scaling(TINY, cluster_counts=(2, 4))
        assert set(results) == {2, 4}
        for m, reports in results.items():
            assert set(reports) == {"TSM", "MFCP-AD"}
            for r in reports.values():
                assert np.isfinite(r.regret[0])
                assert 0 < r.utilization[0] <= 1.0

    def test_more_clusters_do_not_reduce_round_size(self):
        """Round size scales with M (TASKS_PER_CLUSTER · M) — utilization
        stays meaningful rather than collapsing to 1/M."""
        results = run_cluster_scaling(TINY, cluster_counts=(2, 6))
        u2 = results[2]["TSM"].utilization[0]
        u6 = results[6]["TSM"].utilization[0]
        assert u2 > 0.3 and u6 > 0.2


class TestDiagnostics:
    def test_rows_complete(self):
        rows = run_diagnostics(TINY, seed=0)
        assert set(rows) == {"TSM", "MFCP-AD"}
        for r in rows.values():
            for key in ("median_rel_err", "p90_rel_err", "spearman",
                        "rank_accuracy", "brier", "ece", "mean_regret"):
                assert key in r and np.isfinite(r[key])
            assert 0.0 <= r["rank_accuracy"] <= 1.0
            assert 0.0 <= r["brier"] <= 1.0


class TestFig2:
    def test_matching_focused_fixes_crossing_task(self):
        from repro.experiments.fig2 import run_fig2

        results = run_fig2(rng=0)
        mse = results["MSE (predict-then-match)"]
        mf = results["matching-focused"]
        assert mf.correct.sum() >= mse.correct.sum()
        assert mf.all_correct
        # The matching-focused fit trades raw MSE for decisions.
        assert mf.mse >= mse.mse

    def test_deterministic(self):
        from repro.experiments.fig2 import run_fig2

        a = run_fig2(rng=3)
        b = run_fig2(rng=3)
        np.testing.assert_allclose(
            a["matching-focused"].predicted_a, b["matching-focused"].predicted_a
        )


class TestMFCPModelSelection:
    def test_snapshot_restore_roundtrip(self, task_pool, setting_a):
        from repro.matching.zeroth_order import ZeroOrderConfig
        from repro.methods import FitContext, MatchSpec, MFCP, MFCPConfig
        from repro.predictors.training import TrainConfig

        cfg = MFCPConfig(epochs=2, pretrain=TrainConfig(epochs=20),
                         validation_rounds=0,
                         zero_order=ZeroOrderConfig(samples=2, delta=0.05,
                                                    warm_start_iters=15))
        ctx = FitContext.build(setting_a, task_pool.tasks[:12], MatchSpec(), rng=0)
        m = MFCP("analytic", cfg).fit(ctx)
        Z = np.stack([t.features for t in task_pool.tasks[12:15]])
        before = m._pairs[0].time.predict(Z)
        state = m._snapshot()
        # Perturb weights, then restore.
        for p in m._pairs[0].time.parameters():
            p.data += 1.0
        assert not np.allclose(m._pairs[0].time.predict(Z), before)
        m._restore(state)
        np.testing.assert_allclose(m._pairs[0].time.predict(Z), before)

    def test_validation_config_validated(self):
        from repro.methods import MFCPConfig

        with pytest.raises(ValueError):
            MFCPConfig(validation_rounds=-1)
        with pytest.raises(ValueError):
            MFCPConfig(validate_every=0)
