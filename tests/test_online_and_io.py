"""Tests for trace I/O, calibration metrics and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main as cli_main
from repro.metrics import (
    per_task_rank_accuracy,
    reliability_calibration,
    time_accuracy,
)
from repro.workloads import export_trace, load_trace, trace_to_datasets


class TestTraceIO:
    def test_roundtrip(self, tmp_path, task_pool, setting_a):
        path = tmp_path / "trace.json"
        trace = export_trace(setting_a, task_pool.tasks[:8], path, rng=0)
        loaded = load_trace(path)
        np.testing.assert_allclose(loaded.features, trace.features)
        assert loaded.task_ids == trace.task_ids
        assert loaded.cluster_names == trace.cluster_names

    def test_datasets_from_trace(self, tmp_path, task_pool, setting_a):
        path = tmp_path / "trace.json"
        trace = export_trace(setting_a, task_pool.tasks[:8], path, rng=0)
        datasets = trace_to_datasets(trace)
        assert len(datasets) == 3
        for ds in datasets:
            assert len(ds) == 8
            assert np.all(ds.t > 0)

    def test_format_tag_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_validation_of_bad_measurements(self, tmp_path, task_pool, setting_a):
        path = tmp_path / "trace.json"
        export_trace(setting_a, task_pool.tasks[:4], path, rng=0)
        doc = json.loads(path.read_text())
        doc["clusters"][0]["measurements"][0]["task_id"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_partial_traces_supported(self, tmp_path, task_pool, setting_a):
        """Real traces are incomplete: clusters may measure different tasks."""
        path = tmp_path / "trace.json"
        export_trace(setting_a, task_pool.tasks[:6], path, rng=0)
        doc = json.loads(path.read_text())
        doc["clusters"][1]["measurements"] = doc["clusters"][1]["measurements"][:3]
        path.write_text(json.dumps(doc))
        datasets = trace_to_datasets(load_trace(path))
        assert len(datasets[1]) == 3
        assert len(datasets[0]) == 6


class TestCalibrationMetrics:
    def test_time_accuracy_perfect(self, rng):
        t = rng.uniform(0.5, 3.0, 40)
        acc = time_accuracy(t, t)
        assert acc.median_relative_error == 0.0
        assert acc.spearman == pytest.approx(1.0)

    def test_time_accuracy_detects_bias(self, rng):
        t = rng.uniform(0.5, 3.0, 40)
        acc = time_accuracy(2.0 * t, t)
        assert acc.median_relative_error == pytest.approx(1.0)
        assert acc.spearman == pytest.approx(1.0)  # ordering preserved

    def test_time_accuracy_validation(self, rng):
        with pytest.raises(ValueError):
            time_accuracy(np.array([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_rank_accuracy(self):
        T_true = np.array([[1.0, 3.0], [2.0, 1.0]])
        T_good = np.array([[1.5, 4.0], [2.5, 2.0]])  # same argmins
        T_bad = T_true[::-1]
        assert per_task_rank_accuracy(T_good, T_true) == 1.0
        assert per_task_rank_accuracy(T_bad, T_true) == 0.0

    def test_calibration_perfectly_calibrated(self, rng):
        p = rng.uniform(0.1, 0.9, 5000)
        outcomes = (rng.random(5000) < p).astype(float)
        cal = reliability_calibration(p, outcomes)
        assert cal.ece < 0.05
        assert cal.brier < 0.26

    def test_calibration_detects_overconfidence(self, rng):
        p = np.full(2000, 0.95)
        outcomes = (rng.random(2000) < 0.6).astype(float)
        cal = reliability_calibration(p, outcomes)
        assert cal.ece > 0.25

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            reliability_calibration(np.array([0.5]), np.array([0.3]))
        with pytest.raises(ValueError):
            reliability_calibration(np.array([1.5]), np.array([1.0]))


class TestCLI:
    def test_parser_covers_commands(self):
        parser = build_parser()
        for argv in (["clusters"], ["pool", "--size", "3"],
                     ["experiments", "table1"], ["demo"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_clusters_command_runs(self, capsys):
        assert cli_main(["clusters"]) == 0
        out = capsys.readouterr().out
        assert "a100-dgx" in out and "Settings" in out

    def test_pool_command_runs(self, capsys):
        assert cli_main(["pool", "--size", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Task pool" in out

    def test_trace_command_runs(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert cli_main(["trace", "export", str(path), "--tasks", "4"]) == 0
        assert path.exists()
        assert load_trace(path).n_tasks == 4
