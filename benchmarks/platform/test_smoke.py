"""Smoke test of the platform benchmark (outside tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/platform -q

Runs every workload at ``--smoke`` size, untraced and traced, through the
exact command ``BENCHMARK.json`` names, and checks the result lines against
the declaration.  It checks the plumbing; it says nothing about speed.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))  # bare ``pytest`` does not put the working directory there

from benchmarks.platform.contract import APPLIES, MAY_BE_ZERO  # noqa: E402

HISTORY = Path(__file__).resolve().parent / "history.jsonl"
with open(ROOT / "BENCHMARK.json") as _fh:
    CONTRACT = json.load(_fh)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "benchmarks.platform", *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_one_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert NAME.fullmatch(m["name"])
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] != 0.0, f"{m['name']} must never read 0"
        elif m["name"] not in APPLIES[workload]:
            assert got["value"] == 0.0, f"{m['name']} is not computed on {workload}"
        elif m["name"] not in MAY_BE_ZERO:
            assert got["value"] != 0.0, f"{m['name']} was computed as 0 on {workload}"


def test_every_per_layer_metric_is_computed_somewhere():
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    assert set(APPLIES) == {w["name"] for w in CONTRACT["workloads"]}
    assert set().union(*APPLIES.values()) == declared


def test_run_verifies_and_leaves_history_alone():
    before = HISTORY.read_text() if HISTORY.exists() else None
    proc = _run("run", "--smoke", "--repeats", "1", "--workload", "serve_churn")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verification passed" in proc.stdout
    assert "trace.overhead_frac" in proc.stdout
    assert (HISTORY.read_text() if HISTORY.exists() else None) == before
