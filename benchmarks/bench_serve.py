"""Serving-tier observer-overhead gates and the two anchors in ``BENCH_serve.json``.

Speed belongs to ``python3 -m benchmarks.platform``; trace purity under
observers, warm <= cold, 1-shard fleet == dispatcher and conservation
belong to tier-1.  This file keeps what neither holds:

- ``test_observer_overhead_smoke`` (CI): on the 2 h smoke soak the quality
  monitor's callbacks cost < 5% of dispatcher wall time, the stage
  profiler's named stages explain >= 95% of the p95 window latency, and
  the profiler's and the journey tracer's (sample 1.0) hook calls cost
  < 2% off / < 5% on.  The hook bounds are counts times a micro-benchmarked
  per-call cost, never a wall-clock difference of two runs.
- ``main()`` regenerates ``BENCH_serve.json``: the cold and warm 12 h soak
  (trace digests, window and match counts, mean solver iterations; the
  warm digest is what ``serve_steady`` verifies against) and the
  scalar-vs-blocks cold-solve sweep on specialist fleets.  Every kept field
  is a deterministic count or digest; no wall clock is recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from repro.clusters import make_specialist_pool
from repro.matching import SolverConfig, solve_relaxed, solve_relaxed_blocks
from repro.methods import MatchSpec
from repro.monitor import MonitorConfig, QualityMonitor
from repro.serve import Dispatcher, ServeConfig, build_stack, make_load
from repro.telemetry import (NULL_PROFILER, JourneyRecorder, StageProfiler,
                             recording)
from repro.utils.rng import as_generator
from repro.workloads.taskpool import TaskPool

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
SCALING_SIZES = ((48, 12), (96, 24), (128, 48), (200, 200))  # (tasks, clusters)
#: Capped far above serving: the dense solve takes thousands of steps at 200.
SCALING_SOLVER = SolverConfig(tol=1e-4, max_iters=3000)
#: Gated shares of dispatcher wall time; each is read as the best of REPEATS.
BOUNDS = {"monitor callbacks": 0.05, "profiler off": 0.02, "profiler on": 0.05,
          "journeys off": 0.02, "journeys on": 0.05}
REPEATS = 5


def _soak(config: ServeConfig, stack, events, **dispatcher_kw):
    """One run under a summary-mode recorder: ``(stats, dispatcher, wall s)``."""
    _, clusters, method, spec, _ = stack
    dispatcher = Dispatcher(clusters, method, spec, config.dispatcher_config(),
                            **dispatcher_kw)
    with recording(mode="summary", stream=io.StringIO()):
        t0 = time.perf_counter()
        stats = dispatcher.run(events, rng=config.seed + 4)
        wall = time.perf_counter() - t0
    return stats, dispatcher, wall


def _per_call_s(body, n: int = 50_000) -> float:
    t0 = time.perf_counter()
    for i in range(n):
        body(i)
    return (time.perf_counter() - t0) / n


def _overheads(config: ServeConfig, stack, events) -> dict:
    """One reading of every gated figure, each cost timed next to its wall."""
    _, _, warm_wall = _soak(config, stack, events)
    # Serving-grade monitor knobs: hindsight re-solves amortized over many
    # windows and stopped at a coarser tolerance than deployment solves.
    monitor = QualityMonitor(MonitorConfig(
        sample_every=25, solver_config=SolverConfig(tol=1e-3, max_iters=150)))
    stats, _, wall = _soak(config, stack, events, callbacks=[monitor])
    out = {"monitor callbacks": stats.callback_seconds / wall}

    profiler, probe = StageProfiler(), StageProfiler()
    stats, _, wall = _soak(config, stack, events, profiler=profiler)
    assert "solve;relaxed" in stats.profile["stages"]
    out["coverage_p95"] = stats.profile["coverage_p95"]

    def stage_off(_):
        with NULL_PROFILER.stage("bench"):
            pass

    def stage_on(_):
        with probe.stage("bench"):
            pass

    calls = profiler.events_recorded
    assert calls > 0
    out["profiler off"] = calls * _per_call_s(stage_off) / warm_wall
    out["profiler on"] = calls * _per_call_s(stage_on) / wall

    _, dispatcher, wall = _soak(
        config.with_overrides(journey_sample=1.0), stack, events)
    calls = dispatcher.journeys.events_recorded
    off, tracer = None, JourneyRecorder(1.0)

    def journey_off(_):  # journeys off is one ``is None`` check per hook site
        if off is not None:
            raise AssertionError

    def journey_on(i):
        tracer.record(i // 2, 0.25, "completed" if i % 2 else "admitted", 0.5,
                      queue_depth=1, window=0, cluster_id=0)

    assert calls > 0
    out["journeys off"] = calls * _per_call_s(journey_off) / warm_wall
    out["journeys on"] = calls * _per_call_s(journey_on) / wall
    return out


def test_observer_overhead_smoke():
    config = ServeConfig(pool_size=40, train_epochs=40)
    stack = build_stack(config)
    events = make_load("poisson", stack[0], 30.0).draw(
        2.0, as_generator(config.seed + 3))
    runs = [_overheads(config, stack, events) for _ in range(REPEATS)]
    coverage = max(run["coverage_p95"] for run in runs)
    best = {gate: min(run[gate] for run in runs) for gate in BOUNDS}
    over = {g: round(v, 4) for g, v in best.items() if not v < BOUNDS[g]}
    # Judged together, so that one missed bound hides no other.
    assert coverage >= 0.95 and not over, (
        f"coverage_p95 {coverage:.3f}; observer overhead over its bound: {over}")


def _soak_entry(config: ServeConfig, stack, events) -> dict:
    stats, _, _ = _soak(config, stack, events)
    return {
        "trace_sha256": hashlib.sha256(stats.trace_bytes()).hexdigest(),
        "windows": stats.windows,
        "matched": stats.matched,
        "solve_iterations_mean": round(stats.mean_solver_iterations, 3),
    }


def _scaling_entry(n_tasks: int, m_clusters: int) -> dict:
    """One cold solve per mode on a specialist fleet, whose viability graph
    splits into components: the window the block decomposition targets."""
    tasks = TaskPool(n_tasks, rng=0).tasks
    clusters = make_specialist_pool(m_clusters)
    T = np.stack([c.true_times(tasks) for c in clusters])
    A = np.stack([c.true_reliabilities(tasks) for c in clusters])
    problem = MatchSpec(solver=SCALING_SOLVER).build_problem(T, A)
    scalar = solve_relaxed(problem, SCALING_SOLVER)
    blocks = solve_relaxed_blocks(problem, SCALING_SOLVER)
    dense, split = float(scalar.objective), float(blocks.objective)
    return {
        "tasks": n_tasks,
        "clusters": m_clusters,
        "scalar": {"iterations": scalar.iterations, "objective": round(dense, 6)},
        "blocks": {"iterations": blocks.iterations, "objective": round(split, 6)},
        "iters_ratio": round(scalar.iterations / blocks.iterations, 2),
        # Negative: the decomposed solve reached a *better* barrier value.
        "objective_gap_rel": round((split - dense) / max(abs(dense), 1e-12), 6),
    }


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(BENCH_JSON), metavar="PATH",
                        help="report path (default: BENCH_serve.json)")
    args = parser.parse_args(argv)

    config = ServeConfig()
    stack = build_stack(config)
    events = make_load("poisson", stack[0], 60.0).draw(
        12.0, as_generator(config.seed + 3))
    cold = _soak_entry(config.with_overrides(warm_start="off"), stack, events)
    warm = _soak_entry(config, stack, events)
    report = {
        "benchmark": "12 h Poisson 60/h soak on ServeConfig() (cold vs warm "
                     "solver seeds) + scalar-vs-blocks cold window solves",
        "arrivals": len(events),
        "cold": cold,
        "warm": warm,
        "warm_start_iters_speedup": round(
            cold["solve_iterations_mean"] / warm["solve_iterations_mean"], 2),
        "scaling": {
            "solver_tol": SCALING_SOLVER.tol,
            "solver_max_iters": SCALING_SOLVER.max_iters,
            "entries": [_scaling_entry(n, m) for n, m in SCALING_SIZES],
        },
    }
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}: warm trace {warm['trace_sha256'][:12]}, "
          f"{report['warm_start_iters_speedup']}x fewer iterations than cold")
    for e in report["scaling"]["entries"]:
        print(f"scaling {e['tasks']}x{e['clusters']}: {e['iters_ratio']}x fewer "
              f"iterations in blocks mode, gap {e['objective_gap_rel']}")


if __name__ == "__main__":
    main()
