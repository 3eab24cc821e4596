"""One run of one workload: set-up, timed episodes, checks, the result line.

Untraced (``--trace 0``) a run reports the end-to-end metrics; traced
(``--trace 1``) it reports the per-layer metrics and writes the span file.
Both time the same panel of streams, so the trace digest of stream j is
the same in every pass of every run with one seed — traced or not — and
the caller compares them.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from dataclasses import dataclass

from benchmarks.platform import tracing
from benchmarks.platform.contract import Contract, emit, per_layer_values
from benchmarks.platform.timing import (
    CALIB_REF_S,
    CALIB_SECONDS,
    calibrate,
    median,
    percentile,
)
from benchmarks.platform.workloads import WORKLOADS, Episode, Plain

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


class Kernel:
    """Runs the reference kernel between timed regions.

    ``factor()`` is called right after a region: it takes the next
    reading and returns what the region's seconds are multiplied by,
    from the mean of the readings on either side of it.
    """

    def __init__(self, smoke: bool) -> None:
        self.seconds = CALIB_SECONDS / 10 if smoke else CALIB_SECONDS
        self.readings = [calibrate(self.seconds)]

    def factor(self) -> float:
        self.readings.append(calibrate(self.seconds))
        return CALIB_REF_S / ((self.readings[-2] + self.readings[-1]) / 2)


@dataclass
class Timed:
    """One episode, the hooks it ran under and its calibration factor."""

    episode: Episode
    hooks: object
    factor: float

    @property
    def wall_s(self) -> float:
        """Calibrated wall clock of the timed call."""
        return self.episode.wall_s * self.factor


def _timed_setup(workload, seed, smoke, kernel):
    """The inputs, and the set-up's raw and calibrated seconds."""
    t0 = time.perf_counter()
    inputs = workload.setup(seed, smoke)
    wall = time.perf_counter() - t0
    return inputs, wall, wall * kernel.factor()


def _release(workload, episode: Episode) -> None:
    """Remove what the episode left on disk and drop the result objects it
    holds; its timings, counts and digest stay."""
    workload.cleanup(episode)
    episode.shards, episode.extras = [], {}
    gc.collect()  # a platform's objects refer to each other


def _time_panel(workload, inputs, hook_factories, seconds, whole_passes, kernel):
    """Time every stream of the panel, pass after pass, for ``seconds``.

    A pass runs each stream once per entry of ``hook_factories`` (the
    untraced run has one; the traced run alternates plain and traced
    episodes so both see the same minutes of the machine).  An untraced
    run makes whole passes, and starts another only if one more of the
    usual length still fits; a traced run makes one pass and may stop it
    early.  Returns, per factory, the streams reached, each as the list
    of its passes; and the last episode, whose files are still on disk.

    An untraced episode is released as soon as the next one has run, so
    that ``peak_rss_mb`` does not grow with the number of passes, which
    depends on how fast the machine happens to be.
    """
    panels = [[[] for _ in inputs.streams] for _ in hook_factories]
    start = time.perf_counter()
    passes = 0
    plain = None
    while True:
        for j, stream in enumerate(inputs.streams):
            for panel, factory in zip(panels, hook_factories):
                hooks = factory()
                episode = workload.episode(inputs, stream, hooks)
                panel[j].append(Timed(episode, hooks, kernel.factor()))
                if factory is Plain:
                    if plain is not None:
                        _release(workload, plain)
                    plain = episode
            if not whole_passes and time.perf_counter() - start > seconds:
                break
        passes += 1
        elapsed = time.perf_counter() - start
        if not whole_passes or elapsed + elapsed / passes > seconds:
            break
    panels = [[repeats for repeats in panel if repeats] for panel in panels]
    last = panels[-1][-1][-1].episode  # kept on disk for the checks that read its log
    for panel in panels:
        for repeats in panel:
            for timed in repeats:
                if timed.episode is not last:
                    workload.cleanup(timed.episode)
    return panels, last


def _verify(workload, inputs, panels, last, digests) -> "tuple[list[str], int, int]":
    episodes = [t.episode for panel in panels for repeats in panel for t in repeats]
    problems = [p for ep in episodes for p in ep.problems]
    if len(set(digests)) != 1:
        problems.append("repeated set-ups differ: set-up is not deterministic")
    for j in range(len(panels[0])):
        repeats = [t.episode for panel in panels for t in panel[j]]
        if len({ep.sha for ep in repeats}) != 1:
            problems.append(f"stream {j}: repeats differ, the run is not deterministic")
        if len({len(ep.decide_s) for ep in repeats}) != 1:
            problems.append(f"stream {j}: repeats decided different window counts")
    problems += workload.verify(inputs, last)
    workload.cleanup(last)
    return (problems, sum(ep.attempted for ep in episodes),
            sum(ep.failed for ep in episodes))


def _window_latencies(repeats: "list[Timed]") -> "list[float]":
    """Calibrated latency of each window of one stream: the median over
    the passes (the same window every time)."""
    return [median([t.episode.decide_s[i] * t.factor for t in repeats])
            for i in range(min(len(t.episode.decide_s) for t in repeats))]


def _end_to_end(setups, panel) -> dict:
    walls = [median([t.wall_s for t in repeats]) for repeats in panel]
    firsts = [repeats[0].episode for repeats in panel]
    windows = [lat for repeats in panel for lat in _window_latencies(repeats)]
    return {
        "setup_s": median(setups),
        "tasks_per_calib_s": sum(ep.tasks for ep in firsts) / sum(walls),
        "decide_p50_calib_ms": 1e3 * percentile(windows, 50),
        "cost_hours_per_task": sum(ep.cost for ep in firsts) / len(firsts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _raw(setups, panel) -> dict:
    """The timings as the clock read them, no calibration: real wall clock
    of the timed calls, too noisy on this box to gate on."""
    return {
        "setup_raw_s": median(setups),
        "tasks_per_s": sum(repeats[0].episode.tasks for repeats in panel)
        / sum(median([t.episode.wall_s for t in repeats]) for repeats in panel),
        "decide_p50_ms": 1e3 * percentile(
            [d for repeats in panel for t in repeats for d in t.episode.decide_s], 50),
    }


def _detail(panel) -> dict:
    firsts = [repeats[0].episode for repeats in panel]
    return {"shas": [ep.sha for ep in firsts],
            "windows": sum(len(ep.decide_s) for ep in firsts),
            "passes": len(panel[0])}


def run_untraced(workload, seed, seconds, smoke):
    kernel = Kernel(smoke)
    raw_setups, setups, digests = [], [], []
    for _ in range(1 if smoke else SETUPS):
        inputs, raw_s, setup_s = _timed_setup(workload, seed, smoke, kernel)
        raw_setups.append(raw_s)
        setups.append(setup_s)
        digests.append(inputs.digest)
    (panel,), last = _time_panel(workload, inputs, (Plain,), seconds, True, kernel)
    problems, attempted, failed = _verify(workload, inputs, [panel], last, digests)
    values = _end_to_end(setups, panel)
    detail = _detail(panel)
    detail["raw"] = _raw(raw_setups, panel)
    return values, problems, attempted, failed, kernel, detail


def run_traced(workload, seed, seconds, smoke):
    kernel = Kernel(smoke)
    inputs, raw_setup_s, _ = _timed_setup(workload, seed, smoke, kernel)
    # Two thirds of the time in alternating untraced and traced episodes
    # (the untraced ones are the overhead baseline and the p95/p99
    # sample), the rest for replays and probes.
    panels, last = _time_panel(workload, inputs, (Plain, tracing.Traced),
                               2 * seconds / 3, False, kernel)
    problems, attempted, failed = _verify(workload, inputs, panels, last, [inputs.digest])
    plain, traced = ([repeats[0] for repeats in panel] for panel in panels)

    values = tracing.merge(
        [tracing.layer_metrics(inputs, t.episode, t.hooks, problems) for t in traced])
    values.update(_raw([raw_setup_s], [[t] for t in plain]))
    hooks = traced[-1].hooks
    if last.shards:
        values["matching.gap_rel"] = tracing.gap_rel(hooks.methods)
        values.update(tracing.decide_tail([t.episode for t in plain]))
    if "audit_s" in last.extras:
        values["telemetry.audit_s"] = last.extras["audit_s"]
    if "timings" in last.extras:
        values["matching.batch_solve_iters"] = tracing.probe_batch_solve(
            last, inputs.data["config"])
    values.update(tracing.probe_nn(inputs.data["feature_dim"]))
    values.update(tracing.probe_telemetry())
    values["trace.overhead_frac"] = (
        sum(t.wall_s for t in traced) / sum(t.wall_s for t in plain) - 1.0)
    hooks.tracer.write(tracing.trace_path(workload.name))
    detail = _detail(panels[1])
    detail["spans"] = len(hooks.tracer.spans)
    return values, problems, attempted, failed, kernel, detail


def measure(contract: Contract, workload_name: str, seed: int, seconds: float,
            trace: bool, smoke: bool = False) -> int:
    """Run once and print the detail line, then the result line (last).

    A failed check is reported as ``"correct": false`` with exit code 0:
    the result line is the report, and ``run`` turns it into an exit code.
    """
    workload = WORKLOADS[workload_name]
    run = run_traced if trace else run_untraced
    values, problems, attempted, failed, kernel, detail = run(
        workload, seed, seconds, smoke)
    calib_ms = 1e3 * median(kernel.readings)
    drift = (max(kernel.readings) - min(kernel.readings)) / median(kernel.readings)
    if trace:
        values["machine.calib_ms"] = calib_ms
        values["machine.calib_drift"] = drift
        values = per_layer_values(workload_name, values, contract.per_layer)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    detail.update({"workload": workload_name, "seed": seed, "trace": int(trace),
                   "calib_ms": calib_ms, "calib_drift": drift, "problems": problems})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": emit(values, contract.per_layer if trace else contract.end_to_end),
    }))
    return 0
