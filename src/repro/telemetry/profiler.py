"""Critical-path latency-budget profiler for the serving loop.

``ServeStats.decide_seconds`` says how long each window's decision took;
it cannot say *where* the time went — admission queueing vs batch
formation vs predict vs the relaxed solve vs rounding vs monitor
callbacks.  :class:`StageProfiler` decomposes every dispatched window's
end-to-end handling latency into named stages and answers exactly that:

- **wall-clock stages** — ``with prof.stage("solve"): ...`` around each
  section of the dispatcher's window handling.  Stages nest: the method
  layer runs its relaxed solve and rounding under the dispatcher's
  ``solve`` stage, producing ``solve;relaxed`` / ``solve;rounding``
  paths.  Every path keeps its raw per-window durations, so the budget
  reports true p50/p95/p99 per stage (not bucket estimates) plus
  *self-time* (total minus time attributed to child stages);
- **simulated-time stages** — per-task admission-queue wait and
  per-window batch-formation wait, in platform hours.  These are
  simulated quantities (they exist even on an infinitely fast machine),
  so they are reported in their own section and never mixed into the
  wall-clock coverage accounting;
- **window framing** — :meth:`begin_window`/:meth:`end_window` bracket
  one window's handling.  The residual between the measured end-to-end
  wall time and the sum of depth-1 stage durations is reported as
  ``unattributed`` — the budget's honesty term.  The headline
  ``coverage_p95`` is p95(attributed) / p95(end-to-end) across windows;
  ``benchmarks/bench_serve.py`` gates it at >= 0.95;
- **flamegraph export** — :meth:`collapsed_stacks` emits the standard
  collapsed-stack format (``frame;frame count``, counts in integer
  microseconds of *self* time), directly loadable by speedscope and
  ``flamegraph.pl``.

The profiler records wall-clock only and draws no randomness, so a
profiled run's assignment trace is byte-identical to an unprofiled one;
when off, the dispatcher holds :data:`NULL_PROFILER`, whose methods are
no-ops (a few calls per *window*, not per task — gated by
``benchmarks/bench_serve.py::test_observer_overhead_smoke``; the
platform benchmark's ``telemetry.*_ns`` metrics read the per-call cost).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

__all__ = ["StageProfiler", "NullStageProfiler", "NULL_PROFILER", "budget_gauges"]


def budget_gauges(budget: dict):
    """A :meth:`StageProfiler.budget` as gauge series, ``(name, labels,
    value)`` each: the window count, the end-to-end window total and p95,
    the p95 coverage, total and p95 per stage path and for the
    unattributed residual, and p50/p95/calls per simulated-time stage.
    Wall-clock values — they live in metrics (the dispatcher writes them
    when a run drains, a live snapshot sets their current values), never
    in the trace."""
    e2e, unattr = budget.get("e2e", {}), budget.get("unattributed", {})
    yield "serve/profile_windows", None, budget["windows"]
    yield "serve/window_total_s", None, e2e.get("total_s", 0.0)
    yield "serve/window_p95_s", None, e2e.get("p95", 0.0)
    yield "serve/profile_coverage_p95", None, budget.get("coverage_p95", 0.0)
    stages = {**budget["stages"], "unattributed": unattr}
    for path, s in stages.items():
        yield "serve/stage_total_s", {"stage": path}, s.get("total_s", 0.0)
        yield "serve/stage_p95_s", {"stage": path}, s.get("p95", 0.0)
    for name, s in budget.get("sim_stages", {}).items():
        yield "serve/sim_stage_p50_h", {"stage": name}, s["p50"]
        yield "serve/sim_stage_p95_h", {"stage": name}, s["p95"]
        yield "serve/sim_stage_calls", {"stage": name}, s["calls"]


class _NullStage:
    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_STAGE = _NullStage()


class NullStageProfiler:
    """Disabled profiler: every hook is a no-op."""

    enabled = False
    events_recorded = 0

    def stage(self, name: str) -> _NullStage:
        return _NULL_STAGE

    def begin_window(self) -> None:
        pass

    def end_window(self) -> None:
        pass

    def observe_sim(self, name: str, hours: float) -> None:
        pass


NULL_PROFILER = NullStageProfiler()


class _Stage:
    """One open wall-clock stage (context manager handed out by
    :meth:`StageProfiler.stage`)."""

    __slots__ = ("prof", "name", "t0")

    def __init__(self, prof: "StageProfiler", name: str) -> None:
        self.prof = prof
        self.name = name

    def __enter__(self) -> "_Stage":
        self.prof._stack.append(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter() - self.t0
        prof = self.prof
        path = ";".join(prof._stack)
        prof._stack.pop()
        durs = prof._paths.get(path)
        if durs is None:
            durs = prof._paths[path] = []
        durs.append(dur)
        if not prof._stack:  # depth-1: counts toward window attribution
            prof._window_attributed += dur
        prof.events_recorded += 1


def _pcts(values: "list[float] | np.ndarray") -> dict:
    # One call for the three: each costs about as much as all three.
    p50, p95, p99 = np.percentile(np.asarray(values, dtype=float), (50, 95, 99)).tolist()
    return {"p50": p50, "p95": p95, "p99": p99}


class StageProfiler:
    """Accumulates the per-stage latency budget of a dispatcher run."""

    enabled = True

    def __init__(self) -> None:
        self._stack: "list[str]" = []
        #: stage path ("a" or "a;b") -> raw per-call wall durations (s).
        self._paths: "dict[str, list[float]]" = {}
        #: simulated-time stage -> raw observations (platform hours).
        self._sim: "dict[str, list[float]]" = {}
        self._windows_e2e: "list[float]" = []
        self._windows_attr: "list[float]" = []
        self._window_t0 = 0.0
        self._window_attributed = 0.0
        self.events_recorded = 0

    # ------------------------------------------------------------------ #
    # Recording hooks (called from the dispatcher / method layer).
    # ------------------------------------------------------------------ #

    def stage(self, name: str) -> _Stage:
        """Open a named wall-clock stage (nests under any open stage)."""
        return _Stage(self, name)

    def begin_window(self) -> None:
        self._window_t0 = time.perf_counter()
        self._window_attributed = 0.0

    def end_window(self) -> None:
        e2e = time.perf_counter() - self._window_t0
        self._windows_e2e.append(e2e)
        self._windows_attr.append(self._window_attributed)
        self.events_recorded += 1

    def observe_sim(self, name: str, hours: float) -> None:
        """Record a simulated-time stage observation (platform hours)."""
        obs = self._sim.get(name)
        if obs is None:
            obs = self._sim[name] = []
        obs.append(float(hours))
        self.events_recorded += 1

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #

    def budget(self) -> dict:
        """The latency budget: per-stage totals/percentiles/self-time,
        end-to-end percentiles, and the unattributed residual."""
        stages: "dict[str, dict]" = {}
        totals = {path: sum(durs) for path, durs in self._paths.items()}
        for path, durs in sorted(self._paths.items()):
            total = float(totals[path])
            child_total = sum(
                t for p, t in totals.items()
                if p.startswith(path + ";") and p.count(";") == path.count(";") + 1
            )
            stages[path] = {
                "total_s": total,
                "calls": len(durs),
                "self_s": float(total - child_total),
                **_pcts(durs),
            }
        sim = {
            name: {"total_hours": float(sum(obs)), "calls": len(obs), **_pcts(obs)}
            for name, obs in sorted(self._sim.items())
        }
        n = len(self._windows_e2e)
        if n == 0:
            return {"windows": 0, "stages": stages, "sim_stages": sim,
                    "e2e": {}, "unattributed": {}, "coverage_p95": 0.0}
        e2e = np.asarray(self._windows_e2e)
        attr = np.asarray(self._windows_attr)
        resid = np.maximum(e2e - attr, 0.0)
        e2e_pcts = _pcts(e2e)
        e2e_p95 = e2e_pcts["p95"]
        attr_p95 = float(np.percentile(attr, 95))
        return {
            "windows": n,
            "e2e": {"total_s": float(e2e.sum()), **e2e_pcts},
            "stages": stages,
            "sim_stages": sim,
            "unattributed": {
                "total_s": float(resid.sum()),
                "frac": float(resid.sum() / e2e.sum()) if e2e.sum() > 0 else 0.0,
                **_pcts(resid),
            },
            # How much of the p95 end-to-end window latency the named
            # stages explain — the ISSUE's >=95% acceptance headline.
            "coverage_p95": float(attr_p95 / e2e_p95) if e2e_p95 > 0 else 1.0,
        }

    def collapsed_stacks(self, root: str = "window") -> "list[str]":
        """Collapsed-stack lines (``frame;frame count``), counts = integer
        microseconds of self-time, compatible with speedscope /
        ``flamegraph.pl``.  The unattributed residual appears as the
        root's own self-time."""
        lines: "list[str]" = []
        budget = self.budget()
        resid_us = int(round(budget.get("unattributed", {}).get("total_s", 0.0) * 1e6))
        if resid_us > 0:
            lines.append(f"{root} {resid_us}")
        for path, s in budget["stages"].items():
            self_us = int(round(s["self_s"] * 1e6))
            if self_us > 0:
                lines.append(f"{root};{path} {self_us}")
        return lines

    def write_flamegraph(self, path: "str | Path") -> Path:
        """Write the collapsed-stack profile to ``path`` and return it."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(self.collapsed_stacks()) + "\n")
        return out
