"""``BENCHMARK.json`` is the one declaration of workloads, metrics and bounds.

The harness reads it instead of repeating the lists, so a name the file
does not declare cannot be emitted and a declared one cannot be missed
(``emit`` checks both).  What the file has no key for is declared here:
which per-layer metrics each workload computes (``APPLIES``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"
README = HERE / "README.md"

DEFAULT_SEED = 0

# A traced run must compute every per-layer metric its workload is listed
# for (a proxy, replay or probe that stops producing one fails the run) and
# reports 0 for the rest.
_EVERY = (
    "predictors.pretrain_s",
    "methods.decide_full_s", "methods.decide_calls",
    "nn.forward_us", "nn.train_step_us",
    "telemetry.record_ns", "telemetry.journey_record_ns", "telemetry.profiler_stage_ns",
    "machine.calib_ms", "machine.calib_drift", "trace.overhead_frac",
    "tasks_per_s", "decide_p50_ms", "setup_raw_s",
)
_DISPATCH = (
    "workloads.draw_s", "workloads.events", "clusters.truth_s", "clusters.truth_calls",
    "predictors.predict_s", "predictors.predict_calls",
    "matching.relaxed_s", "matching.relaxed_iters", "matching.us_per_iter",
    "matching.converged_frac", "matching.rounding_s", "matching.blocks_mean",
    "matching.gap_rel", "methods.decide_other_s",
    "serve.run_wall_s", "serve.decide_sum_s", "serve.loop_self_s",
    "serve.loop_self_frac", "serve.cache_hit_rate", "serve.memo_hit_rate",
    "serve.windows", "serve.batch_mean", "serve.shed", "serve.requeued",
    "serve.unserved", "serve.flow_hours_mean", "serve.decide_p95_ms",
    "serve.decide_p99_ms", "serve.decide_samples", "serve.attributed_frac",
)
# ``FleetController.run`` builds its dispatchers itself, so no cache
# subclass reaches them: the fleet has no ``serve.seed_s``.
_CACHE_SEAM = ("serve.seed_s",)
_CLOSED_LOOP = (
    "serve.swaps", "serve.registry_s",
    "retrain.callback_s", "retrain.jobs", "retrain.steps", "retrain.promotions",
    "retrain.rejections", "monitor.callback_s", "monitor.windows_sampled",
    "monitor.alerts", "telemetry.events", "telemetry.log_bytes",
    "telemetry.journey_events", "telemetry.audit_s",
)
_FLEET = (
    "fleet.route_s", "fleet.run_wall_s", "fleet.sum_decide_s",
    "fleet.max_shard_decide_s", "fleet.overhead_s", "fleet.wall_over_critical",
    "fleet.shard_imbalance",
)
_TRAIN = (
    "matching.batch_solve_s", "matching.batch_solve_iters", "matching.kkt_vjp_s",
    "matching.zo_vjp_s", "methods.fit_ad_s", "methods.fit_fg_s",
    "methods.fit_unattributed_frac", "methods.regret_mean",
)
APPLIES = {
    "serve_steady": frozenset(_EVERY + _DISPATCH + _CACHE_SEAM),
    "serve_churn": frozenset(_EVERY + _DISPATCH + _CACHE_SEAM),
    "serve_wide": frozenset(_EVERY + _DISPATCH + _CACHE_SEAM),
    "serve_closed_loop": frozenset(_EVERY + _DISPATCH + _CACHE_SEAM + _CLOSED_LOOP),
    "fleet_sharded": frozenset(_EVERY + _DISPATCH + _FLEET),
    "train_mfcp": frozenset(_EVERY + _TRAIN),
}
#: Computed metrics that may still read 0: counts of things a healthy run
#: can have none of, and the registry's time, which is spent only when a
#: retraining job ends inside the stream.  The smoke test requires every
#: other computed metric to be non-zero.
MAY_BE_ZERO = frozenset({
    "serve.shed", "serve.requeued", "serve.unserved", "serve.swaps", "serve.registry_s",
    "retrain.promotions", "retrain.rejections", "monitor.alerts",
})


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: "float | None" = None  # per-layer metrics carry none

    def worse_by(self, base: float, new: float) -> float:
        """How far ``new`` is worse than ``base``, as a share of ``base``."""
        if base == 0:
            return 0.0
        delta = (new - base) / abs(base)
        return delta if self.better == "lower" else -delta


@dataclass(frozen=True)
class Contract:
    command: "tuple[str, ...]"
    run_seconds: int
    workloads: "tuple[str, ...]"
    end_to_end: "tuple[Metric, ...]"
    per_layer: "tuple[Metric, ...]"


def load_contract() -> Contract:
    with open(ROOT / "BENCHMARK.json") as fh:
        raw = json.load(fh)
    return Contract(
        command=tuple(raw["command"]),
        run_seconds=int(raw["run_seconds"]),
        workloads=tuple(w["name"] for w in raw["workloads"]),
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
    )


def emit(values: "dict[str, float]", declared: "tuple[Metric, ...]") -> dict:
    """The ``metrics`` object of a result line: declared names only, all of them."""
    names = {m.name for m in declared}
    if set(values) != names:
        raise KeyError(
            f"metrics emitted and declared differ: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}")
    return {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in declared}


def per_layer_values(workload: str, computed: "dict[str, float]",
                     declared: "tuple[Metric, ...]") -> "dict[str, float]":
    """``computed`` must be exactly the workload's ``APPLIES`` set; the
    metrics of layers the workload does not run are added as 0."""
    applies = APPLIES[workload]
    if set(computed) != applies:
        raise KeyError(
            f"{workload}: per-layer metrics not computed {sorted(applies - set(computed))}, "
            f"computed but not listed in APPLIES {sorted(set(computed) - applies)}")
    return {m.name: computed.get(m.name, 0.0) for m in declared}
