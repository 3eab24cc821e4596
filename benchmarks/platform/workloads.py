"""The six workloads, built through the public ``repro`` API only.

Each workload is a ``setup`` (everything before the timed call) and an
``episode`` (one timed call plus its scoring).  A set-up draws a *panel* of
independent traffic streams from the one seed and a run times every stream
of the panel: one 50 h stream has ~210 windows and their mean solver
iterations move 8 % from seed to seed, a panel of 800 windows moves 4 %.
Streams are short (a third of a second to a second of work) so that the
reference kernel, which runs between them, samples the machine's speed
close to where the work ran.  Wall clock never feeds
back into the simulated platform, so repeating a stream must reproduce its
trace digest.

``hooks`` is where the traced pass injects its proxies (``tracing.Traced``);
the untraced pass uses :class:`Plain`, which hands everything back
unchanged, so the measured program runs without a single extra call.

Seeds: ``--seed`` S draws what happens to the platform.  Stream j is
seeded s = S + 1000 j and uses the serve-seed convention from there (load
s+3, dispatcher s+4, outages s+9; on ``train_mfcp`` the measurement noise,
initial weights and sampled rounds s+2).  Who is on the platform — pool,
cluster draw, split, serving predictors, held-out rounds — is the fixed
draw ``PLATFORM``: redrawn per seed it moved throughput by 35 % between
seeds (README.md, "What the seed reaches").
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.clusters import make_pool, make_setting, make_specialist_pool
from repro.fleet import FleetConfig, FleetController
from repro.matching import SolverConfig, ZeroOrderConfig, makespan
from repro.methods import MFCP, TSM, FitContext, MatchSpec, MFCPConfig
from repro.metrics.regret import deployment_matching
from repro.monitor import MonitorConfig
from repro.predictors.training import TrainConfig
from repro.retrain import RetrainConfig
from repro.serve import (
    Dispatcher,
    DispatcherConfig,
    Outage,
    ServeConfig,
    build_platform,
    make_load,
    weights_digest,
)
from repro.telemetry import audit_journeys, journeys_from_events, load_run, recording
from repro.utils.rng import as_generator
from repro.workloads.taskpool import TaskPool

from benchmarks.platform.contract import OUT, ROOT

SERVING_SOLVER = SolverConfig(tol=1e-4, max_iters=400)
STREAM_STRIDE = 1000
#: Pool PLATFORM, cluster draw PLATFORM, split +1, fit context +2,
#: held-out rounds +5: at 0 this is ``repro.serve.build_stack``'s seed-0
#: stack, the one the committed soak anchor was recorded on.
PLATFORM = 0


class Plain:
    """Hooks of the untraced pass: nothing is wrapped, nothing is recorded."""

    def fleet_controller(self, config, stack):
        return FleetController(config, stack=stack)

    def method(self, method):
        return method

    def clusters(self, clusters):
        return clusters

    def cache(self):
        return None  # the dispatcher builds its own

    def memo(self):
        return None

    def observe_platform(self, platform) -> None:
        pass

    def span(self, name: str):
        return nullcontext()


@dataclass
class Stream:
    """One independent draw of what happens to the platform."""

    seed: int
    events: list = field(default_factory=list)
    outages: "list[Outage] | None" = None


@dataclass
class Episode:
    """One timed call and what it produced."""

    wall_s: float
    tasks: int  # matched (serve, fleet) or task slots trained on (train)
    decide_s: "list[float]"  # one latency per window, same order on every repeat
    cost: float  # true makespan hours per task, mean over the decision rounds
    sha: str  # digest of everything deterministic the call produced
    attempted: int
    failed: int
    problems: "list[str]" = field(default_factory=list)
    shards: list = field(default_factory=list)  # ServeStats, one per dispatcher
    extras: dict = field(default_factory=dict)  # other public result objects


@dataclass
class Inputs:
    seed: int
    streams: "list[Stream]"
    digest: str  # equal across repeated set-ups, or set-up is not deterministic
    parts: "dict[str, float]"  # serve: set-up seconds of the predictor fit and the load draw
    data: dict


# --------------------------------------------------------------------- #
# Serving workloads.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServeSizes:
    pool_size: int
    train_epochs: int
    pattern: str
    rate_per_hour: float
    streams: int
    horizon_hours: float  # per stream
    smoke_horizon_hours: float


def _serve_setup(sizes: ServeSizes, clusters: list, seed: int, smoke: bool,
                 outage_clusters: int = 0) -> Inputs:
    """Pool, split, fit context and TSM fit on the serve-seed convention
    (``repro.serve.build_stack``'s, so ``serve_steady``'s stack is the
    committed soak's), then the open-loop arrival schedules."""
    p = PLATFORM
    pool = TaskPool(sizes.pool_size, rng=p)
    train_tasks, _ = pool.split(0.6, rng=p + 1)
    spec = MatchSpec(solver=SERVING_SOLVER)
    ctx = FitContext.build(clusters, train_tasks, spec, rng=p + 2)
    t0 = time.perf_counter()
    method = TSM(train_config=TrainConfig(epochs=sizes.train_epochs)).fit(ctx)
    fit_s = time.perf_counter() - t0
    horizon = sizes.smoke_horizon_hours if smoke else sizes.horizon_hours
    load = make_load(sizes.pattern, pool, sizes.rate_per_hour)
    t0 = time.perf_counter()
    streams = []
    for j in range(1 if smoke else sizes.streams):
        s = seed + STREAM_STRIDE * j
        streams.append(Stream(s, load.draw(horizon, as_generator(s + 3))))
    draw_s = time.perf_counter() - t0
    if outage_clusters:
        for stream in streams:
            stream.outages = draw_outages(outage_clusters, horizon, stream.seed + 9)
    marks = "|".join(f"{len(s.events)}:{s.events[-1][0]!r}" for s in streams)
    digest = hashlib.sha256(f"{weights_digest(method)}|{marks}".encode()).hexdigest()
    return Inputs(seed, streams, digest,
                  {"fit_s": fit_s, "draw_s": draw_s},
                  {"pool": pool, "clusters": clusters, "method": method, "spec": spec,
                   "feature_dim": pool.feature_dim, "true_time": {}})


def draw_outages(n_clusters: int, horizon: float, rng) -> "list[Outage]":
    """One random cluster down 0.2-1 h, every 0.5-3 h."""
    rng = as_generator(rng)
    outages: "list[Outage]" = []
    t = 0.0
    while True:
        t += float(rng.uniform(0.5, 3.0))
        length = float(rng.uniform(0.2, 1.0))
        if t + length >= horizon:
            return outages
        outages.append(Outage(int(rng.integers(n_clusters)), t, t + length))
        t += length


def _check_shard(stats, label: str, problems: "list[str]") -> int:
    """Conservation, the matched identity and causality of one dispatcher
    run; returns how many of its operations failed."""
    if not stats.conserved:
        problems.append(f"{label}: arrivals not conserved")
    if stats.matched != stats.completed + stats.failed + stats.requeued:
        problems.append(f"{label}: matched != completed + failed + requeued")
    early = sum(1 for r in stats.records if r.dispatched < r.arrival - 1e-12)
    if early:
        problems.append(f"{label}: {early} records dispatched before arrival")
    return stats.shed + stats.unserved + early


def _decision_cost(inp: Inputs, shards: list) -> float:
    """Mean over windows of the executed matching's true makespan per task.

    This is Eq. 6's first term, f(X*(T-hat, A-hat), T) / N, read off the
    run's records: what the solver minimises, scored under the truth.  It
    leaves out queueing, which on these saturated streams is a random walk
    (mean flow hours move 8-136 % between seeds; this moves 2-4 %), so it
    can be gated tightly against "faster by solving worse".
    """
    pool, cache = inp.data["pool"], inp.data["true_time"]
    clusters = {c.cluster_id: c for c in inp.data["clusters"]}
    per_task = []
    for stats in shards:
        loads: "dict[int, dict[int, float]]" = {}
        sizes: "dict[int, int]" = {}
        for r in stats.records:
            key = (r.cluster_id, r.task_id)
            hours = cache.get(key)
            if hours is None:
                hours = cache[key] = clusters[r.cluster_id].true_time(pool[r.task_id])
            window = loads.setdefault(r.window, {})
            window[r.cluster_id] = window.get(r.cluster_id, 0.0) + hours
            sizes[r.window] = sizes.get(r.window, 0) + 1
        per_task += [max(loads[w].values()) / sizes[w] for w in loads]
    return float(np.mean(per_task))


def _serve_episode(inp: Inputs, wall_s: float, shards: list, sha: str,
                   extras: "dict | None" = None) -> Episode:
    problems: "list[str]" = []
    failed = sum(_check_shard(s, f"shard {i}", problems) for i, s in enumerate(shards))
    served = sum(s.completed + s.failed for s in shards)
    extras = dict(extras or {})
    extras["flow_hours_mean"] = sum(s.total_flow_hours for s in shards) / served
    return Episode(
        wall_s=wall_s,
        tasks=sum(s.matched for s in shards),
        decide_s=[d for s in shards for d in s.decide_seconds],
        cost=_decision_cost(inp, shards),
        sha=sha,
        attempted=sum(s.arrived for s in shards),
        failed=failed,
        problems=problems,
        shards=shards,
        extras=extras,
    )


def _dispatch_episode(inp: Inputs, stream: Stream, dcfg: DispatcherConfig, hooks) -> Episode:
    d = inp.data
    dispatcher = Dispatcher(hooks.clusters(d["clusters"]), hooks.method(d["method"]),
                            d["spec"], dcfg, cache=hooks.cache(), memo=hooks.memo())
    t0 = time.perf_counter()
    with hooks.span("serve.run"):
        stats = dispatcher.run(stream.events, rng=stream.seed + 4, outages=stream.outages)
    wall = time.perf_counter() - t0
    return _serve_episode(inp, wall, [stats],
                          hashlib.sha256(stats.trace_bytes()).hexdigest())


class Workload:
    """A named set-up and episode; most workloads add no check or clean-up."""

    name: str

    def verify(self, inp: Inputs, last: Episode) -> "list[str]":
        """Checks made once per run, after timing; returns what failed."""
        return []

    def cleanup(self, episode: Episode) -> None:
        """Remove what the episode left on disk."""


class ServeSteady(Workload):
    """The committed soak's stack, made long enough for tails."""

    name = "serve_steady"
    sizes = ServeSizes(pool_size=64, train_epochs=120, pattern="poisson",
                       rate_per_hour=60.0, streams=12, horizon_hours=21.0,
                       smoke_horizon_hours=6.0)
    dcfg = DispatcherConfig(max_batch=16, max_wait_hours=0.25, queue_capacity=128)

    def setup(self, seed: int, smoke: bool) -> Inputs:
        return _serve_setup(self.sizes, make_setting("A"), seed, smoke)

    def episode(self, inp: Inputs, stream: Stream, hooks) -> Episode:
        return _dispatch_episode(inp, stream, self.dcfg, hooks)

    def verify(self, inp: Inputs, last: Episode) -> "list[str]":
        """The 12 h seed-0 soak, driven through this set-up's stack, must
        reproduce the warm-soak anchor committed in ``BENCH_serve.json``."""
        with open(ROOT / "BENCH_serve.json") as fh:
            anchor = json.load(fh)["warm"]["trace_sha256"]
        d = inp.data
        events = make_load("poisson", d["pool"], 60.0).draw(12.0, as_generator(3))
        stats = Dispatcher(d["clusters"], d["method"], d["spec"], self.dcfg).run(
            events, rng=4)
        got = hashlib.sha256(stats.trace_bytes()).hexdigest()
        if got != anchor:
            return [f"12 h soak digest {got[:12]} is not the anchor {anchor[:12]}"]
        return []


class ServeChurn(Workload):
    """Same dispatcher and solver, used differently: small windows, a
    changing up-set, changing size buckets — the warm start misses."""

    name = "serve_churn"
    sizes = ServeSizes(pool_size=64, train_epochs=120, pattern="bursty",
                       rate_per_hour=40.0, streams=10, horizon_hours=8.0,
                       smoke_horizon_hours=5.0)
    dcfg = DispatcherConfig(max_batch=8, max_wait_hours=0.05, queue_capacity=16,
                            shed_policy="drop_oldest")

    def setup(self, seed: int, smoke: bool) -> Inputs:
        return _serve_setup(self.sizes, make_pool(8, rng=PLATFORM), seed, smoke,
                            outage_clusters=8)

    def episode(self, inp: Inputs, stream: Stream, hooks) -> Episode:
        return _dispatch_episode(inp, stream, self.dcfg, hooks)


class ServeWide(Workload):
    """24 specialist clusters, 64-task windows, the block solve: the one
    workload where rounding, ``blocks.py``/``batch.py`` and ``clusters``
    carry the time and the scalar solver is bypassed."""

    name = "serve_wide"
    # 15 pretraining epochs: 120 make one set-up 12.7 s (48 networks), and
    # predictor accuracy is not what this workload measures (at 10 the
    # predictions are poor enough to double the solver's iterations).
    sizes = ServeSizes(pool_size=256, train_epochs=15, pattern="poisson",
                       rate_per_hour=400.0, streams=7, horizon_hours=2.0,
                       smoke_horizon_hours=1.0)
    dcfg = DispatcherConfig(max_batch=64, max_wait_hours=0.25, queue_capacity=256,
                            solve_mode="blocks")

    def setup(self, seed: int, smoke: bool) -> Inputs:
        return _serve_setup(self.sizes, make_specialist_pool(24), seed, smoke)

    def episode(self, inp: Inputs, stream: Stream, hooks) -> Episode:
        return _dispatch_episode(inp, stream, self.dcfg, hooks)


class ServeClosedLoop(Workload):
    """serve_steady's stack with every observer on: quality monitor,
    periodic retraining against a registry, full journey tracing, the
    stage profiler and a JSONL run log."""

    name = "serve_closed_loop"
    sizes = ServeSizes(pool_size=64, train_epochs=120, pattern="poisson",
                       rate_per_hour=60.0, streams=10, horizon_hours=12.0,
                       smoke_horizon_hours=8.0)
    #: Retrain cadence, scaled with the horizon (200 windows at 200 h).
    period_windows = 12

    def setup(self, seed: int, smoke: bool) -> Inputs:
        return _serve_setup(self.sizes, make_setting("A"), seed, smoke)

    def episode(self, inp: Inputs, stream: Stream, hooks) -> Episode:
        d = inp.data
        workdir = OUT / f"closed-loop-{os.getpid()}-{time.monotonic_ns()}"
        config = ServeConfig(
            setting="A", pool_size=self.sizes.pool_size, seed=PLATFORM,
            train_epochs=self.sizes.train_epochs,
            monitor=MonitorConfig(sample_every=25,
                                  solver_config=SolverConfig(tol=1e-3, max_iters=150)),
            retrain=RetrainConfig(trigger="periodic", period_windows=self.period_windows),
            registry_root=str(workdir / "registry"),
            journey_sample=1.0, profile=True,
        )
        # A hot-swap loads weights into the method in place, so each
        # episode serves from its own copy of the fitted predictors.
        stack = (d["pool"], hooks.clusters(d["clusters"]),
                 hooks.method(copy.deepcopy(d["method"])), d["spec"],
                 config.dispatcher_config())
        platform = build_platform(config, stack=stack)
        hooks.observe_platform(platform)
        t0 = time.perf_counter()
        with hooks.span("serve.run"):
            with recording(mode="jsonl", run="closed-loop", out_dir=workdir,
                           meta={"serve": config.to_params()},
                           stream=io.StringIO()) as rec:
                stats = platform.dispatcher.run(stream.events, rng=stream.seed + 4)
        wall = time.perf_counter() - t0  # includes writing the run log
        swaps = "|".join(f"{e['window']}:{e['digest']}" for e in stats.swap_events)
        sha = hashlib.sha256(stats.trace_bytes() + swaps.encode()).hexdigest()
        return _serve_episode(inp, wall, [stats], sha, {
            "platform": platform, "aggregate": rec.aggregate(),
            "events_recorded": rec.events_recorded,
            "log_path": rec.jsonl_path, "log_bytes": rec.jsonl_path.stat().st_size,
            "workdir": workdir,
        })

    def verify(self, inp: Inputs, last: Episode) -> "list[str]":
        """Every journey in the run log, audited against the run counters."""
        stats = last.shards[0]
        t0 = time.perf_counter()
        journeys = journeys_from_events(load_run(last.extras["log_path"]))
        expect = {name: getattr(stats, name) for name in (
            "arrived", "matched", "completed", "failed", "shed", "requeued", "unserved")}
        found = audit_journeys(journeys, expect=expect, sample=1.0)
        last.extras["audit_s"] = time.perf_counter() - t0
        return [f"journey audit: {p}" for p in found[:5]]

    def cleanup(self, episode: Episode) -> None:
        if "workdir" in episode.extras:  # not released yet
            shutil.rmtree(episode.extras["workdir"], ignore_errors=True)


class FleetSharded(Workload):
    """Four replicated shards behind the hash router, one process."""

    name = "fleet_sharded"
    sizes = ServeSizes(pool_size=64, train_epochs=120, pattern="poisson",
                       rate_per_hour=240.0, streams=8, horizon_hours=5.0,
                       smoke_horizon_hours=2.0)

    def setup(self, seed: int, smoke: bool) -> Inputs:
        return _serve_setup(self.sizes, make_setting("A"), seed, smoke)

    def episode(self, inp: Inputs, stream: Stream, hooks) -> Episode:
        d = inp.data
        # With a prebuilt stack ``serve.seed`` only seeds the per-shard
        # dispatchers (seed + 4), which is the traffic side of the split.
        serve = ServeConfig(setting="A", pool_size=self.sizes.pool_size,
                            seed=stream.seed, train_epochs=self.sizes.train_epochs)
        config = FleetConfig(n_shards=4, routing="hash", partition="replicate",
                             serve=serve)
        stack = (d["pool"], hooks.clusters(d["clusters"]), hooks.method(d["method"]),
                 d["spec"], serve.dispatcher_config())
        controller = hooks.fleet_controller(config, stack)
        t0 = time.perf_counter()
        with hooks.span("serve.run"):
            fleet = controller.run(stream.events)
        wall = time.perf_counter() - t0
        ep = _serve_episode(inp, wall, fleet.per_shard, fleet.trace_sha256(),
                            {"fleet": fleet})
        routed = sorted(r for shard in fleet.routes for r in shard)
        offered = sorted((float(t), task.task_id) for t, task in stream.events)
        if routed != offered:
            ep.problems.append("fleet routes do not partition the arrival stream")
        return ep


# --------------------------------------------------------------------- #
# Training workload.
# --------------------------------------------------------------------- #


class TrainMFCP(Workload):
    """MFCP-AD then MFCP-FG on one fit context: no dispatcher at all."""

    name = "train_mfcp"
    pool_size = 160
    round_size = 20
    heldout_rounds = 10
    streams = 5
    #: Pretraining and regret epochs, scaled together from the paper
    #: profile's 120/120 (15 s per pair of fits) so that a panel of five
    #: independently seeded pairs of fits is one pass.
    epochs = 10
    smoke_epochs = 3

    def _config(self, smoke: bool) -> MFCPConfig:
        epochs = self.smoke_epochs if smoke else self.epochs
        return MFCPConfig(
            epochs=epochs, round_size=self.round_size,
            pretrain=TrainConfig(epochs=epochs),
            zero_order=ZeroOrderConfig(samples=8, delta=0.05, warm_start_iters=60,
                                       vectorized=True),
        )

    def setup(self, seed: int, smoke: bool) -> Inputs:
        p = PLATFORM
        pool = TaskPool(self.pool_size, rng=p)
        clusters = make_pool(8, rng=p)
        train_tasks, test_tasks = pool.split(0.7, rng=p + 1)
        spec = MatchSpec()
        streams = [Stream(seed + STREAM_STRIDE * j)
                   for j in range(1 if smoke else self.streams)]
        # Measuring the training tasks on every cluster is set-up; the
        # episodes build the context again only because a fit uses up its
        # generator.
        ctx = FitContext.build(clusters, train_tasks, spec, rng=streams[0].seed + 2)
        rng = as_generator(p + 5)
        rounds = []
        for _ in range(4 if smoke else self.heldout_rounds):
            idx = rng.choice(len(test_tasks), size=self.round_size, replace=False)
            tasks = [test_tasks[int(i)] for i in idx]
            T = np.stack([c.true_times(tasks) for c in clusters])
            A = np.stack([c.true_reliabilities(tasks) for c in clusters])
            problem = spec.build_problem(T, A)
            oracle = deployment_matching(problem, solver_config=spec.solver)
            rounds.append((tasks, problem, makespan(oracle, problem)))
        digest = hashlib.sha256(
            b"".join(np.ascontiguousarray(ds.t).tobytes() for ds in ctx.datasets)
        ).hexdigest()
        return Inputs(seed, streams, digest, {},
                      {"clusters": clusters, "train_tasks": train_tasks, "spec": spec,
                       "rounds": rounds, "config": self._config(smoke),
                       "feature_dim": pool.feature_dim})

    def episode(self, inp: Inputs, stream: Stream, hooks) -> Episode:
        d = inp.data
        config = d["config"]
        ctx = FitContext.build(d["clusters"], d["train_tasks"], d["spec"],
                               rng=stream.seed + 2)
        t0 = time.perf_counter()
        with hooks.span("methods.fit_ad"):
            ad = MFCP("analytic", config).fit(ctx)
        with hooks.span("methods.fit_fg"):
            fg = MFCP("forward", config).fit(ctx)
        wall = time.perf_counter() - t0

        decide_s, costs, regrets = [], [], []
        for method in (ad, fg):
            for tasks, problem, oracle_cost in d["rounds"]:
                t1 = time.perf_counter()
                with hooks.span("methods.decide_full"):
                    decision = method.decide_full(problem, tasks)
                decide_s.append(time.perf_counter() - t1)
                cost = makespan(decision.X, problem)
                costs.append(cost / problem.N)
                regrets.append((cost - oracle_cost) / problem.N)
        losses = ad.loss_history + fg.loss_history
        bad = sum(1 for v in losses + costs if not np.isfinite(v))
        problems = [f"{bad} non-finite losses or costs"] if bad else []
        if not losses:
            problems.append("no training epoch ran")
        sha = hashlib.sha256((weights_digest(ad) + weights_digest(fg)).encode()).hexdigest()
        return Episode(
            wall_s=wall,
            tasks=len(losses) * self.round_size,
            decide_s=decide_s,
            cost=float(np.mean(costs)),
            sha=sha,
            attempted=len(losses) + len(costs),
            failed=bad,
            problems=problems,
            extras={"timings": {"ad": ad.timings, "fg": fg.timings},
                    "regret_mean": float(np.mean(regrets)),
                    "ad": ad, "ctx": ctx},
        )


WORKLOADS = {w.name: w for w in (ServeSteady(), ServeChurn(), ServeWide(),
                                 ServeClosedLoop(), FleetSharded(), TrainMFCP())}
