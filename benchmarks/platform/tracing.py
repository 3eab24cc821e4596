"""The traced pass: spans and counts at layer boundaries, taken from outside.

Nothing in ``src/repro`` is edited or patched.  Timing proxies go in at
seams the public API already has — a ``BaseMethod`` subclass that
delegates, ``Cluster`` proxies, ``cache=``/``memo=`` subclasses, a wrapper
per ``ServeCallback``, a registry subclass on the same directory, a
``FleetController`` subclass with a timed ``route`` — and what no seam
reaches (the inside of ``decide_full``) is measured by *replay*: the method
proxy keeps the exact inputs of every tenth window's solve, and after the
run the relaxed solve and the rounding are timed again on those inputs.
*Probes* call a layer's public function directly at the workload's shapes.

Spans (name, start, end, parent, window) stay in memory and are written
to ``out/<workload>.trace.jsonl`` when the pass ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from repro import nn
from repro.fleet import FleetController
from repro.matching import (
    BatchProblem,
    SolverConfig,
    clamp_predictions_batch,
    round_assignment,
    solve_relaxed,
    solve_relaxed_batch,
    solve_relaxed_blocks,
)
from repro.methods import BaseMethod
from repro.serve import ModelRegistry, PredictionMemo, ServeCallback, WarmStartCache
from repro.telemetry import JourneyRecorder, Recorder, StageProfiler

from benchmarks.platform.contract import OUT
from benchmarks.platform.timing import percentile
from benchmarks.platform.workloads import SERVING_SOLVER

#: Every n-th window's solve inputs are kept for replay.
REPLAY_EVERY = 10
#: Wall-clock budget of the tolerance-1e-8 reference solves behind
#: ``matching.gap_rel`` (at least two windows are always solved).
GAP_BUDGET_S = 1.5
REFERENCE_SOLVER = SolverConfig(tol=1e-8, max_iters=3000)


class Tracer:
    """In-memory span store; ``window`` stamps spans with the window they fall in."""

    def __init__(self) -> None:
        self.spans: "list[tuple | None]" = []
        self._open: "list[int]" = []
        self.window = 0
        #: Set by the method proxy when a window's decision returns; the
        #: next ground-truth matrix read is the next window forming.
        self.decided = False

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, t0, t1, parent, self.window)

    def totals(self) -> "dict[str, tuple[float, float, int]]":
        """name -> (total seconds, self seconds, count); self time is a
        span's duration minus what its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: "dict[str, list]" = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, [0.0, 0.0, 0])
            agg[0] += t1 - t0
            agg[1] += t1 - t0 - child[i]
            agg[2] += 1
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, window in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "window": window}) + "\n")


# --------------------------------------------------------------------- #
# Proxies.
# --------------------------------------------------------------------- #


class TracedMethod(BaseMethod):
    """Delegates ``predict``/``decide_full``; keeps what replay needs.

    ``decide`` is left alone on purpose: the dispatcher only runs its
    warm-start pipeline for methods that inherit ``BaseMethod.decide``.
    """

    def __init__(self, inner: BaseMethod, tracer: Tracer) -> None:
        super().__init__()
        self.name = inner.name
        self._inner = inner
        self._tracer = tracer
        self._fitted = True
        self.decisions = 0
        self.converged = 0
        self.blocks: "list[int]" = []
        #: The ``decide_full`` call and the :class:`Decision` it returned,
        #: for every n-th window.
        self.captures: "list[tuple[tuple, dict, object]]" = []

    def _fit(self, ctx) -> None:
        raise RuntimeError("the proxy wraps a fitted method")

    @property
    def pairs(self):
        """The registry and the retrainer reach the predictors through this."""
        return self._inner.pairs

    def replay(self, args: tuple, kwargs: dict):
        """The wrapped method's ``decide_full`` again, with no span."""
        return self._inner.decide_full(*args, **kwargs)

    def predict(self, tasks):
        with self._tracer.span("predictors.forward"):
            return self._inner.predict(tasks)

    def decide_full(self, true_problem, tasks, *, x0=None, solver=None,
                    predictions=None, solve_mode="scalar", block_config=None,
                    profiler=None):
        with self._tracer.span("methods.decide_full"):
            decision = self._inner.decide_full(
                true_problem, tasks, x0=x0, solver=solver, predictions=predictions,
                solve_mode=solve_mode, block_config=block_config, profiler=profiler)
        relaxed = decision.relaxed
        self.converged += bool(relaxed.converged)
        self.blocks.append(getattr(relaxed, "n_blocks", 1))
        if self.decisions % REPLAY_EVERY == 0:
            self.captures.append(((true_problem, tasks), {
                "x0": x0, "solver": solver, "predictions": predictions,
                "solve_mode": solve_mode, "block_config": block_config}, decision))
        self.decisions += 1
        self._tracer.decided = True
        return decision


class TracedCluster:
    """Times the ground-truth reads; every other attribute is the cluster's."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.cluster_id = inner.cluster_id

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def true_times(self, tasks):
        tracer = self._tracer
        if tracer.decided:  # first matrix read after a decision: next window
            tracer.decided = False
            tracer.window += 1
        with tracer.span("clusters.truth"):
            return self._inner.true_times(tasks)

    def true_reliabilities(self, tasks):
        with self._tracer.span("clusters.truth"):
            return self._inner.true_reliabilities(tasks)

    def true_time(self, task):
        with self._tracer.span("clusters.truth"):
            return self._inner.true_time(task)

    def true_reliability(self, task):
        with self._tracer.span("clusters.truth"):
            return self._inner.true_reliability(task)


class TracedCache(WarmStartCache):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def seed(self, key, tasks, m):
        with self._tracer.span("serve.seed"):
            return super().seed(key, tasks, m)

    def solver_config(self, key, base):
        with self._tracer.span("serve.seed"):
            return super().solver_config(key, base)

    def store(self, key, tasks, solution):
        with self._tracer.span("serve.seed"):
            return super().store(key, tasks, solution)


class TracedMemo(PredictionMemo):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def predict(self, method, tasks):
        with self._tracer.span("predictors.predict"):
            return super().predict(method, tasks)


class TracedRegistry(ModelRegistry):
    """A registry is a handle on a directory, so a second handle on the
    same directory with timed operations changes nothing it stores."""

    def __init__(self, root, tracer: Tracer) -> None:
        super().__init__(root)
        self._tracer = tracer

    def save(self, *args, **kwargs):
        with self._tracer.span("serve.registry"):
            return super().save(*args, **kwargs)

    def load_into(self, *args, **kwargs):
        with self._tracer.span("serve.registry"):
            return super().load_into(*args, **kwargs)

    def set_live(self, *args, **kwargs):
        with self._tracer.span("serve.registry"):
            return super().set_live(*args, **kwargs)


class TracedCallback(ServeCallback):
    def __init__(self, inner: ServeCallback, name: str, tracer: Tracer) -> None:
        self._inner = inner
        self._name = name
        self._tracer = tracer

    def on_window(self, snapshot) -> None:
        with self._tracer.span(self._name):
            self._inner.on_window(snapshot)

    def on_requeue(self, task_id, arrival, t) -> None:
        with self._tracer.span(self._name):
            self._inner.on_requeue(task_id, arrival, t)

    def on_finish(self, stats) -> None:
        with self._tracer.span(self._name):
            self._inner.on_finish(stats)


class TracedFleet(FleetController):
    def __init__(self, config, stack, tracer: Tracer) -> None:
        super().__init__(config, stack=stack)
        self._tracer = tracer

    def route(self, events, outages=None):
        with self._tracer.span("fleet.route"):
            return super().route(events, outages)


class Traced:
    """The traced pass's hooks (the protocol of ``workloads.Plain``)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.methods: "list[TracedMethod]" = []

    def fleet_controller(self, config, stack):
        return TracedFleet(config, stack, self.tracer)

    def method(self, method):
        proxy = TracedMethod(method, self.tracer)
        self.methods.append(proxy)
        return proxy

    def clusters(self, clusters):
        return [TracedCluster(c, self.tracer) for c in clusters]

    def cache(self):
        return TracedCache(self.tracer)

    def memo(self):
        return TracedMemo(self.tracer)

    def observe_platform(self, platform) -> None:
        """``build_platform`` wires its own observers; swap each for a
        timed stand-in through the dispatcher's public attributes."""
        dispatcher = platform.dispatcher
        names = {id(platform.monitor): "monitor.callback",
                 id(platform.controller): "retrain.callback"}
        dispatcher.callbacks = [
            TracedCallback(cb, names.get(id(cb), "serve.callback"), self.tracer)
            for cb in dispatcher.callbacks]
        dispatcher.cache = self.cache()
        dispatcher.memo = self.memo()
        registry = TracedRegistry(platform.registry.root, self.tracer)
        dispatcher.registry = platform.controller.registry = registry

    def span(self, name: str):
        return self.tracer.span(name)


# --------------------------------------------------------------------- #
# Replays and probes.
# --------------------------------------------------------------------- #


def replay(proxies: "list[TracedMethod]", decide_full_s: float,
           problems: "list[str]") -> dict:
    """Split the measured ``decide_full`` time by re-running the kept windows.

    Each kept call is made again in full, then its relaxed solve and its
    rounding are made again on their own; the three replayed totals give
    the shares, and the shares are applied to the time the run itself
    spent in ``decide_full`` — so the split does not depend on the machine
    running the replay at the speed it ran the episode.  A replay that
    takes another number of iterations than the run did is not timing the
    same work, and fails the pass.
    """
    full_s = relaxed_s = rounding_s = 0.0
    iters = 0
    for proxy in proxies:
        for args, kwargs, decision in proxy.captures:
            config = kwargs["solver"] or SERVING_SOLVER
            t0 = time.perf_counter()
            proxy.replay(args, kwargs)
            t1 = time.perf_counter()
            if kwargs["solve_mode"] == "blocks":
                solution = solve_relaxed_blocks(decision.problem, config, x0=kwargs["x0"],
                                                block_config=kwargs["block_config"])
            else:
                solution = solve_relaxed(decision.problem, config, x0=kwargs["x0"])
            t2 = time.perf_counter()
            round_assignment(solution.X, decision.problem)
            t3 = time.perf_counter()
            full_s += t1 - t0
            relaxed_s += t2 - t1
            rounding_s += t3 - t2
            iters += solution.iterations
            if solution.iterations != decision.relaxed.iterations:
                problems.append(f"replay took {solution.iterations} iterations, "
                                f"the run took {decision.relaxed.iterations}")
    relaxed = decide_full_s * relaxed_s / full_s
    rounding = decide_full_s * rounding_s / full_s
    return {
        "matching.relaxed_s": relaxed,
        "matching.rounding_s": rounding,
        "matching.us_per_iter": 1e6 * relaxed_s / max(iters, 1),
        "methods.decide_other_s": decide_full_s - relaxed - rounding,
    }


def gap_rel(proxies: "list[TracedMethod]") -> float:
    """Mean relative excess of the serving-grade objective over a
    tolerance-1e-8 reference solve, on the kept windows the budget allows."""
    gaps = []
    start = time.perf_counter()
    for proxy in proxies:
        for _, _, decision in proxy.captures:
            if len(gaps) >= 2 and time.perf_counter() - start > GAP_BUDGET_S:
                return float(np.mean(gaps))
            reference = solve_relaxed(decision.problem, REFERENCE_SOLVER).objective
            gaps.append((decision.relaxed.objective - reference)
                        / max(abs(reference), 1e-12))
    return float(np.mean(gaps))


def _per_call_ns(fn, n: int) -> float:
    t0 = time.perf_counter()
    for i in range(n):
        fn(i)
    return 1e9 * (time.perf_counter() - t0) / n


def probe_nn(feature_dim: int) -> dict:
    """Forward, and forward + backward + Adam, of one predictor-shaped MLP."""
    rng = np.random.default_rng(0)
    net = nn.MLP(feature_dim, (32, 32), 1, activation="relu", output="identity", rng=rng)
    opt = nn.Adam(net.parameters(), lr=1e-3)
    x = rng.normal(size=(32, feature_dim))
    y = rng.normal(size=32)

    def forward(_):
        with nn.no_grad():
            net(nn.Tensor(x))

    def step(_):
        opt.zero_grad()
        nn.mse_loss(net(nn.Tensor(x)).reshape(-1), y).backward()
        opt.step()

    return {"nn.forward_us": _per_call_ns(forward, 300) / 1e3,
            "nn.train_step_us": _per_call_ns(step, 150) / 1e3}


def probe_telemetry() -> dict:
    """Cost of one recorder event, one journey event and one profiler stage."""
    recorder = Recorder("jsonl", run="probe")
    journeys = JourneyRecorder(1.0)
    profiler = StageProfiler()

    def stage(_):
        with profiler.stage("probe"):
            pass

    def journey(i):
        journeys.record(i, 0.25, "admitted", 0.25, queue_depth=1)
        journeys.record(i, 0.25, "completed", 0.5, window=0, cluster_id=0, requeues=0)

    return {
        "telemetry.record_ns": _per_call_ns(
            lambda i: recorder.event("probe", window=i, value=0.5), 10000),
        "telemetry.journey_record_ns": _per_call_ns(journey, 5000) / 2,
        "telemetry.profiler_stage_ns": _per_call_ns(stage, 10000),
    }


def probe_batch_solve(episode, config) -> int:
    """Iterations of one training round's fused batch solve, assembled the
    way ``MFCP`` assembles it: instance i predicts cluster i's rows, the
    last instance is the fully measured problem."""
    ctx, method = episode.extras["ctx"], episode.extras["ad"]
    tasks = ctx.train_tasks[:config.round_size]
    T_true = np.stack([ds.t[:len(tasks)] for ds in ctx.datasets])
    A_true = np.stack([ds.a[:len(tasks)] for ds in ctx.datasets])
    truth = ctx.spec.build_problem(T_true, A_true, training=True)
    T_hat, A_hat = method.predict(tasks)
    M, N = T_true.shape
    diag = np.arange(M)
    T_stack = np.broadcast_to(T_true, (M + 1, M, N)).copy()
    A_stack = np.broadcast_to(A_true, (M + 1, M, N)).copy()
    T_stack[diag, diag] = T_hat
    A_stack[diag, diag] = A_hat
    T_b, A_b, gammas = clamp_predictions_batch(T_stack, A_stack, truth.gamma)
    batch = BatchProblem(T=T_b, A=A_b, gamma=gammas, beta=truth.beta, lam=truth.lam,
                         entropy=truth.entropy)
    s = ctx.spec.solver
    return solve_relaxed_batch(batch, lr=s.lr, max_iters=s.max_iters, tol=s.tol,
                               patience=s.patience).iterations


# --------------------------------------------------------------------- #
# Per-layer metrics of one traced episode.
# --------------------------------------------------------------------- #


def layer_metrics(inp, episode, hooks: Traced, problems: "list[str]") -> dict:
    """The per-layer metrics one traced episode supplies: the ones its
    workload is listed for in ``contract.APPLIES``, less the probes and
    the figures ``measure.run_traced`` takes from the whole pass.

    Times are raw seconds of this episode (not calibrated): the traced
    pass says where time goes, the untraced pass says how much there is.
    """
    totals = hooks.tracer.totals()

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def count(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    out = {
        "methods.decide_full_s": total("methods.decide_full"),
        "methods.decide_calls": count("methods.decide_full"),
    }

    shards = episode.shards
    fleet = episode.extras.get("fleet")
    if shards:
        wall = episode.wall_s
        decide = sum(sum(s.decide_seconds) for s in shards)
        callbacks = sum(s.callback_seconds for s in shards)
        truth_s, route_s = total("clusters.truth"), total("fleet.route")
        seed_s = total("serve.seed")
        predict_s = total("predictors.predict") or total("predictors.forward")
        loop_self = wall - decide - callbacks - truth_s - route_s
        cache = [s.cache for s in shards if s.cache]
        memo = [s.memo for s in shards if s.memo]
        proxies = hooks.methods
        out.update({
            "workloads.draw_s": inp.parts["draw_s"],
            "workloads.events": sum(len(s.events) for s in inp.streams),
            "predictors.pretrain_s": inp.parts["fit_s"],
            "clusters.truth_s": truth_s,
            "clusters.truth_calls": count("clusters.truth"),
            "predictors.predict_s": predict_s,
            "predictors.predict_calls": count("predictors.forward"),
            "serve.run_wall_s": wall,
            "serve.decide_sum_s": decide,
            "serve.loop_self_s": loop_self,
            "serve.loop_self_frac": loop_self / wall,
            "serve.cache_hit_rate": sum(c["hits"] for c in cache)
            / max(sum(c["hits"] + c["misses"] for c in cache), 1),
            "serve.memo_hit_rate": sum(m["hits"] for m in memo)
            / max(sum(m["hits"] + m["misses"] for m in memo), 1),
            "serve.windows": sum(s.windows for s in shards),
            "serve.batch_mean": float(np.mean([b for s in shards for b in s.batch_sizes])),
            "serve.shed": sum(s.shed for s in shards),
            "serve.requeued": sum(s.requeued for s in shards),
            "serve.unserved": sum(s.unserved for s in shards),
            "serve.flow_hours_mean": episode.extras["flow_hours_mean"],
            "matching.relaxed_iters": sum(sum(s.solver_iterations) for s in shards),
            "matching.converged_frac": sum(p.converged for p in proxies)
            / sum(p.decisions for p in proxies),
            "matching.blocks_mean": float(np.mean([b for p in proxies for b in p.blocks])),
        })
        out.update(replay(proxies, out["methods.decide_full_s"], problems))
        attributed = (out["matching.relaxed_s"] + out["matching.rounding_s"] + predict_s
                      + truth_s + seed_s + callbacks + route_s + loop_self)
        out["serve.attributed_frac"] = attributed / wall
        if fleet is None:  # the fleet's dispatchers build their own caches
            out["serve.seed_s"] = seed_s

    if fleet is not None:
        matched = [s.matched for s in fleet.per_shard]
        out.update({
            "fleet.route_s": total("fleet.route"),
            "fleet.run_wall_s": episode.wall_s,
            "fleet.sum_decide_s": fleet.sum_decide_s,
            "fleet.max_shard_decide_s": fleet.max_shard_decide_s,
            "fleet.overhead_s": episode.wall_s - fleet.sum_decide_s,
            "fleet.wall_over_critical": episode.wall_s / fleet.max_shard_decide_s,
            "fleet.shard_imbalance": max(matched) / (sum(matched) / len(matched)),
        })

    platform = episode.extras.get("platform")
    if platform is not None:
        counters = episode.extras["aggregate"]["counters"]

        def counter(name):
            return counters.get(name, {"value": 0.0})["value"]

        out.update({
            "serve.swaps": sum(s.swaps for s in shards),
            "serve.registry_s": total("serve.registry"),
            "retrain.callback_s": total("retrain.callback"),
            "retrain.jobs": counter("retrain/jobs"),
            "retrain.steps": counter("retrain/steps"),
            "retrain.promotions": counter("retrain/promotions"),
            "retrain.rejections": counter("retrain/rejections"),
            "monitor.callback_s": total("monitor.callback"),
            "monitor.windows_sampled": platform.monitor.summary()["attribution"]["sampled"],
            "monitor.alerts": len(platform.monitor.alert_log()),
            "telemetry.events": episode.extras["events_recorded"],
            "telemetry.log_bytes": episode.extras["log_bytes"],
            "telemetry.journey_events": platform.dispatcher.journeys.events_recorded,
        })

    timings = episode.extras.get("timings")
    if timings is not None:
        ad, fg = timings["ad"], timings["fg"]
        phases = sum(ad.values()) + sum(fg.values())
        out.update({
            "predictors.pretrain_s": ad["pretrain"] + fg["pretrain"],
            "matching.batch_solve_s": ad["solve"] + fg["solve"],
            "matching.kkt_vjp_s": ad["vjp"],
            "matching.zo_vjp_s": fg["vjp"],
            "methods.fit_ad_s": total("methods.fit_ad"),
            "methods.fit_fg_s": total("methods.fit_fg"),
            "methods.fit_unattributed_frac": 1.0 - phases / episode.wall_s,
            "methods.regret_mean": episode.extras["regret_mean"],
        })
    return out


def decide_tail(episodes) -> dict:
    """p95 and p99 over the pooled decide latencies of the untraced
    episodes, with the sample count they rest on beside them."""
    pooled = [d for ep in episodes for d in ep.decide_s]
    return {"serve.decide_p95_ms": 1e3 * percentile(pooled, 95),
            "serve.decide_p99_ms": 1e3 * percentile(pooled, 99),
            "serve.decide_samples": len(pooled)}


def merge(per_episode: "list[dict]") -> dict:
    """Mean over the traced episodes, metric by metric (a mean, so that
    the parts of a stream's wall clock still add up after merging)."""
    return {name: sum(m[name] for m in per_episode) / len(per_episode)
            for name in per_episode[0]}


def trace_path(workload: str):
    return OUT / f"{workload}.trace.jsonl"
