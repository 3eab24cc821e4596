"""P1 — micro-benchmarks of the computational kernels.

These quantify the per-call cost of the pieces Eq. (21)'s complexity
analysis counts: prediction (a predictor training step), one Algorithm-1 solve
(K₁·MN), one KKT adjoint solve, one zeroth-order estimate (S·K₂·MN), plus
the substrate (embedding, DES round).

Run: ``pytest benchmarks/bench_micro.py --benchmark-only``
"""

from __future__ import annotations

import time
import timeit

import numpy as np
import pytest

from repro.clusters import make_pool, make_setting, make_specialist_pool, truth_matrices
from repro.matching import (
    MatchingProblem,
    SolverConfig,
    ZeroOrderConfig,
    feasible_gamma,
    kkt_vjp,
    solve_branch_and_bound,
    solve_relaxed,
    solve_relaxed_blocks,
    zo_vjp,
)
from repro.matching.rounding import round_assignment
from repro.methods import TSM, MatchSpec
from repro.serve import Dispatcher, make_load
from repro.sim import simulate_matching
from repro.telemetry import Recorder
from repro.utils.rng import as_generator
from repro.workloads import GraphEmbedder, TaskPool, sample_specs


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(0)
    T = rng.uniform(0.2, 3.0, (3, 10))
    A = rng.uniform(0.6, 0.99, (3, 10))
    p = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4), entropy=0.05)
    sol = solve_relaxed(p, SolverConfig(max_iters=400))
    return p, sol


def test_relaxed_solve(benchmark, instance):
    p, _ = instance
    cfg = SolverConfig(max_iters=300)
    result = benchmark(lambda: solve_relaxed(p, cfg))
    assert result.objective < np.inf


def test_relaxed_solve_serve_shape(benchmark):
    """The serve_steady hot path: setting-A 3x16 windows at the serving
    tolerances, each solve warm-started from the previous window's
    solution.  Reports µs per Algorithm-1 iteration (``extra_info``).
    With ``--benchmark-disable`` it runs once: the CI non-timing smoke."""
    clusters = make_setting("A")
    pool = TaskPool(64, rng=0)
    rng = np.random.default_rng(1)
    problems = []
    for _ in range(20):
        tasks = [pool.tasks[i] for i in rng.choice(len(pool.tasks), 16, replace=False)]
        T, A = truth_matrices(clusters, tasks)
        problems.append(MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4)))
    cfg = SolverConfig(tol=1e-4, max_iters=400)

    def chain():
        x0, iters, trials = None, 0, 0
        for p in problems:
            sol = solve_relaxed(p, cfg, x0=x0)
            x0, iters, trials = sol.X, iters + sol.iterations, trials + sol.trials
        return iters, trials

    iters, trials = benchmark(chain)
    assert trials >= iters > 0
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_iteration"] = 1e6 * benchmark.stats["min"] / iters
        benchmark.extra_info["trials_per_iteration"] = trials / iters


@pytest.mark.parametrize("m_clusters,n_tasks,pool_size", [
    (24, 64, 256),  # the serve_wide window: four 6-cluster blocks, 9-25 tasks
    (200, 200, 512),  # padding cost at scale: four 50-cluster blocks
    (200, 400, 512),
])
def test_blocks_ragged_window(benchmark, m_clusters, n_tasks, pool_size):
    """Blocks-mode windows whose blocks have unequal task counts: five
    windows drawn from a pool, cold, at the serving tolerances.  Reports
    (``extra_info``) ``solve_relaxed_batch`` calls and groups per window,
    padding per real element and µs per window.  With
    ``--benchmark-disable`` it runs once: the CI non-timing smoke."""
    clusters = make_specialist_pool(m_clusters)
    pool = TaskPool(pool_size, rng=0).tasks
    T_all, A_all = truth_matrices(clusters, pool)
    rng = np.random.default_rng(1)
    problems = []
    for _ in range(5):
        cols = rng.choice(pool_size, n_tasks, replace=False)
        T, A = T_all[:, cols], A_all[:, cols]
        problems.append(MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5)))
    cfg = SolverConfig(tol=1e-4, max_iters=400)

    sols = benchmark(lambda: [solve_relaxed_blocks(p, cfg) for p in problems])
    assert all(s.n_blocks > s.batched_groups == 1 and s.trials >= s.iterations for s in sols)
    rec = Recorder("summary", run="bench")
    with rec.activate():
        for p in problems:
            solve_relaxed_blocks(p, cfg)
    agg = rec.aggregate()
    pad = agg["histograms"]["blocks/pad_frac"]
    assert pad["sum"] > 0  # the windows are ragged
    benchmark.extra_info["batch_calls_per_window"] = (
        agg["counters"]["batch_solve/calls"]["value"] / len(problems))
    benchmark.extra_info["groups_per_window"] = (
        agg["histograms"]["blocks/groups"]["sum"] / len(problems))
    benchmark.extra_info["blocks_per_window"] = sum(s.n_blocks for s in sols) / len(problems)
    benchmark.extra_info["pad_frac"] = pad["sum"] / pad["count"]
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_window"] = 1e6 * benchmark.stats["min"] / len(problems)


class _CountedCluster:
    """A cluster that counts the ground-truth calls made on it."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.cluster_id = inner.cluster_id
        self.calls = 0

    def true_times(self, tasks):
        self.calls += 1
        return self._inner.true_times(tasks)

    def true_reliabilities(self, tasks):
        self.calls += 1
        return self._inner.true_reliabilities(tasks)


def test_window_form_wide(benchmark):
    """Forming the serve_wide window (24 specialists x 64 tasks drawn with
    replacement) a second time: every column comes from the dispatcher's
    truth table and no cluster model is evaluated — asserted on the call
    counts, not on a time.  ``extra_info`` has µs per formed window next
    to what forming it in a fresh dispatcher costs: the median first call
    of five fresh dispatchers, each asserted to read every cluster model
    once per matrix."""
    specialists = make_specialist_pool(24)
    pool = TaskPool(256, rng=0).tasks
    window = [pool[i] for i in np.random.default_rng(1).integers(0, 256, 64)]
    fresh_s = []
    for _ in range(5):
        clusters = [_CountedCluster(c) for c in specialists]
        dispatcher = Dispatcher(clusters, TSM(), MatchSpec())  # the method is never asked
        t0 = time.perf_counter()
        T, A = dispatcher.true_matrices(window)
        fresh_s.append(time.perf_counter() - t0)
        assert [c.calls for c in clusters] == [2] * 24  # one T and one A read each
        assert dispatcher.truth.misses == 64
        assert len(dispatcher.truth) == len({t.task_id for t in window}) < 64

    again = benchmark(lambda: dispatcher.true_matrices(window))
    assert [c.calls for c in clusters] == [2] * 24
    assert dispatcher.truth.hits >= 64
    assert again[0].tobytes() == T.tobytes() and again[1].tobytes() == A.tobytes()
    assert again[0] is not T and again[0].base is None  # fresh, no view
    benchmark.extra_info["fresh_us_per_window"] = 1e6 * float(np.median(fresh_s))
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["table_us_per_window"] = 1e6 * benchmark.stats["min"]


def _chain(clusters, n_tasks: int, windows: int = 20) -> "list[MatchingProblem]":
    """Windows of ``n_tasks`` drawn from one pool, solved warm-chained."""
    pool = TaskPool(64, rng=0)
    rng = np.random.default_rng(1)
    problems = []
    for _ in range(windows):
        tasks = [pool.tasks[i] for i in rng.choice(len(pool.tasks), n_tasks, replace=False)]
        T, A = truth_matrices(clusters, tasks)
        problems.append(MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4)))
    return problems


def test_decide_path_cost():
    """What one window's decide path costs at the benchmark's serving
    shapes: µs per Algorithm-1 iteration of the scalar driver on
    warm-chained setting-A 3x16 (``serve_steady``) and 8-cluster 8x3
    (``serve_churn``) windows, µs per iteration of a 24x64 block window
    (``serve_wide``) and µs per ``TSM.predict`` of 3 tasks on 8 clusters.
    Printed (``-s``), best of five; asserted are the iteration and trial
    counts the timed calls made — equal on every repeat and to what the
    telemetry recorder counts — not the times."""
    cfg = SolverConfig(tol=1e-4, max_iters=400)

    def best_s(fn) -> float:
        return min(timeit.repeat(fn, number=1, repeat=5))

    def scalar_chain(problems):
        x0, sols = None, []
        for p in problems:
            sols.append(solve_relaxed(p, cfg, x0=x0))
            x0 = sols[-1].X
        return sols

    lines = []
    for label, problems in (("scalar 3x16", _chain(make_setting("A"), 16)),
                            ("scalar 8x3", _chain(make_pool(8, rng=3), 3))):
        sols = scalar_chain(problems)
        iters, trials = sum(s.iterations for s in sols), sum(s.trials for s in sols)
        rec = Recorder("summary", run="bench")
        with rec.activate():
            assert [(s.iterations, s.trials) for s in scalar_chain(problems)] == [
                (s.iterations, s.trials) for s in sols]
        hist = rec.aggregate()["histograms"]
        assert (hist["solve/iterations"]["sum"], hist["solve/trials"]["sum"]) == (iters, trials)
        assert trials >= iters > 10 * len(problems)
        us = 1e6 * best_s(lambda: scalar_chain(problems)) / iters
        lines.append(f"{label}: {us:.2f} us/iteration ({iters} iterations, {trials} trials)")

    (window,) = _chain(make_specialist_pool(24), 64, windows=1)
    sol = solve_relaxed_blocks(window, cfg)
    rec = Recorder("summary", run="bench")
    with rec.activate():
        again = solve_relaxed_blocks(window, cfg)
    hist = rec.aggregate()["histograms"]
    assert (again.iterations, again.trials) == (sol.iterations, sol.trials)
    assert (hist["blocks/iterations"]["sum"], hist["solve/trials"]["sum"]) == (
        sol.iterations, sol.trials)
    assert sol.trials >= sol.iterations > 10 and sol.batched_groups == 1
    us = 1e6 * best_s(lambda: solve_relaxed_blocks(window, cfg)) / sol.iterations
    lines.append(f"blocks 24x64: {us:.2f} us/iteration "
                 f"({sol.iterations} iterations, {sol.trials} trials)")

    from repro.methods import FitContext
    from repro.predictors.training import TrainConfig

    train, _ = TaskPool(40, rng=0).split(0.7, rng=1)
    tsm = TSM(TrainConfig(epochs=2)).fit(
        FitContext.build(make_pool(8, rng=3), train, MatchSpec(), rng=2))
    tasks = train[:3]
    T_hat, A_hat = tsm.predict(tasks)
    assert T_hat.shape == A_hat.shape == (8, 3)
    lines.append(f"TSM.predict 8x3: {1e6 * best_s(lambda: tsm.predict(tasks)):.1f} us/call")
    print("\n" + "\n".join(lines))


def test_load_draw():
    """What set-up's per-item draws cost: µs per arrival of each load
    shape at ``serve_steady``'s pool (64 tasks) and rate (60/h), and the
    seconds of one ``FitContext.build`` measuring 154 tasks on the 24
    specialist clusters (``serve_wide``'s set-up).  Printed (``-s``), best
    of five; asserted is that every repeat draws and measures the same
    values, not the times."""
    from repro.methods import FitContext

    def best_s(fn) -> float:
        return min(timeit.repeat(fn, number=1, repeat=5))

    pool = TaskPool(64, rng=0)
    lines = []
    for pattern in ("poisson", "bursty", "diurnal"):
        load = make_load(pattern, pool, 60.0)
        events = [(t, task.task_id) for t, task in load.draw(120.0, as_generator(3))]
        assert len(events) > 3000 and events == [
            (t, task.task_id) for t, task in load.draw(120.0, as_generator(3))]
        us = 1e6 * best_s(lambda: load.draw(120.0, as_generator(3))) / len(events)
        lines.append(f"{pattern} draw: {us:.2f} us/arrival ({len(events)} arrivals)")

    train, _ = TaskPool(256, rng=0).split(0.6, rng=1)
    clusters = make_specialist_pool(24)

    def build():
        return FitContext.build(clusters, train, MatchSpec(), rng=2)

    first, again = build(), build()
    assert len(train) == 154 and all(
        x.t.tobytes() == y.t.tobytes() and x.a.tobytes() == y.a.tobytes()
        for x, y in zip(first.datasets, again.datasets))
    lines.append(f"FitContext.build 24x154: {1e3 * best_s(build):.1f} ms")
    print("\n" + "\n".join(lines))


def test_journey_emission(tmp_path):
    """What a journey costs from its first event to the run log: µs per
    journey event (``record_many`` + flush into a JSONL recorder, five
    events per task as the closed loop records them: admitted,
    dispatched, scheduled, harvested, completed; 200 windows of 8 tasks)
    and µs per line of the run-log write (encode + file).  Printed
    (``-s``), best of five; asserted are the event and line counts, not
    the times."""
    import io

    from repro.telemetry.journey import JourneyRecorder

    windows, k = 200, 8

    def record():
        rec = Recorder("jsonl", run="journeys", out_dir=tmp_path, stream=io.StringIO())
        jt = JourneyRecorder(1.0)
        with rec.activate():
            for w in range(windows):
                keys = [(w * k + j, w + j / k) for j in range(k)]
                for tid, arrival in keys:
                    jt.record(tid, arrival, "admitted", arrival, queue_depth=1)
                decided = {"window": w, "batch": k, "seed": "cache",
                           "solve_mode": "scalar", "iterations": 40}
                jt.record_many((tid, arrival, "dispatched", w + 1.0,
                                {**decided, "wait_hours": w + 1.0 - arrival})
                               for tid, arrival in keys)
                jt.record_many((tid, arrival, "scheduled", w + 1.0,
                                {"window": w, "cluster_id": 1, "start": w + 1.0,
                                 "end": w + 1.5, "requeues": 0})
                               for tid, arrival in keys)
                harvested = {"window": w, "buffer_size": w * k}
                jt.record_many((tid, arrival, "harvested", w + 1.0, harvested)
                               for tid, arrival in keys)
                jt.record_many((tid, arrival, "completed", w + 1.5,
                                {"window": w, "cluster_id": 1, "requeues": 0})
                               for tid, arrival in keys)
        return rec, jt

    events = windows * k * 5
    record_s = write_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        rec, jt = record()
        t1 = time.perf_counter()
        path = rec.close()
        record_s, write_s = min(record_s, t1 - t0), min(write_s, time.perf_counter() - t1)
        assert jt.events_recorded == rec.events_recorded == events
        assert jt.journeys_emitted == windows * k
        assert len(path.read_text().splitlines()) == events + 1  # + the meta header
    record_us, line_us = 1e6 * record_s / events, 1e6 * write_s / (events + 1)
    print(f"\njourney event (record + flush): {record_us:.2f} us"
          f"\nrun-log line (encode + write): {line_us:.2f} us"
          f"\njourney event, record to file: {record_us + line_us:.2f} us")


def test_rounding(benchmark, instance):
    p, sol = instance
    X = benchmark(lambda: round_assignment(sol.X, p))
    assert X.sum() == p.N


@pytest.fixture(scope="module")
def wide_instance():
    """The serve_wide window shape: 24 specialist clusters x 64 tasks."""
    clusters = make_specialist_pool(24)
    tasks = TaskPool(64, rng=0).tasks
    T, A = truth_matrices(clusters, tasks)
    p = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.4))
    return p, solve_relaxed(p, SolverConfig(max_iters=400))


def test_rounding_wide(benchmark, wide_instance):
    p, sol = wide_instance
    X = benchmark(lambda: round_assignment(sol.X, p))
    assert X.sum() == p.N


def test_branch_and_bound(benchmark, instance):
    p, _ = instance
    result = benchmark(lambda: solve_branch_and_bound(p))
    assert result.feasible


def test_kkt_vjp(benchmark, instance):
    p, sol = instance
    gX = np.random.default_rng(1).normal(size=(p.M, p.N))
    out = benchmark(lambda: kkt_vjp(sol.X, p, gX))
    assert np.all(np.isfinite(out.dT))


def test_zero_order_vjp(benchmark, instance):
    p, sol = instance
    gX = np.random.default_rng(1).normal(size=(p.M, p.N))
    cfg = ZeroOrderConfig(samples=8, delta=0.05, warm_start_iters=50)
    out = benchmark(lambda: zo_vjp(p, sol, 0, gX, cfg, rng=2))
    assert np.all(np.isfinite(out.dt))


def test_zo_vjp_cross():
    """MFCP-FG's adjoint at ``train_mfcp``'s shape: K = 8 base instances
    of 8 clusters x 20 tasks (instance k predicts cluster k's rows), S = 8
    samples, one float32 batch of 128 perturbed solves warm-started for 60
    iterations.  Printed (``-s``): µs per call, best of five, and one
    call's tracemalloc peak; asserted are the solve count and that
    repeated calls return the same bytes, not the figures."""
    import tracemalloc

    from repro.matching import BatchProblem, clamp_predictions_batch, solve_relaxed_batch
    from repro.matching import zo_vjp_cross

    rng = np.random.default_rng(0)
    K = M = 8
    N = 20
    T_true, A_true = rng.uniform(0.2, 2.5, (M, N)), rng.uniform(0.55, 0.99, (M, N))
    truth = MatchSpec().build_problem(T_true, A_true, training=True)
    T, A = np.broadcast_to(T_true, (K, M, N)).copy(), np.broadcast_to(A_true, (K, M, N)).copy()
    diag = np.arange(K)
    T[diag, diag] *= rng.uniform(0.7, 1.3, (K, N))
    A[diag, diag] += rng.normal(0.0, 0.05, (K, N))
    T_b, A_b, gammas = clamp_predictions_batch(T, A, truth.gamma)
    batch = BatchProblem(T=T_b, A=A_b, gamma=gammas, beta=truth.beta, lam=truth.lam,
                         entropy=truth.entropy)
    scfg = MatchSpec().solver
    X = solve_relaxed_batch(batch, lr=scfg.lr, max_iters=scfg.max_iters, tol=scfg.tol,
                            patience=scfg.patience).X
    gX = rng.normal(size=X.shape) / N
    cfg = ZeroOrderConfig(samples=8, delta=0.05, warm_start_iters=60)

    def call():
        return zo_vjp_cross(batch, X, diag, gX, cfg, solver_config=scfg, rng=2)

    first = call()
    tracemalloc.start()
    again = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert first.solves == 128
    assert (again.dt.tobytes(), again.da.tobytes()) == (first.dt.tobytes(), first.da.tobytes())
    us = 1e6 * min(timeit.repeat(call, number=1, repeat=5))
    print(f"\nzo_vjp_cross (8 instances x 8 clusters x 20 tasks, 128 float32 solves): "
          f"{us:.0f} us/call, tracemalloc peak {peak / 1e6:.2f} MB")


def test_refit_step(benchmark):
    """One :class:`StepwiseTrainer` step at H = 1, the closed loop's unit
    of retraining: a minibatch of 32 through a (32, 32) time head, its
    VJP and the Adam update.  Reports µs per step (``extra_info``)."""
    from repro.predictors import TimePredictor
    from repro.predictors.training import StepwiseTrainer, TrainConfig

    Z = np.stack([t.features for t in TaskPool(64, rng=0).tasks])
    t = np.exp(np.random.default_rng(1).normal(size=len(Z)) * 0.4)
    trainer = StepwiseTrainer(TimePredictor(Z.shape[1], (32, 32), rng=0), Z, t,
                              TrainConfig(epochs=100_000), rng=2)
    assert np.isfinite(benchmark(trainer.step))
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_step"] = 1e6 * benchmark.stats["min"]


def test_pretrain_bank(benchmark):
    """The ``train_mfcp`` warm start: 8 clusters x 2 heads as two stacked
    banks, n = 112 measured tasks, 10 epochs of 4 minibatches.  The timed
    call is ``fit_pairs``, which trains a reliability bank of at least
    ``FORK_HEAD_STEPS`` head-steps in a forked worker (this one, 320, stays
    in process), so ``extra_info`` reports its wall (``fit_ms``) apart from
    µs per head per minibatch step of one bank's ``run_steps`` in this
    process, its heads and trainer built outside the clock
    (``us_per_head_step``): a fit's wall over both banks' steps would halve
    wherever the fork runs while no step got cheaper.  With
    ``--benchmark-disable`` it runs once: the CI non-timing smoke."""
    from repro.methods import FitContext, MatchSpec
    from repro.predictors import BankTrainer, TimePredictor, fit_pairs
    from repro.predictors.training import TrainConfig

    train, _ = TaskPool(160, rng=0).split(0.7, rng=1)
    ctx = FitContext.build(make_pool(8, rng=3), train, MatchSpec(), rng=2)
    cfg = TrainConfig(epochs=10)

    pairs = benchmark(lambda: fit_pairs(
        ctx.datasets, ctx.feature_dim, (32, 32), ctx.standardizer, cfg,
        np.random.default_rng(5)))
    assert len(train) == 112 and len(pairs) == 8
    Z = ctx.features(train[:5])
    assert all(np.isfinite(p.predict(Z)).all() for p in pairs)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["fit_ms"] = 1e3 * benchmark.stats["min"]

        def time_bank_s():
            heads = [TimePredictor(ctx.feature_dim, (32, 32), standardizer=ctx.standardizer,
                                   rng=h) for h in range(len(pairs))]
            trainer = BankTrainer(heads, [ds.Z for ds in ctx.datasets],
                                  [ds.t for ds in ctx.datasets], cfg,
                                  list(range(len(pairs))), loss="log_mse")
            t0 = time.perf_counter()
            trainer.run_steps(trainer.total_steps)
            return time.perf_counter() - t0

        head_steps = len(pairs) * cfg.epochs * -(-len(train) // cfg.batch_size)
        best = min(time_bank_s() for _ in range(5))
        benchmark.extra_info["us_per_head_step"] = 1e6 * best / head_steps


def test_graph_embedding(benchmark):
    specs = sample_specs(8, rng=5)
    embedder = GraphEmbedder()
    Z = benchmark(lambda: embedder.embed_specs(specs))
    assert Z.shape == (8, embedder.feature_dim)


def test_discrete_event_round(benchmark):
    pool = TaskPool(16, rng=6)
    clusters = make_setting("A")
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, len(pool))
    from repro.matching.rounding import assignment_from_labels

    X = assignment_from_labels(labels, 3)
    result = benchmark(lambda: simulate_matching(clusters, pool.tasks, X))
    assert result.makespan > 0


def _mfcp_core_seconds(gradient: str, *, epochs: int) -> float:
    """Fit MFCP once at M=8 clusters, N=20 tasks per round; the regret-
    training core's seconds (fit wall clock − pretrain − validation).  The
    gate for training speed end to end is the platform benchmark's
    ``train_mfcp`` workload."""
    from repro.methods import MFCP, MFCPConfig, MatchSpec, FitContext
    from repro.predictors.training import TrainConfig

    train, _ = TaskPool(80, rng=21).split(0.7, rng=1)
    ctx = FitContext.build(make_pool(8, rng=3), train, MatchSpec(), rng=2)
    method = MFCP(gradient, MFCPConfig(
        epochs=epochs, round_size=20, pretrain=TrainConfig(epochs=40),
        zero_order=ZeroOrderConfig(samples=8, delta=0.05, warm_start_iters=60),
        validation_rounds=0,
    ))
    t0 = time.perf_counter()
    method.fit(ctx)
    total = time.perf_counter() - t0
    return total - method.timings.get("pretrain", 0.0) - method.timings.get("validation", 0.0)


# --------------------------------------------------------------------- #
# Telemetry overhead gate: with telemetry off (the default), the
# instrumented call sites must cost < 2% of a training epoch.  We bound
# the overhead from above: count the events an identical fit records when
# a recorder IS active, microbenchmark the cost of one disabled
# instrument call (one contextvar read + one branch — the hot solver
# loops hoist even that, so this overestimates), and compare the product
# against the off-mode core time.
# --------------------------------------------------------------------- #


def measure_telemetry_overhead(
    gradient: str = "analytic", *, epochs: int = 2, repeats: int = 3
) -> dict:
    from io import StringIO

    from repro import telemetry

    off_core = min(_mfcp_core_seconds(gradient, epochs=epochs) for _ in range(repeats))

    sink = StringIO()
    with telemetry.recording(mode="summary", run="bench_overhead", stream=sink) as rec:
        _mfcp_core_seconds(gradient, epochs=epochs)
        events = rec.events_recorded

    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        telemetry.counter_add("bench/noop")
    noop_s = (time.perf_counter() - t0) / n

    bound_s = events * noop_s
    return {
        "off_core_s": round(off_core, 4),
        "events_per_fit": int(events),
        "noop_call_ns": round(noop_s * 1e9, 1),
        "overhead_bound_s": round(bound_s, 6),
        "overhead_frac": round(bound_s / off_core, 6),
    }


def test_telemetry_off_overhead_smoke():
    """Gate (CI): disabled telemetry adds < 2% to a training epoch."""
    rec = measure_telemetry_overhead("analytic", epochs=2, repeats=2)
    assert rec["events_per_fit"] > 0, "instrumentation recorded nothing"
    assert rec["overhead_frac"] < 0.02, (
        f"telemetry off-mode overhead bound {100 * rec['overhead_frac']:.2f}% "
        f"exceeds 2% ({rec['events_per_fit']} events x {rec['noop_call_ns']} ns "
        f"vs {rec['off_core_s']} s core)"
    )
