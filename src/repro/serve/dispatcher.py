"""Event-driven micro-batching dispatcher: the platform's serving loop.

The offline experiments answer "match these N tasks once"; a deployed
exchange platform answers "keep matching whatever arrives, forever".  This
module provides that loop over simulated time:

- **admission control** — a bounded queue with two deterministic shedding
  policies (``"reject"`` drops the incoming job, ``"drop_oldest"`` evicts
  the longest-waiting admitted job), so the queue depth is bounded by
  construction under any overload;
- **micro-batching windows** — a window closes on whichever trigger fires
  first: the queue reaching ``max_batch`` (size trigger) or the oldest
  queued job waiting ``max_wait_hours`` (time trigger).  A configurable
  per-window ``dispatch_overhead_hours`` models the platform-side decision
  cost and creates genuine backpressure: while the dispatcher is "busy",
  arrivals accumulate and shedding can kick in;
- **cluster dropout/rejoin** — an :class:`Outage` takes a cluster out of
  the matchable set; jobs scheduled on it that had not finished are
  *orphaned* and re-queued at the front of the admission queue (re-queues
  bypass the capacity check and are never shed, so dropout loses zero
  tasks).  On rejoin the cluster starts clean at the rejoin time;
- **warm-started solves** — each window's relaxed solve is seeded from the
  :class:`~repro.serve.cache.WarmStartCache` (previous window's columns +
  step memory) and predictor forwards come from the
  :class:`~repro.serve.cache.PredictionMemo`;
- **checkpoint hot-swap** — a ``swap_schedule`` mapping window index →
  registry version reloads predictor weights *between* windows and bumps
  the memo, modelling periodic retraining without stopping the loop; a
  serving observer (the :mod:`repro.retrain` controller) can instead call
  :meth:`Dispatcher.request_swap` mid-run, which applies at the start of
  the next dispatched window through the same mechanics.  Every applied
  swap leaves a ``serve/hot_swap`` breadcrumb carrying the checkpoint's
  deterministic weights digest, so swapped runs stay replayable.

Everything is driven by seeded RNG streams and processed in a fixed event
order, so a run is bit-reproducible: :meth:`ServeStats.trace_bytes` is the
canonical assignment trace two equal-seed runs must agree on byte-for-byte
(wall-clock decide latencies are kept out of the trace for that reason).
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.clusters.cluster import Cluster
from repro.matching.objectives import reliability_value
from repro.matching.rounding import labels_from_assignment
from repro.methods.base import BaseMethod, MatchSpec
from repro.serve.cache import PredictionMemo, WarmStartCache, make_cache_key
from repro.serve.registry import ModelRegistry
from repro.telemetry import ITER_BUCKETS, SIZE_BUCKETS, TIME_BUCKETS_S, get_recorder
from repro.telemetry.profiler import NULL_PROFILER, StageProfiler
from repro.utils.rng import as_generator
from repro.workloads.taskpool import Task

__all__ = [
    "Outage",
    "DispatcherConfig",
    "ServeRecord",
    "ServeStats",
    "WindowSnapshot",
    "ServeCallback",
    "Dispatcher",
]

_EPS = 1e-12


@dataclass(frozen=True)
class Outage:
    """One cluster unavailability interval [start, end) in platform hours."""

    cluster_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"need 0 <= start < end, got [{self.start}, {self.end})")


@dataclass(frozen=True)
class DispatcherConfig:
    """Operating parameters of the serving loop."""

    max_batch: int = 32  # size trigger: dispatch as soon as this many queue up
    max_wait_hours: float = 0.25  # time trigger: oldest admitted job's max wait
    queue_capacity: int = 256  # admission bound (re-queues are exempt)
    shed_policy: str = "reject"  # "reject" | "drop_oldest"
    #: Simulated platform-side decision cost per window.  While a window is
    #: being decided the dispatcher accepts no new window, so arrivals pile
    #: up — this is what makes overload (and shedding) reachable.
    dispatch_overhead_hours: float = 0.0
    failures: bool = True
    jitter_std: float = 0.0  # execution-time lognormal jitter (0 = deterministic)
    warm_start: bool = True
    memoize_predictions: bool = True
    #: ``"scalar"`` = one dense solve per window (the historical path,
    #: byte-identical traces); ``"blocks"`` = decompose into viability
    #: components and solve them as one batched float32 instance
    #: (:func:`repro.matching.blocks.solve_relaxed_blocks`).
    solve_mode: str = "scalar"
    #: Seed cache-miss windows from the learned warm-start head (the
    #: dispatcher's ``warm_model``) instead of going cold.
    learned_seeds: bool = False
    #: Per-task journey tracing (:mod:`repro.telemetry.journey`).  The
    #: kept fraction of uneventful journeys; shed / requeued / long-wait
    #: journeys are always kept.  ``0.0`` disables tracing entirely (one
    #: ``is not None`` check per decision point — and journeys never
    #: touch the RNG or the records, so the trace stays byte-identical
    #: either way).
    journey_sample: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch <= 0 or self.queue_capacity <= 0:
            raise ValueError("max_batch and queue_capacity must be positive")
        if self.max_wait_hours <= 0:
            raise ValueError("max_wait_hours must be positive")
        if self.shed_policy not in ("reject", "drop_oldest"):
            raise ValueError(f"unknown shed_policy {self.shed_policy!r}")
        if not 0.0 <= self.journey_sample <= 1.0:
            raise ValueError(
                f"journey_sample must be in [0, 1], got {self.journey_sample}")
        if self.dispatch_overhead_hours < 0 or self.jitter_std < 0:
            raise ValueError("dispatch_overhead_hours and jitter_std must be >= 0")
        if self.solve_mode not in ("scalar", "blocks"):
            raise ValueError(f"solve_mode must be 'scalar' or 'blocks', "
                             f"got {self.solve_mode!r}")


@dataclass(frozen=True)
class ServeRecord:
    """Final execution record of one served task (its last dispatch)."""

    task_id: int
    window: int
    cluster_id: int
    arrival: float
    dispatched: float
    start: float
    end: float
    success: bool
    requeues: int


@dataclass
class ServeStats:
    """Aggregate outcome of a dispatcher run."""

    arrived: int = 0
    matched: int = 0  # dispatches, counting re-dispatch after requeue
    completed: int = 0
    failed: int = 0
    shed: int = 0
    requeued: int = 0
    unserved: int = 0  # still queued when the run ended (no cluster up)
    windows: int = 0
    swaps: int = 0
    max_queue_depth: int = 0
    total_wait_hours: float = 0.0
    total_flow_hours: float = 0.0
    decide_seconds: list[float] = field(default_factory=list, repr=False)
    #: One dict per applied hot-swap: ``{window, version, digest, reason}``.
    #: Simulated-window quantities only, so a replay must reproduce the
    #: sequence exactly (checked by ``TraceReplay.verify``).
    swap_events: list[dict] = field(default_factory=list, repr=False)
    #: Wall-clock seconds spent inside serve callbacks (snapshot build +
    #: observer work); 0.0 when no callbacks are registered.  Excluded
    #: from the canonical trace — wall clock never enters
    #: :meth:`trace_bytes`.
    callback_seconds: float = 0.0
    solver_iterations: list[int] = field(default_factory=list, repr=False)
    batch_sizes: list[int] = field(default_factory=list, repr=False)
    #: Windows by warm-start seed source: ``{"cache": n, "learned": n,
    #: "cold": n}`` (default-pipeline windows only).
    seed_sources: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    memo: dict = field(default_factory=dict)
    #: Latency budget from an attached :class:`StageProfiler`
    #: (:meth:`StageProfiler.budget`); empty when profiling is off.
    #: Wall-clock only — never part of :meth:`trace_bytes`.
    profile: dict = field(default_factory=dict, repr=False)
    records: list[ServeRecord] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------ #

    @property
    def conserved(self) -> bool:
        """No task lost: every arrival is served, shed, or still queued."""
        return self.arrived == self.completed + self.failed + self.shed + self.unserved

    @property
    def mean_wait_hours(self) -> float:
        served = self.completed + self.failed
        if served == 0:
            raise ValueError("no served jobs")
        return self.total_wait_hours / served

    @property
    def mean_flow_hours(self) -> float:
        served = self.completed + self.failed
        if served == 0:
            raise ValueError("no served jobs")
        return self.total_flow_hours / served

    @property
    def mean_solver_iterations(self) -> float:
        if not self.solver_iterations:
            raise ValueError("no solver windows recorded")
        return float(np.mean(self.solver_iterations))

    def latency_percentiles(self, qs: Sequence[float] = (50, 95, 99)) -> dict:
        """Wall-clock assignment (decide) latency percentiles in seconds."""
        if not self.decide_seconds:
            return {f"p{int(q)}": 0.0 for q in qs}
        arr = np.asarray(self.decide_seconds)
        return {f"p{int(q)}": float(np.percentile(arr, q)) for q in qs}

    def trace_bytes(self) -> bytes:
        """Canonical byte serialization of the assignment trace.

        Contains only simulated-time quantities (never wall clock), so two
        equal-seed runs must produce identical bytes — the determinism
        soak test's contract.
        """
        lines = [
            f"{r.task_id},{r.window},{r.cluster_id},{r.arrival:.12g},"
            f"{r.dispatched:.12g},{r.start:.12g},{r.end:.12g},"
            f"{int(r.success)},{r.requeues}"
            for r in self.records
        ]
        return "\n".join(lines).encode()

    def summary(self) -> str:
        pct = self.latency_percentiles()
        return (
            f"windows={self.windows} arrived={self.arrived} done={self.completed} "
            f"failed={self.failed} shed={self.shed} requeued={self.requeued} "
            f"unserved={self.unserved} max_depth={self.max_queue_depth} "
            f"p95_decide={pct['p95'] * 1e3:.1f}ms"
        )


@dataclass(frozen=True)
class WindowSnapshot:
    """Everything one dispatched window exposes to serving observers.

    Handed to :class:`ServeCallback.on_window` right after the window's
    jobs are scheduled.  All quantities are simulated-time (no wall
    clock), so anything derived from a snapshot stream is replayable:
    the same arrival log re-driven through the dispatcher yields the
    same snapshot sequence.  Matrix rows follow ``cluster_ids`` (the
    clusters that were up for this window); per-task arrays follow
    ``task_ids`` (the window's batch order).

    ``T_hat``/``A_hat`` are the predicted matrices the decision used —
    ``None`` for methods with a custom ``decide`` override that never
    predicts.  ``realized_hours`` is the *busy* time each job actually
    occupied its cluster (execution jitter included; truncated for
    failed jobs), i.e. what a real platform would observe, while
    ``T``/``A`` carry the ground-truth expectations.
    """

    window: int
    time: float  # dispatch time in platform hours
    cluster_ids: tuple[int, ...]
    task_ids: tuple[int, ...]
    T: np.ndarray  # true expected times, shape (m, k)
    A: np.ndarray  # true reliabilities, shape (m, k)
    T_hat: "np.ndarray | None"  # predicted times (m, k) or None
    A_hat: "np.ndarray | None"
    X: np.ndarray  # executed binary assignment, shape (m, k)
    gamma: float  # reliability threshold of the window's problem
    reliability_slack: float  # g(X, A_true) - gamma of the executed matching
    arrival: np.ndarray  # per-task arrival hour, shape (k,)
    start: np.ndarray  # per-task execution start hour
    end: np.ndarray  # per-task execution end hour
    realized_hours: np.ndarray  # per-task busy time actually consumed
    success: np.ndarray  # per-task bool outcome
    requeues: np.ndarray  # per-task prior requeue count
    queue_depth: int  # admission queue depth after the batch left
    arrived_total: int  # cumulative arrivals when the window closed
    shed_total: int  # cumulative sheds when the window closed
    #: Raw (unstandardized) task feature matrix, shape (k, d) in
    #: ``task_ids`` order — what the label harvester of the retraining
    #: loop pairs with ``realized_hours``/``success`` to form training
    #: examples.  ``None`` only for snapshots built by old code paths.
    features: "np.ndarray | None" = None
    #: Relaxed interior solution of the window's decision solve, shape
    #: (m, k) — the soft assignment columns the learned warm-start
    #: trainer (:mod:`repro.retrain.warmstart`) harvests as labels.
    #: ``None`` for custom-``decide`` methods (no relaxed solve ran).
    X_relaxed: "np.ndarray | None" = None

    @property
    def batch_size(self) -> int:
        return len(self.task_ids)

    @property
    def wait_hours(self) -> np.ndarray:
        """Per-task admission-to-dispatch wait."""
        return self.time - self.arrival


class ServeCallback:
    """No-op observer base for the serving loop.

    The monitor layer (:mod:`repro.monitor`) subclasses this; the
    dispatcher itself depends on nothing above :mod:`repro.serve`.  With
    no callbacks registered the dispatcher skips snapshot construction
    entirely — the disabled mode costs one truthiness check per window,
    mirroring the :class:`repro.telemetry.NullRecorder` pattern.
    """

    def on_window(self, snapshot: WindowSnapshot) -> None:
        """One micro-batch window was dispatched and scheduled."""

    def on_requeue(self, task_id: int, arrival: float, t: float) -> None:
        """A scheduled task was orphaned by a dropout and re-queued.

        Its earlier dispatch never completed, so any label derived from
        that dispatch's snapshot is void — the retraining loop's harvester
        uses this hook to discard it before it can time-travel into a
        training set.
        """

    def on_finish(self, stats: "ServeStats") -> None:
        """The run drained; ``stats`` is final (records sorted)."""


@dataclass
class _Queued:
    task: Task
    arrival: float
    enqueued_at: float
    requeues: int = 0


@dataclass
class _Scheduled:
    task: Task
    window: int
    cluster_id: int
    arrival: float
    dispatched: float
    start: float
    end: float
    success: bool
    requeues: int


class Dispatcher:
    """Continuously operating micro-batching matchmaker (module docstring)."""

    def __init__(
        self,
        clusters: "list[Cluster]",
        method: BaseMethod,
        spec: MatchSpec,
        config: DispatcherConfig | None = None,
        *,
        cache: WarmStartCache | None = None,
        memo: PredictionMemo | None = None,
        registry: ModelRegistry | None = None,
        swap_schedule: "dict[int, str] | None" = None,
        callbacks: "Sequence[ServeCallback] | None" = None,
        warm_model=None,
        block_config=None,
        profiler: "StageProfiler | None" = None,
    ) -> None:
        if not clusters:
            raise ValueError("clusters must be non-empty")
        if swap_schedule and registry is None:
            raise ValueError("swap_schedule requires a registry")
        self.clusters = list(clusters)
        self.method = method
        self.spec = spec
        self.config = config or DispatcherConfig()
        # Explicit None checks: an *empty* cache/memo is falsy (len == 0),
        # so `cache or WarmStartCache()` would discard a caller's instance.
        if not self.config.warm_start:
            self.cache = None
        else:
            self.cache = WarmStartCache() if cache is None else cache
        if not self.config.memoize_predictions:
            self.memo = None
        else:
            self.memo = PredictionMemo() if memo is None else memo
        self.registry = registry
        self.swap_schedule = dict(swap_schedule or {})
        #: Learned warm-start head (``seed(tasks, cluster_ids)`` protocol,
        #: see :class:`repro.serve.warmstart.WarmStartHead`).  Consulted on
        #: cache misses when ``config.learned_seeds`` is set; installed
        #: here by the :class:`repro.retrain.warmstart.WarmStartTrainer`
        #: callback or loaded from a registry checkpoint on hot-swap.
        self.warm_model = warm_model
        #: Decomposition knobs for ``solve_mode="blocks"`` (``None`` uses
        #: :class:`repro.matching.blocks.BlockConfig` defaults).
        self.block_config = block_config
        #: Bumped on every applied hot-swap; observers holding labels
        #: harvested from pre-swap windows key invalidation off this.
        self.swap_epoch = 0
        #: Swap requested mid-run (``(version, reason)``), applied at the
        #: start of the next dispatched window.
        self._pending_swap: "tuple[str, str] | None" = None
        #: Latency-budget profiler (:mod:`repro.telemetry.profiler`).
        #: ``None`` disables profiling: the hooks degrade to the shared
        #: no-op :data:`NULL_PROFILER` (a few calls per window).  The
        #: profiler records wall clock only and draws no randomness, so
        #: attaching it never changes the assignment trace.
        self.profiler = profiler
        #: Per-task journey tracer (:mod:`repro.telemetry.journey`), or
        #: ``None`` when ``config.journey_sample == 0`` — call sites pay
        #: one ``is not None`` check in the disabled mode.  Long-wait
        #: journeys are force-kept from 4x the window wait trigger: a
        #: task that outwaited four dispatch deadlines is tail, not noise.
        self.journeys: "JourneyRecorder | None" = None
        if self.config.journey_sample > 0.0:
            from repro.telemetry.journey import JourneyRecorder

            self.journeys = JourneyRecorder(
                self.config.journey_sample,
                slo_wait_hours=4.0 * self.config.max_wait_hours)
        self.callbacks: "list[ServeCallback]" = list(callbacks or ())
        # The warm-start/memo hooks only apply to methods running the
        # default predict→solve→round pipeline; custom decide() overrides
        # (e.g. Oracle) are dispatched as-is.
        self._default_decide = type(method).decide is BaseMethod.decide

    # ------------------------------------------------------------------ #

    def request_swap(self, version: str, *, reason: str = "retrain") -> None:
        """Queue a checkpoint hot-swap for the next dispatched window.

        The closed-loop retrainer calls this from inside a serve callback
        (i.e. mid-window); applying the swap immediately would tear the
        weights out from under the window being observed, so it is
        deferred to the next window's dispatch — the same boundary
        ``swap_schedule`` swaps at.  A second request before the next
        window replaces the first (last writer wins).
        """
        if self.registry is None:
            raise ValueError("request_swap requires a registry")
        self._pending_swap = (str(version), str(reason))

    def run(
        self,
        events: "Iterable[tuple[float, Task]]",
        rng: "np.random.Generator | int | None" = None,
        outages: "Sequence[Outage] | None" = None,
    ) -> ServeStats:
        """Consume an arrival stream to exhaustion and return statistics.

        ``events`` is a time-ordered (or orderable) iterable of
        ``(arrival_hour, task)`` pairs, e.g. from
        :mod:`repro.serve.loadgen`; ``outages`` take clusters down and
        back up at fixed times.  The queue is flushed at the end of the
        stream; only tasks with no up cluster left remain ``unserved``.
        """
        cfg = self.config
        rng = as_generator(rng)
        stats = ServeStats()
        rec = get_recorder()
        prof = self.profiler if self.profiler is not None else NULL_PROFILER
        jt = self.journeys

        # Merged primary event list.  Priority orders simultaneous events
        # deterministically: rejoins first (capacity returns), then
        # arrivals, then dropouts.
        evs: list[tuple[float, int, int, str, object]] = []
        for i, (t, task) in enumerate(events):
            evs.append((float(t), 1, i, "arrive", task))
        for i, o in enumerate(outages or ()):
            if not any(c.cluster_id == o.cluster_id for c in self.clusters):
                raise ValueError(f"outage for unknown cluster {o.cluster_id}")
            evs.append((o.end, 0, i, "up", o.cluster_id))
            evs.append((o.start, 2, i, "down", o.cluster_id))
        evs.sort(key=lambda e: (e[0], e[1], e[2]))

        # Replay breadcrumbs (JSONL mode): the outage schedule up front,
        # one event per arrival below — together with the run header they
        # are what :class:`repro.monitor.replay.TraceReplay` inverts back
        # into an arrival stream + outage schedule.
        if rec.enabled:
            for o in outages or ():
                rec.event("serve/outage", cluster_id=o.cluster_id,
                          start=o.start, end=o.end)

        queue: "deque[_Queued]" = deque()
        down: set[int] = set()
        free_at = {c.cluster_id: 0.0 for c in self.clusters}
        schedule: dict[int, list[_Scheduled]] = {c.cluster_id: [] for c in self.clusters}
        busy_until = 0.0
        t_last = 0.0
        # Last simulated time the up-set changed (dropout or rejoin).  No
        # dispatch may predate it: a window that ripened while every
        # cluster was down must wait for the rejoin, and orphans requeued
        # by a dropout must not be re-dispatched before the dropout.
        fleet_changed_at = 0.0

        def any_up() -> bool:
            return len(down) < len(self.clusters)

        def note_depth() -> None:
            stats.max_queue_depth = max(stats.max_queue_depth, len(queue))

        def ripe_at() -> "float | None":
            """Earliest simulated time the next window can dispatch."""
            if not queue or not any_up():
                return None
            if len(queue) >= cfg.max_batch:
                # Size-triggered: as soon as not busy, but never before
                # every job of the would-be batch (the queue's first
                # max_batch entries) was enqueued — else the trace would
                # record dispatched < arrival.
                newest = max(q.enqueued_at for q in islice(queue, cfg.max_batch))
                return max(busy_until, newest, fleet_changed_at)
            earliest = min(q.enqueued_at for q in queue)
            return max(earliest + cfg.max_wait_hours, busy_until, fleet_changed_at)

        def shed_one() -> None:
            stats.shed += 1
            if rec.enabled:
                rec.counter_add("serve/shed")

        def admit(task: Task, now: float) -> None:
            stats.arrived += 1
            if len(queue) >= cfg.queue_capacity:
                if cfg.shed_policy == "reject":
                    shed_one()
                    if jt is not None:
                        jt.record(task.task_id, now, "shed", now,
                                  reason="reject", queue_depth=len(queue))
                    return
                # drop_oldest: evict the longest-waiting *admitted* job;
                # re-queued orphans are protected (zero-loss guarantee).
                victim_idx = next(
                    (i for i, q in enumerate(queue) if q.requeues == 0), None
                )
                if victim_idx is None:
                    shed_one()
                    if jt is not None:
                        jt.record(task.task_id, now, "shed", now,
                                  reason="reject", queue_depth=len(queue))
                    return
                victim = queue[victim_idx]
                del queue[victim_idx]
                shed_one()
                if jt is not None:
                    jt.record(victim.task.task_id, victim.arrival, "shed",
                              now, reason="drop_oldest",
                              evicted_by=int(task.task_id))
            queue.append(_Queued(task, arrival=now, enqueued_at=now))
            if jt is not None:
                jt.record(task.task_id, now, "admitted", now,
                          queue_depth=len(queue))
            note_depth()

        def requeue(s: _Scheduled, now: float) -> None:
            queue.appendleft(_Queued(
                s.task, arrival=s.arrival, enqueued_at=now, requeues=s.requeues + 1
            ))
            stats.requeued += 1
            if rec.enabled:
                rec.counter_add("serve/requeued")
            if jt is not None:
                jt.record(s.task.task_id, s.arrival, "requeued", now,
                          window=s.window, cluster_id=s.cluster_id,
                          requeues=s.requeues + 1)
            if self.callbacks:
                cb0 = time.perf_counter()
                for cb in self.callbacks:
                    cb.on_requeue(s.task.task_id, s.arrival, now)
                stats.callback_seconds += time.perf_counter() - cb0
            note_depth()

        def apply_swap(window: int, version: str, reason: str) -> None:
            info = self.registry.load_into(self.method, version)
            if self.memo is not None:
                self.memo.bump()
            if self.cache is not None:
                # Cached columns were optima of the *old* model's
                # predicted problem; keeping them would let post-swap
                # windows report warm "hits" seeded from a stale
                # objective.  Start the new model cold.
                self.cache.clear()
            self.swap_epoch += 1
            if cfg.learned_seeds:
                # The old head predicted the old model's relaxed optima;
                # swap in the checkpoint's bundled head, or drop to cold
                # seeding until the trainer refits on post-swap windows.
                self.warm_model = self.registry.load_warm_start(info.version)
            stats.swaps += 1
            stats.swap_events.append({
                "window": window, "version": info.version,
                "digest": info.digest, "reason": reason,
            })
            if rec.enabled:
                rec.event("serve/hot_swap", window=window, version=info.version,
                          digest=info.digest, reason=reason)

        def dispatch_window(now: float) -> None:
            nonlocal busy_until
            prof.begin_window()
            with prof.stage("form"):
                ups = [c for c in self.clusters if c.cluster_id not in down]
                k = min(cfg.max_batch, len(queue))
                window = stats.windows
                if self.swap_schedule and window in self.swap_schedule:
                    apply_swap(window, self.swap_schedule[window], "schedule")
                if self._pending_swap is not None:
                    version, reason = self._pending_swap
                    self._pending_swap = None
                    apply_swap(window, version, reason)
                if rec.enabled:
                    rec.observe("serve/queue_depth", len(queue), bounds=SIZE_BUCKETS)
                batch = [queue.popleft() for _ in range(k)]
                tasks = [q.task for q in batch]
                T = np.stack([c.true_times(tasks) for c in ups])
                A = np.stack([c.true_reliabilities(tasks) for c in ups])
                problem = self.spec.build_problem(T, A)
            if prof.enabled:
                # Simulated-time components of task latency: how long each
                # task of this batch sat in the admission queue, and how
                # long the formed batch waited for its dispatch trigger
                # after its newest member arrived.  Platform hours, not
                # wall clock — reported in the budget's own section.
                for q in batch:
                    prof.observe_sim("admission_wait", now - q.enqueued_at)
                prof.observe_sim(
                    "batch_wait", now - max(q.enqueued_at for q in batch))

            t0 = time.perf_counter()
            iters = 0
            predictions = None
            relaxed_X = None
            seed_src = None
            decision = None
            if self._default_decide:
                # Methods predict rows for the *full* fleet they were
                # fitted on; with clusters down the rows must be subset to
                # the up clusters to match the window's problem shape.
                # Observers also need the predicted matrices, so with
                # callbacks registered the forward pass always happens
                # here (decide_full would otherwise run the identical
                # predict internally — same result, just not exposed).
                need_subset = len(ups) != len(self.clusters)
                with prof.stage("predict"):
                    if self.memo is not None:
                        predictions = self.memo.predict(self.method, tasks)
                    elif need_subset or self.callbacks:
                        predictions = self.method.predict(tasks)
                    if predictions is not None and need_subset:
                        pos = {c.cluster_id: i for i, c in enumerate(self.clusters)}
                        idx = [pos[c.cluster_id] for c in ups]
                        predictions = (predictions[0][idx], predictions[1][idx])
                x0 = None
                solver = None
                seed_src = "cold"
                key = make_cache_key([c.cluster_id for c in ups], k)
                with prof.stage("seed"):
                    if self.cache is not None:
                        x0 = self.cache.seed(key, tasks, len(ups))
                        solver = self.cache.solver_config(key, self.spec.solver)
                        if x0 is not None:
                            seed_src = "cache"
                    if x0 is None and cfg.learned_seeds and self.warm_model is not None:
                        x0 = self.warm_model.seed(tasks, [c.cluster_id for c in ups])
                        if x0 is not None:
                            seed_src = "learned"
                with prof.stage("solve"):
                    decision = self.method.decide_full(
                        problem, tasks, x0=x0, solver=solver, predictions=predictions,
                        solve_mode=cfg.solve_mode, block_config=self.block_config,
                        profiler=self.profiler,
                    )
                with prof.stage("commit"):
                    if self.cache is not None:
                        self.cache.store(key, tasks, decision.relaxed)
                    X = decision.X
                    relaxed_X = decision.relaxed.X
                    iters = decision.relaxed.iterations
                    stats.solver_iterations.append(iters)
                    stats.seed_sources[seed_src] = (
                        stats.seed_sources.get(seed_src, 0) + 1)
                    if rec.enabled:
                        rec.counter_add(f"serve/seed_{seed_src}")
                        if seed_src == "learned":
                            # Seed quality: how much of the seed's per-task
                            # argmax placement survived the solve.
                            agree = float(np.mean(
                                x0.argmax(axis=0) == relaxed_X.argmax(axis=0)))
                            rec.observe("serve/seed_agreement", agree,
                                        bounds=(0.1, 0.25, 0.5, 0.75, 0.9, 0.99))
            else:
                with prof.stage("solve"):
                    X = self.method.decide(problem, tasks)
            latency = time.perf_counter() - t0

            stats.windows += 1
            stats.matched += k
            stats.decide_seconds.append(latency)
            stats.batch_sizes.append(k)
            if rec.enabled:
                rec.counter_add("serve/windows")
                rec.observe("serve/batch_size", k, bounds=SIZE_BUCKETS)
                rec.observe("serve/assignment_latency_s", latency,
                            bounds=TIME_BUCKETS_S)
                if self._default_decide:
                    rec.observe("serve/solve_iterations", iters, bounds=ITER_BUCKETS)

            with prof.stage("schedule"):
                labels = labels_from_assignment(X)
                order = np.argsort(labels, kind="stable")
                starts = np.empty(k)
                ends = np.empty(k)
                successes = np.empty(k, dtype=bool)
                for j in order:
                    i = int(labels[j])
                    cluster = ups[i]
                    q = batch[int(j)]
                    start = max(free_at[cluster.cluster_id], now)
                    # The window's truth matrices already hold this pair.
                    duration = float(T[i, j])
                    if cfg.jitter_std > 0:
                        duration *= float(np.exp(rng.normal(0.0, cfg.jitter_std)))
                    success = (not cfg.failures) or (
                        rng.random() < float(A[i, j])
                    )
                    busy = duration if success else duration * float(
                        rng.uniform(0.05, 0.95))
                    end = start + busy
                    free_at[cluster.cluster_id] = end
                    starts[int(j)], ends[int(j)] = start, end
                    successes[int(j)] = success
                    schedule[cluster.cluster_id].append(_Scheduled(
                        task=q.task, window=window, cluster_id=cluster.cluster_id,
                        arrival=q.arrival, dispatched=now, start=start, end=end,
                        success=success, requeues=q.requeues,
                    ))
                busy_until = now + cfg.dispatch_overhead_hours

            if jt is not None:
                # Two journey events per batch member: the window-level
                # decision (membership, wait, seed source, solve shape)
                # and the committed schedule.  Recorded before callbacks
                # run so a harvest lands after its window's schedule.
                blocks = (getattr(decision.relaxed, "n_blocks", None)
                          if decision is not None
                          and cfg.solve_mode == "blocks" else None)
                for j, q in enumerate(batch):
                    jt.record(q.task.task_id, q.arrival, "dispatched", now,
                              window=window, wait_hours=now - q.enqueued_at,
                              batch=k, seed=seed_src,
                              solve_mode=cfg.solve_mode, iterations=iters,
                              blocks=blocks)
                    jt.record(q.task.task_id, q.arrival, "scheduled", now,
                              window=window,
                              cluster_id=ups[int(labels[j])].cluster_id,
                              start=float(starts[j]), end=float(ends[j]),
                              requeues=q.requeues)

            if self.callbacks:
                cb0 = time.perf_counter()
                with prof.stage("callbacks"):
                    snapshot = WindowSnapshot(
                        window=window,
                        time=now,
                        cluster_ids=tuple(c.cluster_id for c in ups),
                        task_ids=tuple(t.task_id for t in tasks),
                        T=T,
                        A=A,
                        T_hat=None if predictions is None else predictions[0],
                        A_hat=None if predictions is None else predictions[1],
                        X=X,
                        gamma=problem.gamma,
                        reliability_slack=reliability_value(X, problem),
                        arrival=np.array([q.arrival for q in batch]),
                        start=starts,
                        end=ends,
                        realized_hours=ends - starts,
                        success=successes,
                        requeues=np.array([q.requeues for q in batch]),
                        queue_depth=len(queue),
                        arrived_total=stats.arrived,
                        shed_total=stats.shed,
                        features=np.stack([t.features for t in tasks]),
                        X_relaxed=relaxed_X,
                    )
                    for cb in self.callbacks:
                        cb.on_window(snapshot)
                stats.callback_seconds += time.perf_counter() - cb0
            prof.end_window()

        def drain(t_limit: float) -> None:
            """Dispatch every window that ripens at or before ``t_limit``."""
            while True:
                r = ripe_at()
                if r is None or r > t_limit + _EPS:
                    return
                dispatch_window(r)

        # ---------------- main event loop over simulated time ---------- #
        for t, _prio, _seq, kind, payload in evs:
            drain(t)
            t_last = max(t_last, t)
            if kind == "arrive":
                if rec.enabled:
                    rec.event("serve/arrival", t=t,
                              task_id=payload.task_id)  # type: ignore[union-attr]
                admit(payload, t)  # type: ignore[arg-type]
            elif kind == "down":
                cid = int(payload)  # type: ignore[arg-type]
                down.add(cid)
                fleet_changed_at = t
                kept = [s for s in schedule[cid] if s.end <= t + _EPS]
                orphans = [s for s in schedule[cid] if s.end > t + _EPS]
                schedule[cid] = kept
                # Earliest-started orphan ends up at the queue front.
                for s in sorted(orphans, key=lambda s: (s.start, s.task.task_id),
                                reverse=True):
                    requeue(s, t)
            else:  # "up"
                cid = int(payload)  # type: ignore[arg-type]
                down.discard(cid)
                fleet_changed_at = t
                # Every job kept through the outage ended at or before its
                # start, and the orphans were re-queued to run elsewhere —
                # the rejoined cluster starts clean at the rejoin time.
                free_at[cid] = t

        # Flush: serve everything still queued (unless no cluster is up).
        while queue and any_up():
            r = ripe_at()
            assert r is not None
            dispatch_window(max(r, t_last))
        stats.unserved = len(queue)
        if jt is not None:
            for q in queue:
                jt.record(q.task.task_id, q.arrival, "unserved", t_last,
                          requeues=q.requeues)

        # Finalize execution records (deterministic order, then by task id).
        for c in self.clusters:
            for s in schedule[c.cluster_id]:
                stats.records.append(ServeRecord(
                    task_id=s.task.task_id, window=s.window, cluster_id=s.cluster_id,
                    arrival=s.arrival, dispatched=s.dispatched, start=s.start,
                    end=s.end, success=s.success, requeues=s.requeues,
                ))
                if s.success:
                    stats.completed += 1
                else:
                    stats.failed += 1
                if jt is not None:
                    jt.record(s.task.task_id, s.arrival,
                              "completed" if s.success else "failed", s.end,
                              window=s.window, cluster_id=s.cluster_id,
                              requeues=s.requeues)
                stats.total_wait_hours += s.start - s.arrival
                stats.total_flow_hours += s.end - s.arrival
        stats.records.sort(key=lambda r: (r.task_id, r.window))
        if self.cache is not None:
            stats.cache = self.cache.stats()
        if self.memo is not None:
            stats.memo = self.memo.stats()
        if prof.enabled:
            stats.profile = prof.budget()
            if rec.enabled:
                # Stage-budget series for the scrape endpoint / run log:
                # one labeled gauge per stage path.  Wall-clock values —
                # they live in metrics, never in the trace.
                for path, s in stats.profile["stages"].items():
                    rec.gauge_set("serve/stage_total_s", s["total_s"],
                                  labels={"stage": path})
                    rec.gauge_set("serve/stage_p95_s", s["p95"],
                                  labels={"stage": path})
                unattr = stats.profile["unattributed"]
                rec.gauge_set("serve/stage_total_s",
                              unattr.get("total_s", 0.0),
                              labels={"stage": "unattributed"})
                rec.gauge_set("serve/profile_coverage_p95",
                              stats.profile["coverage_p95"])
        if rec.enabled:
            rec.counter_add("serve/arrived", stats.arrived)
            rec.counter_add("serve/completed", stats.completed)
            rec.counter_add("serve/failed", stats.failed)
            if self.cache is not None:
                rec.counter_add("serve/cache_hits", self.cache.hits)
                rec.counter_add("serve/cache_misses", self.cache.misses)
            # Scalar outcome of the whole run: what a replay must
            # reproduce exactly (the conservation identity's terms plus
            # the dispatch count).
            rec.event(
                "serve/run_stats",
                arrived=stats.arrived, matched=stats.matched,
                completed=stats.completed, failed=stats.failed,
                shed=stats.shed, requeued=stats.requeued,
                unserved=stats.unserved, windows=stats.windows,
                swaps=stats.swaps, max_queue_depth=stats.max_queue_depth,
            )
        if jt is not None:
            jt.finish()
        if self.callbacks:
            cb0 = time.perf_counter()
            for cb in self.callbacks:
                cb.on_finish(stats)
            stats.callback_seconds += time.perf_counter() - cb0
        return stats
