"""Event-driven micro-batching dispatcher: the platform's serving loop.

The offline experiments answer "match these N tasks once"; a deployed
exchange platform answers "keep matching whatever arrives, forever".  This
module provides that loop over simulated time:

- **admission control** — a bounded queue with two deterministic shedding
  policies (``"reject"`` drops the incoming job, ``"drop_oldest"`` evicts
  the longest-waiting admitted job), so the *admission* queue's depth is
  bounded by construction under any overload.  The per-cluster backlogs
  behind it are not: a dispatched job waits for its cluster however long
  that cluster's committed work runs, and admission never looks there;
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
  tasks).  Overlapping outages of one cluster hold it down until the last
  one ends; on rejoin the cluster starts clean at the rejoin time;
- **warm-started solves** — each window's relaxed solve is seeded from the
  :class:`~repro.serve.cache.WarmStartCache` (previous window's columns +
  step memory) and predictor forwards come from the
  :class:`~repro.serve.cache.PredictionMemo`;
- **windows formed from per-task columns** — the true ``T``/``A`` a window
  is executed and scored under are stacked from each task's ground-truth
  columns, kept on the dispatcher (``Dispatcher.truth``) and evaluated on
  first sight, not rebuilt from the cluster models every window;
- **checkpoint hot-swap** — a ``swap_schedule`` mapping window index →
  registry version reloads predictor weights *between* windows and bumps
  the memo, modelling periodic retraining without stopping the loop; a
  serving observer (the :mod:`repro.retrain` controller) can instead call
  :meth:`Dispatcher.request_swap` mid-run, which applies at the start of
  the next dispatched window through the same mechanics.  Every applied
  swap leaves a ``serve/hot_swap`` breadcrumb carrying the checkpoint's
  deterministic weights digest, so swapped runs stay replayable.

The loop is an explicit state machine, :class:`ServeLoop` — per-run state
plus ``arrive`` / ``cluster_down`` / ``cluster_up`` / ``advance`` /
``finish`` handlers; :meth:`Dispatcher.run` walks an arrival schedule and
delivers it.
Everything is driven by seeded RNG streams and processed in a fixed event
order, so a run is bit-reproducible: :meth:`ServeStats.trace_bytes` is the
canonical assignment trace two equal-seed runs must agree on byte-for-byte
(wall-clock decide latencies are kept out of the trace for that reason).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

import numpy as np

from repro.clusters.cluster import Cluster, truth_matrices
from repro.clusters.reliability import draw_attempt
from repro.matching.objectives import reliability_value
from repro.matching.problem import MatchingProblem
from repro.matching.rounding import labels_from_assignment
from repro.methods.base import BaseMethod, MatchSpec
from repro.serve.cache import ColumnTable, PredictionMemo, WarmStartCache, make_cache_key
from repro.serve.loadgen import as_schedule
from repro.serve.registry import ModelRegistry
from repro.telemetry import ITER_BUCKETS, SIZE_BUCKETS, TIME_BUCKETS_S, get_recorder
from repro.telemetry.journey import JourneyRecorder
from repro.telemetry.profiler import NULL_PROFILER, StageProfiler, budget_gauges
from repro.utils.rng import as_generator
from repro.utils.validation import check_choices
from repro.workloads.taskpool import Task

__all__ = [
    "Outage",
    "RUN_STAT_FIELDS",
    "SHED_POLICIES",
    "SOLVE_MODES",
    "DispatcherConfig",
    "ServeRecord",
    "ServeStats",
    "WindowSnapshot",
    "ServeCallback",
    "Dispatcher",
    "ServeLoop",
]

_EPS = 1e-12

#: Scalar outcome of a whole run — the conservation identity's terms plus
#: the dispatch count: what the closing ``serve/run_stats`` event carries
#: and a replay must reproduce exactly.
RUN_STAT_FIELDS = (
    "arrived", "matched", "completed", "failed", "shed", "requeued",
    "unserved", "windows", "swaps", "max_queue_depth",
)
#: Admission shedding: drop the incoming job, or evict the oldest admitted one.
SHED_POLICIES = ("reject", "drop_oldest")
#: ``"scalar"`` = one dense solve per window (the historical path,
#: byte-identical traces); ``"blocks"`` = decompose into viability
#: components and solve them as one batched float32 instance
#: (:func:`repro.matching.blocks.solve_relaxed_blocks`).
SOLVE_MODES = ("scalar", "blocks")


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
    shed_policy: str = field(default="reject", metadata={"choices": SHED_POLICIES})
    #: Simulated platform-side decision cost per window.  While a window is
    #: being decided the dispatcher accepts no new window, so arrivals pile
    #: up — this is what makes overload (and shedding) reachable.
    dispatch_overhead_hours: float = 0.0
    #: Seed windows from the last-window cache and memoize predictions
    #: (:mod:`repro.serve.cache`); both go on and off together.
    warm_start: bool = True
    solve_mode: str = field(default="scalar", metadata={"choices": SOLVE_MODES})
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
        check_choices(self)
        if not 0.0 <= self.journey_sample <= 1.0:
            raise ValueError(
                f"journey_sample must be in [0, 1], got {self.journey_sample}")
        if self.dispatch_overhead_hours < 0:
            raise ValueError("dispatch_overhead_hours must be >= 0")


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
    #: Windows by warm-start seed source: ``{"cache": n, "cold": n}``
    #: (default-pipeline windows only).
    seed_sources: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    memo: dict = field(default_factory=dict)
    #: The dispatcher's ground-truth column table (entries, hits, misses,
    #: hit_rate): how many (window, task) slots were formed without
    #: evaluating the cluster models again.
    truth: dict = field(default_factory=dict)
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
    def mean_solver_iterations(self) -> float:
        if not self.solver_iterations:
            raise ValueError("no solver windows recorded")
        return float(np.mean(self.solver_iterations))

    def latency_percentiles(self) -> dict:
        """Wall-clock assignment (decide) latency p50/p95/p99 in seconds."""
        qs = (50, 95, 99)
        if not self.decide_seconds:
            return {f"p{q}": 0.0 for q in qs}
        arr = np.asarray(self.decide_seconds)
        return {f"p{q}": float(np.percentile(arr, q)) for q in qs}

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

    ``T_hat``/``A_hat`` are the predicted matrices the decision used.
    ``realized_hours`` is the *busy* time each job actually
    occupied its cluster (truncated for failed jobs), i.e. what a real platform would observe, while
    ``T``/``A`` carry the ground-truth expectations.
    """

    window: int
    time: float  # dispatch time in platform hours
    cluster_ids: tuple[int, ...]
    task_ids: tuple[int, ...]
    T: np.ndarray  # true expected times, shape (m, k)
    A: np.ndarray  # true reliabilities, shape (m, k)
    T_hat: np.ndarray  # predicted times, shape (m, k)
    A_hat: np.ndarray  # predicted reliabilities, shape (m, k)
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
    #: examples.
    features: np.ndarray

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


@dataclass(eq=False)
class _Queued:
    task: Task
    arrival: float
    enqueued_at: float
    requeues: int = 0


@dataclass
class _Window:
    """One window in flight: form's fields, then decide's, then schedule's."""

    index: int
    now: float  # dispatch time in platform hours
    ups: "list[Cluster]"
    rows: "list[int] | None"  # ``ups`` as rows of the full fleet; None = all up
    batch: "list[_Queued]"
    tasks: "list[Task]"
    T: np.ndarray  # true expected times, rows follow ``ups``
    A: np.ndarray
    problem: MatchingProblem
    X: "np.ndarray | None" = None
    predictions: "tuple[np.ndarray, np.ndarray] | None" = None
    relaxed: object = None  # the decision's RelaxedSolution / BlockSolution
    iterations: int = 0
    seed_src: "str | None" = None
    labels: "np.ndarray | None" = None  # cluster row per task, batch order
    starts: "np.ndarray | None" = None
    ends: "np.ndarray | None" = None
    successes: "np.ndarray | None" = None


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
            self.cache = self.memo = None
        else:
            self.cache = WarmStartCache() if cache is None else cache
            self.memo = PredictionMemo() if memo is None else memo
        #: Ground truth per task: its (t, a) columns over ``self.clusters``,
        #: evaluated on first sight.  It lives as long as the memo but is
        #: no model output — hot-swaps leave it alone — and an entry answers
        #: only for the ``spec`` object it was computed from.
        self.truth = ColumnTable(owner=attrgetter("spec"))
        self.registry = registry
        self.swap_schedule = dict(swap_schedule or {})
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
            self.journeys = JourneyRecorder(
                self.config.journey_sample,
                slo_wait_hours=4.0 * self.config.max_wait_hours)
        self.callbacks: "list[ServeCallback]" = list(callbacks or ())

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

    def true_matrices(
        self, tasks: "list[Task]", rows: "list[int] | None" = None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Fresh true ``(T, A)`` of ``tasks``: the whole fleet's rows, or ``rows``."""
        T, A = self.truth.gather(tasks, self._read_truth)
        return (T, A) if rows is None else (T[rows], A[rows])

    def _read_truth(self, tasks: "list[Task]") -> "tuple[np.ndarray, np.ndarray]":
        # The one place serving evaluates the cluster models.
        return truth_matrices(self.clusters, tasks)

    def start(self, rng=None, outages: "Sequence[Outage] | None" = None) -> "ServeLoop":
        """Open one run; ``outages`` are validated and logged, not delivered."""
        return ServeLoop(self, rng, outages)

    def run(
        self,
        events: "Iterable[tuple[float, Task]]",
        rng: "np.random.Generator | int | None" = None,
        outages: "Sequence[Outage] | None" = None,
    ) -> ServeStats:
        """Consume an arrival stream to exhaustion and return statistics.

        ``events`` is a :class:`~repro.serve.loadgen.Schedule` (what a
        load draws) or any iterable of ``(arrival_hour, task)`` pairs,
        which is packed into one and sorted stably by hour
        (:func:`~repro.serve.loadgen.as_schedule`); ``outages`` take
        clusters down and back up at fixed times.  Arrivals are walked in
        place and the outage events merged in by ``(hour, priority)``.
        The queue is flushed at the end of the stream; only tasks with no
        up cluster left remain ``unserved``.
        """
        loop = self.start(rng, outages)
        arrivals = as_schedule(events)
        # Priority orders simultaneous events deterministically: rejoins
        # (0) first, as capacity returns, then arrivals (1), then dropouts
        # (2); outages of one hour and priority in their given order.
        marks = [(o.end, 0, i, loop.cluster_up, o.cluster_id)
                 for i, o in enumerate(outages or ())]
        marks += [(o.start, 2, i, loop.cluster_down, o.cluster_id)
                  for i, o in enumerate(outages or ())]
        marks.sort(key=itemgetter(0, 1, 2))
        k, n, arrive = 0, len(marks), loop.arrive
        for t, task in arrivals:
            while k < n and (marks[k][0] < t or (marks[k][0] == t and marks[k][1] == 0)):
                hour, _prio, _i, handler, cluster_id = marks[k]
                handler(hour, cluster_id)
                k += 1
            arrive(t, task)
        for hour, _prio, _i, handler, cluster_id in marks[k:]:
            handler(hour, cluster_id)
        return loop.finish()


class ServeLoop:
    """The state of one serving run and the handlers that move it.

    Call the handlers in non-decreasing time order, simultaneous events as
    rejoins, arrivals, dropouts (the order :meth:`Dispatcher.run` keeps);
    each first dispatches every window ripe by its time, so between calls
    nothing is lost and nothing was dispatched before it arrived.  Weights,
    cache, memo and observers stay on the dispatcher, where serve callbacks
    reach them; the rest is per run, and :meth:`finish` ends it, once.
    """

    def __init__(self, dispatcher: Dispatcher, rng=None, outages=None) -> None:
        self.dispatcher = dispatcher
        self.cfg = dispatcher.config
        self.rng = as_generator(rng)
        self.stats = ServeStats()
        self.rec = get_recorder()
        self.prof = dispatcher.profiler or NULL_PROFILER
        self.jt = dispatcher.journeys
        self.queue: "deque[_Queued]" = deque()
        self.down: "dict[int, int]" = {}  # cluster -> outages open on it
        self.free_at = {c.cluster_id: 0.0 for c in dispatcher.clusters}
        #: Per cluster, its jobs not orphaned since: (task, record-to-be).
        self.schedule: "dict[int, list[tuple[Task, ServeRecord]]]" = {
            c.cluster_id: [] for c in dispatcher.clusters}
        self.busy_until = 0.0  # deciding a window until then (backpressure)
        # Last simulated time the up-set changed (dropout or rejoin).  No
        # dispatch may predate it: a window that ripened while every
        # cluster was down must wait for the rejoin, and orphans requeued
        # by a dropout must not be re-dispatched before the dropout.
        self.fleet_changed_at = 0.0
        self.now = 0.0
        # Replay breadcrumbs (JSONL mode): the outage schedule up front,
        # one event per arrival later — together with the run header they
        # are what :class:`repro.monitor.replay.TraceReplay` inverts back
        # into an arrival stream + outage schedule.
        for o in outages or ():
            self._known(o.cluster_id)
        if self.rec.enabled:
            for o in outages or ():
                self.rec.event("serve/outage", cluster_id=o.cluster_id,
                               start=o.start, end=o.end)

    def advance(self, t: float) -> None:
        """Dispatch every window that ripens at or before ``t``."""
        if t < self.now:
            raise ValueError(f"time went backwards: {t} after {self.now}")
        while (r := self._ripe_at()) is not None and r <= t + _EPS:
            self._dispatch(r)
        self.now = t

    def arrive(self, t: float, task: Task) -> None:
        """Admit ``task`` at hour ``t``, or shed per the admission policy."""
        self.advance(t)
        queue = self.queue
        if self.rec.enabled:
            self.rec.event("serve/arrival", t=t, task_id=task.task_id)
            self.rec.counter_add("serve/arrived")
        self.stats.arrived += 1
        if len(queue) >= self.cfg.queue_capacity:
            # drop_oldest evicts the longest-waiting *admitted* job;
            # re-queued orphans are protected (zero-loss guarantee), so
            # with only orphans queued the arrival itself is rejected.
            victim = None
            if self.cfg.shed_policy == "drop_oldest":
                victim = next((q for q in queue if q.requeues == 0), None)
            if victim is None:
                self._shed(task, t, "reject", queue_depth=len(queue))
                return
            queue.remove(victim)
            self._shed(victim.task, victim.arrival, "drop_oldest",
                       evicted_by=int(task.task_id))
        queue.append(_Queued(task, arrival=t, enqueued_at=t))
        if self.jt is not None:
            self.jt.record(task.task_id, t, "admitted", t, queue_depth=len(queue))
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(queue))

    def cluster_down(self, t: float, cluster_id: int) -> None:
        """Dropout: the cluster's unfinished jobs re-queue at the front."""
        cid = self._known(cluster_id)
        self.advance(t)
        self.down[cid] = self.down.get(cid, 0) + 1
        self.fleet_changed_at = t
        jobs = self.schedule[cid]
        self.schedule[cid] = [job for job in jobs if job[1].end <= t + _EPS]
        orphans = [job for job in jobs if job[1].end > t + _EPS]
        # Earliest-started orphan ends up at the queue front.
        orphans.sort(key=lambda job: (job[1].start, job[1].task_id), reverse=True)
        for task, r in orphans:
            self.queue.appendleft(_Queued(
                task, arrival=r.arrival, enqueued_at=t, requeues=r.requeues + 1))
            self.stats.requeued += 1
            if self.rec.enabled:
                self.rec.counter_add("serve/requeued")
            if self.jt is not None:
                self.jt.record(r.task_id, r.arrival, "requeued", t, window=r.window,
                               cluster_id=r.cluster_id, requeues=r.requeues + 1)
            self._notify("on_requeue", r.task_id, r.arrival, t)
            self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self.queue))

    def cluster_up(self, t: float, cluster_id: int) -> None:
        """End one outage; the cluster rejoins when its last one ends."""
        cid = self._known(cluster_id)
        if cid not in self.down:
            raise ValueError(f"rejoin of cluster {cluster_id}, which is not down")
        self.advance(t)
        self.down[cid] -= 1
        if self.down[cid]:
            return  # an overlapping outage still holds it down
        del self.down[cid]
        self.fleet_changed_at = t
        # Every job kept through the outage ended at or before its
        # start, and the orphans were re-queued to run elsewhere —
        # the rejoined cluster starts clean at the rejoin time.
        self.free_at[cid] = t

    def finish(self) -> ServeStats:
        """Flush the queue (unless no cluster is up) and close the books."""
        stats, jt = self.stats, self.jt
        while self.queue and len(self.down) < len(self.free_at):
            self._dispatch(max(self._ripe_at(), self.now))
        stats.unserved = len(self.queue)
        if jt is not None:
            jt.record_many((q.task.task_id, q.arrival, "unserved", self.now,
                            {"requeues": q.requeues}) for q in self.queue)
        for jobs in self.schedule.values():
            for _task, r in jobs:
                stats.records.append(r)
                stats.total_wait_hours += r.start - r.arrival
                stats.total_flow_hours += r.end - r.arrival
        if jt is not None:
            jt.record_many((r.task_id, r.arrival, "completed" if r.success else "failed",
                            r.end, {"window": r.window, "cluster_id": r.cluster_id,
                                    "requeues": r.requeues})
                           for r in stats.records)
        stats.completed = sum(r.success for r in stats.records)
        stats.failed = len(stats.records) - stats.completed
        # Deterministic order: by task id, then window.
        stats.records.sort(key=lambda r: (r.task_id, r.window))
        d, rec = self.dispatcher, self.rec
        if d.cache is not None:
            stats.cache = d.cache.stats()
        if d.memo is not None:
            stats.memo = d.memo.stats()
        stats.truth = d.truth.stats()
        if self.prof.enabled:
            stats.profile = self.prof.budget()
        if rec.enabled:
            if self.prof.enabled:
                for name, labels, value in budget_gauges(stats.profile):
                    rec.gauge_set(name, value, labels=labels)
            rec.counter_add("serve/completed", stats.completed)
            rec.counter_add("serve/failed", stats.failed)
            if d.cache is not None:
                rec.counter_add("serve/cache_hits", d.cache.hits)
                rec.counter_add("serve/cache_misses", d.cache.misses)
            rec.counter_add("serve/truth_hits", d.truth.hits)
            rec.counter_add("serve/truth_misses", d.truth.misses)
            rec.event("serve/run_stats",
                      **{name: getattr(stats, name) for name in RUN_STAT_FIELDS})
        if jt is not None:
            jt.finish()
        self._notify("on_finish", stats)
        return stats

    def _known(self, cluster_id: int) -> int:
        cid = int(cluster_id)
        if cid not in self.free_at:
            raise ValueError(f"outage for unknown cluster {cluster_id}")
        return cid

    def _ripe_at(self) -> "float | None":
        """Earliest simulated time the next window can dispatch."""
        cfg, queue = self.cfg, self.queue
        if not queue or len(self.down) == len(self.free_at):
            return None
        if len(queue) >= cfg.max_batch:
            # Size-triggered: as soon as not busy, but never before
            # every job of the would-be batch (the queue's first
            # max_batch entries) was enqueued — else the trace would
            # record dispatched < arrival.
            newest = max(q.enqueued_at for q in islice(queue, cfg.max_batch))
            return max(self.busy_until, newest, self.fleet_changed_at)
        earliest = min(q.enqueued_at for q in queue)
        return max(earliest + cfg.max_wait_hours, self.busy_until, self.fleet_changed_at)

    def _notify(self, hook: str, *args, since: "float | None" = None) -> None:
        """Call every serve callback's ``hook``, timed (from ``since``, if given)."""
        if not self.dispatcher.callbacks:
            return
        t0 = time.perf_counter() if since is None else since
        for cb in self.dispatcher.callbacks:
            getattr(cb, hook)(*args)
        self.stats.callback_seconds += time.perf_counter() - t0

    def _shed(self, task: Task, arrival: float, reason: str, **detail) -> None:
        self.stats.shed += 1
        if self.rec.enabled:
            self.rec.counter_add("serve/shed")
        if self.jt is not None:
            self.jt.record(task.task_id, arrival, "shed", self.now,
                           reason=reason, **detail)

    def _swap(self, window: int, version: str, reason: str) -> None:
        """Hot-swap ``version`` in, voiding what derives from the old weights."""
        d = self.dispatcher
        info = d.registry.load_into(d.method, version)
        if d.memo is not None:
            d.memo.bump()
        if d.cache is not None:
            # Cached columns were optima of the *old* model's predicted
            # problem; keeping them would let post-swap windows report
            # warm "hits" seeded from a stale objective.  Start the new
            # model cold.
            d.cache.clear()
        event = {"window": window, "version": info.version,
                 "digest": info.digest, "reason": reason}
        self.stats.swaps += 1
        self.stats.swap_events.append(event)
        if self.rec.enabled:
            self.rec.event("serve/hot_swap", **event)

    def _dispatch(self, now: float) -> None:
        self.prof.begin_window()
        w = self._form(now)
        self._decide(w)
        self._schedule(w)
        self._observe(w)
        self.prof.end_window()

    def _form(self, now: float) -> _Window:
        """Apply due hot-swaps, pop the batch, build its true problem."""
        d, prof, queue = self.dispatcher, self.prof, self.queue
        with prof.stage("form"):
            ups, rows = d.clusters, None
            if self.down:
                rows = [i for i, c in enumerate(ups) if c.cluster_id not in self.down]
                ups = [ups[i] for i in rows]
            index = self.stats.windows
            if index in d.swap_schedule:
                self._swap(index, d.swap_schedule[index], "schedule")
            if d._pending_swap is not None:
                version, reason = d._pending_swap
                d._pending_swap = None
                self._swap(index, version, reason)
            if self.rec.enabled:
                self.rec.observe("serve/queue_depth", len(queue), bounds=SIZE_BUCKETS)
            batch = [queue.popleft() for _ in range(min(self.cfg.max_batch, len(queue)))]
            tasks = [q.task for q in batch]
            T, A = d.true_matrices(tasks, rows)
            problem = d.spec.build_problem(T, A)
        if prof.enabled:
            # Simulated-time components of task latency: how long each
            # task of this batch sat in the admission queue, and how
            # long the formed batch waited for its dispatch trigger
            # after its newest member arrived.  Platform hours, not
            # wall clock — reported in the budget's own section.
            for q in batch:
                prof.observe_sim("admission_wait", now - q.enqueued_at)
            prof.observe_sim("batch_wait", now - max(q.enqueued_at for q in batch))
        return _Window(index, now, ups, rows, batch, tasks, T, A, problem)

    def _decide(self, w: _Window) -> None:
        """Choose the window's assignment ``w.X`` and account for it."""
        stats, rec = self.stats, self.rec
        t0 = time.perf_counter()
        self._solve(w)
        latency = time.perf_counter() - t0
        k = len(w.batch)
        stats.windows += 1
        stats.matched += k
        stats.decide_seconds.append(latency)
        stats.batch_sizes.append(k)
        if rec.enabled:
            rec.counter_add("serve/windows")
            rec.observe("serve/batch_size", k, bounds=SIZE_BUCKETS)
            rec.observe("serve/assignment_latency_s", latency, bounds=TIME_BUCKETS_S)
            rec.observe("serve/solve_iterations", w.iterations, bounds=ITER_BUCKETS)

    def _solve(self, w: _Window) -> None:
        """Predict → seed → solve → commit: the memo and the cache hook in here."""
        d, prof, stats, rec = self.dispatcher, self.prof, self.stats, self.rec
        ups, tasks = w.ups, w.tasks
        # Methods predict rows for the *full* fleet they were fitted on;
        # with clusters down the rows must be subset to the up clusters
        # to match the window's problem shape.  Observers also need the
        # predicted matrices, so with callbacks registered the forward
        # pass always happens here (decide_full would otherwise run the
        # identical predict internally — same result, just not exposed).
        with prof.stage("predict"):
            if d.memo is not None:
                w.predictions = d.memo.predict(d.method, tasks)
            elif w.rows is not None or d.callbacks:
                w.predictions = d.method.predict(tasks)
            if w.predictions is not None and w.rows is not None:
                w.predictions = (w.predictions[0][w.rows], w.predictions[1][w.rows])
        x0 = solver = None
        w.seed_src = "cold"
        key = make_cache_key([c.cluster_id for c in ups], len(tasks))
        with prof.stage("seed"):
            if d.cache is not None:
                x0 = d.cache.seed(key, tasks, len(ups))
                solver = d.cache.solver_config(key, d.spec.solver)
                if x0 is not None:
                    w.seed_src = "cache"
        with prof.stage("solve"):
            decision = d.method.decide_full(
                w.problem, tasks, x0=x0, solver=solver, predictions=w.predictions,
                solve_mode=self.cfg.solve_mode, profiler=d.profiler,
            )
        with prof.stage("commit"):
            if d.cache is not None:
                d.cache.store(key, tasks, decision.relaxed)
            w.X, w.relaxed = decision.X, decision.relaxed
            w.iterations = decision.relaxed.iterations
            stats.solver_iterations.append(w.iterations)
            stats.seed_sources[w.seed_src] = stats.seed_sources.get(w.seed_src, 0) + 1
            if rec.enabled:
                rec.counter_add(f"serve/seed_{w.seed_src}")

    def _schedule(self, w: _Window) -> None:
        """Execute ``w.X``: per-cluster FIFO starts, sampled outcomes."""
        cfg, rng, now, free_at = self.cfg, self.rng, w.now, self.free_at
        with self.prof.stage("schedule"):
            k = len(w.batch)
            w.labels = labels = labels_from_assignment(w.X)
            w.starts, w.ends = starts, ends = np.empty(k), np.empty(k)
            w.successes = successes = np.empty(k, dtype=bool)
            for j in np.argsort(labels, kind="stable"):
                i, j = int(labels[j]), int(j)
                cid = w.ups[i].cluster_id
                q = w.batch[j]
                start = max(free_at[cid], now)
                duration = float(w.T[i, j])
                success, frac = draw_attempt(float(w.A[i, j]), rng)
                end = start + duration * frac
                free_at[cid] = end
                starts[j], ends[j], successes[j] = start, end, success
                self.schedule[cid].append((q.task, ServeRecord(
                    task_id=q.task.task_id, window=w.index, cluster_id=cid,
                    arrival=q.arrival, dispatched=now, start=start, end=end,
                    success=success, requeues=q.requeues,
                )))
            self.busy_until = now + cfg.dispatch_overhead_hours

    def _observe(self, w: _Window) -> None:
        """Show the scheduled window to the journeys, then the callbacks."""
        jt, cfg, now, batch = self.jt, self.cfg, w.now, w.batch
        if jt is not None:
            # Two journey events per batch member: the window-level
            # decision (membership, wait, seed source, solve shape)
            # and the committed schedule.  Recorded before callbacks
            # run so a harvest lands after its window's schedule.
            decided = {"window": w.index, "batch": len(batch), "seed": w.seed_src,
                       "solve_mode": cfg.solve_mode, "iterations": w.iterations}
            if cfg.solve_mode == "blocks":
                blocks = getattr(w.relaxed, "n_blocks", None)
                if blocks is not None:
                    decided["blocks"] = blocks
            jt.record_many((q.task.task_id, q.arrival, "dispatched", now,
                            {**decided, "wait_hours": now - q.enqueued_at})
                           for q in batch)
            ups = w.ups
            jt.record_many((q.task.task_id, q.arrival, "scheduled", now,
                            {"window": w.index, "cluster_id": ups[i].cluster_id,
                             "start": start, "end": end, "requeues": q.requeues})
                           for q, i, start, end in zip(batch, w.labels.tolist(),
                                                       w.starts.tolist(), w.ends.tolist()))
        if not self.dispatcher.callbacks:
            return  # no observer: no snapshot is built
        t0 = time.perf_counter()
        with self.prof.stage("callbacks"):
            self._notify("on_window", WindowSnapshot(
                window=w.index, time=now,
                cluster_ids=tuple(c.cluster_id for c in w.ups),
                task_ids=tuple(t.task_id for t in w.tasks),
                T=w.T, A=w.A,
                T_hat=w.predictions[0], A_hat=w.predictions[1],
                X=w.X, gamma=w.problem.gamma,
                reliability_slack=reliability_value(w.X, w.problem),
                arrival=np.array([q.arrival for q in batch]),
                start=w.starts, end=w.ends, realized_hours=w.ends - w.starts,
                success=w.successes,
                requeues=np.array([q.requeues for q in batch]),
                queue_depth=len(self.queue),
                arrived_total=self.stats.arrived, shed_total=self.stats.shed,
                features=np.array([t.features for t in w.tasks]),
            ), since=t0)
