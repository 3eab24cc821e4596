"""Arrival schedules as two flat arrays, held to the lists of pairs they
replaced.

A load's ``draw`` returns a :class:`~repro.serve.loadgen.Schedule`: the
hours as float64 and each arrival's pool index as int64.  Every draw is
held here to a frozen copy of the list-building draws (the same pairs,
``len``, negative indices and slices); ``Dispatcher.run`` to the sorting
driver it replaced, on a schedule, on the same pairs as a list, on a
shuffled list and with outages that start and end at arrival hours;
``FleetController.route`` to the sorted-list router it replaced; and
``HashRing.preference``'s memo to the uncached ring walk.  The last test
bounds what one drawn arrival costs.
"""

from __future__ import annotations

import random
import tracemalloc
from bisect import bisect_right
from operator import itemgetter

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.fleet import FleetConfig, FleetController, HashRing, make_router
from repro.fleet.router import _hash64, full_down_intervals
from repro.matching.relaxed import SolverConfig
from repro.methods import TSM, FitContext, MatchSpec
from repro.predictors.training import TrainConfig
from repro.serve import (
    BurstyLoad,
    DiurnalLoad,
    Dispatcher,
    DispatcherConfig,
    Outage,
    PoissonLoad,
    Schedule,
    ServeConfig,
    make_load,
)
from repro.serve.loadgen import as_schedule
from repro.utils.rng import as_generator
from repro.workloads import TaskPool

# --------------------------------------------------------------------- #
# Frozen copies of the list-of-pairs path.
# --------------------------------------------------------------------- #


def _ref_draw(load, horizon_hours, rng):
    """The list-building draws, verbatim but for dispatch on the shape."""
    rng = as_generator(rng)
    tasks, pick, gap = load.pool.tasks, rng.integers, rng.exponential
    n = len(tasks)
    events = []
    if isinstance(load, PoissonLoad):
        scale = 1.0 / load.rate_per_hour
        t = 0.0
        while True:
            t += gap(scale)
            if t >= horizon_hours:
                return events
            events.append((t, tasks[pick(n)]))
    if isinstance(load, BurstyLoad):
        t = 0.0
        bursting = False
        while t < horizon_hours:
            mean = load.mean_burst_hours if bursting else load.mean_quiet_hours
            phase_end = min(t + gap(mean), horizon_hours)
            scale = 1.0 / (load.burst_rate if bursting else load.base_rate)
            s = t
            while True:
                s += gap(scale)
                if s >= phase_end:
                    break
                events.append((s, tasks[pick(n)]))
            t = phase_end
            bursting = not bursting
        return events
    assert isinstance(load, DiurnalLoad)
    uniform, scale = rng.random, 1.0 / load.peak_rate
    t = 0.0
    while True:
        t += gap(scale)
        if t >= horizon_hours:
            return events
        if uniform() < load.rate_at(t) / load.peak_rate:
            events.append((t, tasks[pick(n)]))


def _ref_run(dispatcher, events, rng=None, outages=None):
    """``Dispatcher.run`` as the one sort over every event it replaced."""
    loop = dispatcher.start(rng, outages)
    evs = [(float(t), 1, i, loop.arrive, task)
           for i, (t, task) in enumerate(events)]
    for i, o in enumerate(outages or ()):
        evs.append((o.end, 0, i, loop.cluster_up, o.cluster_id))
        evs.append((o.start, 2, i, loop.cluster_down, o.cluster_id))
    evs.sort(key=itemgetter(0, 1, 2))
    for t, _prio, _seq, handler, payload in evs:
        handler(t, payload)
    return loop.finish()


def _ref_route(controller, events, outages=None):
    """``FleetController.route`` as the sorted list it replaced; returns
    its three results and the journey preambles."""
    cfg = controller.config
    router = make_router(cfg.routing, cfg.n_shards,
                         window_hours=cfg.router_window_hours())
    shard_down = [
        full_down_intervals(per, len(controller.shard_clusters[sid]))
        for sid, per in enumerate(controller.shard_outages(outages))
    ]

    def shard_up(sid, t):
        return not any(start <= t < end for start, end in shard_down[sid])

    per_shard_events = [[] for _ in range(cfg.n_shards)]
    per_shard_routes = [[] for _ in range(cfg.n_shards)]
    route_journeys = [[] for _ in range(cfg.n_shards)]
    journeys = controller.dcfg.journey_sample > 0.0
    for t, task in sorted(events, key=lambda e: (e[0], e[1].task_id)):
        up = {s for s in range(cfg.n_shards) if shard_up(s, t)}
        sid = router.route(task.task_id, t, up)
        per_shard_events[sid].append((t, task))
        per_shard_routes[sid].append((t, task.task_id))
        if not journeys:
            continue
        home = router.ring.owner(str(task.task_id))
        if sid == home:
            reason = "home"
        elif home not in up:
            reason = "failover"
        else:
            reason = "load"
        route_journeys[sid].append({
            "task_id": int(task.task_id), "t": float(t),
            "home": int(home), "shard": sid, "reason": reason,
            "policy": cfg.routing,
        })
    return per_shard_events, per_shard_routes, router.rerouted, route_journeys


def _ref_preference(ring, key):
    """``HashRing.preference`` as the uncached ring walk."""
    start = bisect_right(ring._hashes, _hash64(key))
    seen, member, n = [], set(), len(ring._points)
    for step in range(n):
        shard = ring._points[(start + step) % n][1]
        if shard not in member:
            member.add(shard)
            seen.append(shard)
            if len(seen) == ring.n_shards:
                break
    return tuple(seen)


# --------------------------------------------------------------------- #
# Draws.
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("size", [7, 64, 256])
@pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal"])
def test_draws_yield_the_list_draws_pairs(pattern, size):
    load = make_load(pattern, TaskPool(size, rng=0), 40.0)
    for seed in range(6):
        rng, ref_rng = as_generator(seed), as_generator(seed)
        got, want = load.draw(30.0, rng), _ref_draw(load, 30.0, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert isinstance(got, Schedule) and len(got) == len(want) > 100
        assert list(got) == want and got == want and want == got
        assert all(type(t) is float for t, _ in got)
        n = len(want)
        for k in (0, 1, n - 1, -1, -2, -n):
            assert got[k] == want[k]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                got[k]
        for part in (slice(3, 17), slice(None, None, -3), slice(-40, -5, 2), slice(n, None)):
            assert isinstance(got[part], Schedule)
            assert list(got[part]) == want[part] and len(got[part]) == len(want[part])


def test_schedule_is_read_only():
    got = PoissonLoad(TaskPool(8, rng=0), 30.0).draw(2.0, as_generator(1))
    with pytest.raises(ValueError, match="read-only"):
        got.hours[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        got.index[0] = 0
    with pytest.raises(TypeError):
        hash(got)


def test_as_schedule_sorts_stably_by_hour():
    tasks = TaskPool(6, rng=0).tasks
    pairs = [(2.0, tasks[0]), (1.0, tasks[1]), (2.0, tasks[2]), (0.5, tasks[3]),
             (1.0, tasks[4]), (2, tasks[5])]
    assert list(as_schedule(pairs)) == sorted(pairs, key=itemgetter(0))
    assert list(as_schedule([])) == []
    drawn = PoissonLoad(TaskPool(8, rng=0), 30.0).draw(2.0, as_generator(1))
    assert as_schedule(drawn) is drawn
    assert list(as_schedule(drawn[::-1])) == list(drawn)


def test_panel_draw_holds_at_most_24_bytes_an_arrival():
    """``serve_steady``'s panel, 12 streams of 21 h at 60/h on a 64-task
    pool, held alive: about 17 traced bytes an arrival (two array slots
    and their growth slack); a list of ``(hour, task)`` tuples held 88."""
    load = make_load("poisson", TaskPool(64, rng=0), 60.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        panel = [load.draw(21.0, as_generator(seed + 3)) for seed in range(12)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrivals = sum(map(len, panel))
    assert arrivals > 14_000
    assert held / arrivals <= 24, (held, arrivals)


# --------------------------------------------------------------------- #
# Dispatcher.run.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def stack():
    pool = TaskPool(24, rng=0)
    clusters = make_setting("A")
    train, _ = pool.split(0.6, rng=1)
    spec = MatchSpec(solver=SolverConfig(tol=1e-4, max_iters=300))
    method = TSM(train_config=TrainConfig(epochs=8)).fit(
        FitContext.build(clusters, train, spec, rng=2))
    return pool, clusters, spec, method


def _dispatcher(stack):
    """A fresh dispatcher: its warm cache and memo carry over between
    runs, so every run compared gets its own."""
    _pool, clusters, spec, method = stack
    return Dispatcher(clusters, method, spec,
                      DispatcherConfig(max_batch=8, max_wait_hours=0.1, queue_capacity=32))


def test_run_is_the_sorting_driver_on_schedules_lists_and_shuffles(stack):
    events = PoissonLoad(stack[0], 40.0).draw(4.0, as_generator(3))
    want = _ref_run(_dispatcher(stack), list(events), rng=4).trace_bytes()
    assert _dispatcher(stack).run(events, rng=4).trace_bytes() == want
    assert _dispatcher(stack).run(list(events), rng=4).trace_bytes() == want
    shuffled = list(events)
    random.Random(0).shuffle(shuffled)
    assert _dispatcher(stack).run(shuffled, rng=4).trace_bytes() == want
    assert _dispatcher(stack).run(iter(shuffled), rng=4).trace_bytes() == want


def test_run_orders_outages_at_arrival_hours_as_the_sort_did(stack):
    """Rejoins, then arrivals, then dropouts at one hour; an outage that
    ends where another starts; two arrivals of one hour in input order."""
    pool, clusters, _, _ = stack
    events = list(PoissonLoad(pool, 40.0).draw(6.0, as_generator(5)))
    hour = [t for t, _ in events]
    events.insert(41, (hour[40], pool.tasks[0]))  # a tie between arrivals
    c0, c1, c2 = (c.cluster_id for c in clusters)
    outages = [Outage(c0, hour[10], hour[30]), Outage(c1, hour[30], hour[60]),
               Outage(c0, hour[30], hour[40]), Outage(c2, hour[40], hour[80]),
               Outage(c1, hour[60], hour[61]), Outage(c2, hour[45], hour[80])]
    for stream in (events, events[::-1]):
        want = _ref_run(_dispatcher(stack), stream, rng=4, outages=outages)
        assert want.requeued > 0
        for given in (stream, as_schedule(stream)):
            got = _dispatcher(stack).run(given, rng=4, outages=outages)
            assert got.trace_bytes() == want.trace_bytes()
            assert (got.requeued, got.windows) == (want.requeued, want.windows)


# --------------------------------------------------------------------- #
# FleetController.route and the hash ring.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def family_fleet():
    """Two family shards: a full outage of one re-routes to the other."""
    serve = ServeConfig(pool_size=40, train_epochs=2, max_wait_hours=0.25,
                        solver_max_iters=300, journey_sample=1.0)
    return FleetController(FleetConfig(n_shards=2, partition="family", pool_m=4,
                                       serve=serve))


@pytest.mark.parametrize("routing", ["hash", "load"])
def test_route_splits_as_the_sorted_list_did(family_fleet, routing):
    controller = family_fleet
    controller.config = FleetConfig(n_shards=2, partition="family", pool_m=4,
                                    routing=routing, serve=controller.config.serve)
    drawn = make_load("bursty", controller.pool, 60.0).draw(5.0, as_generator(3))
    pairs = list(drawn)
    # Ties on the hour, broken by task id, and on both, kept in order.
    pairs += [(pairs[7][0], task) for task in controller.pool.tasks[:5]]
    random.Random(1).shuffle(pairs)
    outages = [Outage(c.cluster_id, 1.0, 3.0) for c in controller.shard_clusters[0]]
    for stream in (drawn, pairs):
        for outs in (None, outages):
            events, routes, rerouted, journeys = _ref_route(controller, stream, outs)
            got_events, got_routes, got_rerouted = controller.route(stream, outs)
            assert [list(s) for s in got_events] == events
            assert [list(s) for s in got_routes] == routes
            assert got_routes == routes and got_rerouted == rerouted
            assert controller.last_route_journeys == journeys
            assert all(s.items is got_events[0].items for s in got_events)
    assert rerouted > 0


def test_ring_preference_memo_is_the_ring_walk():
    for n_shards in (1, 2, 4, 7):
        ring = HashRing(n_shards)
        keys = [str(k) for k in range(300)] + ["", "shard-0#0", "task-x"]
        for key in keys + keys[::-1]:
            assert ring.preference(key) == _ref_preference(ring, key)
            assert ring.owner(key) == _ref_preference(ring, key)[0]
        assert len(ring._preferences) == len(keys)
