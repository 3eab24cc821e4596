"""The serving loop under generated schedules, one handler call at a time.

:class:`repro.serve.ServeLoop` is driven directly — arrivals, dropouts
(all clusters down allowed), rejoins and bare clock advances in any legal
order, both shed policies, queues of 2-6, windows of 1-4, a dispatcher
that is busy for a while after each window.  The invariants Shah et al.
reason with hold after *every* transition, not only on finished runs:
nothing is lost, the queue stays bounded with orphans in front, nothing is
dispatched before it arrived or onto a cluster that is down, and every
window's true ``T``/``A`` are the cluster models' over its up clusters.  At the end the books close, the journey audit is clean, and
:meth:`Dispatcher.run` — the sorting driver over the same handlers — given
the same events and outages returns the same trace, byte for byte.
"""

from __future__ import annotations

import functools
from contextlib import ExitStack

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.clusters import make_setting
from repro.matching.relaxed import SolverConfig
from repro.methods import TSM, FitContext, MatchSpec
from repro.predictors.training import TrainConfig
from repro.serve import Dispatcher, DispatcherConfig, Outage
from repro.telemetry import audit_journeys, journeys_from_events
from repro.workloads import TaskPool
from tests.conftest import journey_log

#: Gaps between events: zero (simultaneous events), well inside and well
#: beyond the 0.1 h window wait and the dispatcher's busy time.
GAPS = st.sampled_from([0.0, 0.0, 0.01, 0.04, 0.15, 0.6])


@functools.cache
def _stack():
    """A TSM stack on setting A, fitted once for the whole module."""
    pool = TaskPool(24, rng=0)
    clusters = make_setting("A")
    train, _ = pool.split(0.6, rng=1)
    spec = MatchSpec(solver=SolverConfig(tol=1e-4, max_iters=300))
    method = TSM(train_config=TrainConfig(epochs=8)).fit(
        FitContext.build(clusters, train, spec, rng=2))
    return pool, clusters, spec, method


def _dispatcher(cfg: DispatcherConfig) -> Dispatcher:
    _, clusters, spec, method = _stack()
    return Dispatcher(clusters, method, spec, cfg)


def _close_the_books(loop, log):
    """``finish()`` and every end-of-run identity, the journeys read back
    from ``log`` (the active recorder's events); returns the stats."""
    stranded = len(loop.queue) if len(loop.down) == len(loop.free_at) else 0
    stats = loop.finish()
    assert stats.conserved
    assert stats.matched == stats.completed + stats.failed + stats.requeued
    assert stats.unserved == stranded
    expect = {name: getattr(stats, name) for name in (
        "arrived", "matched", "completed", "failed", "shed", "requeued", "unserved")}
    assert audit_journeys(journeys_from_events(log), expect=expect, sample=1.0) == []
    return stats


class ServeLoopMachine(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(["reject", "drop_oldest"]),
        capacity=st.integers(2, 6),
        max_batch=st.integers(1, 4),
        overhead=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 3),
    )
    def open(self, policy, capacity, max_batch, overhead, seed):
        self.cfg = DispatcherConfig(
            max_batch=max_batch, max_wait_hours=0.1, queue_capacity=capacity,
            shed_policy=policy, dispatch_overhead_hours=overhead, journey_sample=1.0)
        self.seed = seed
        self.stack = ExitStack()
        self.log = self.stack.enter_context(journey_log())
        self.dispatcher = _dispatcher(self.cfg)
        self.loop = self.dispatcher.start(rng=seed)
        self.loop._form = self._checked_form(self.loop._form)
        self.t = 0.0
        #: Kind of the last event at ``self.t`` in run()'s order: 0 rejoin,
        #: 1 arrival, 2 dropout, 3 nothing more may share this instant.
        self.kind = 0
        self.events: list = []
        self.outages: "list[Outage]" = []
        self.down_since: "dict[int, float]" = {}
        self.seen: "set[tuple[int, float]]" = set()

    @staticmethod
    def _checked_form(form):
        """Every dispatched window's truth, assembled from the dispatcher's
        per-task columns, is the matrices evaluated afresh over its ups."""
        def checked(now):
            w = form(now)
            assert np.array_equal(w.T, np.stack([c.true_times(w.tasks) for c in w.ups]))
            assert np.array_equal(
                w.A, np.stack([c.true_reliabilities(w.tasks) for c in w.ups]))
            return w
        return checked

    def _at(self, gap: float, kind: int) -> float:
        """The next event's time.  Simultaneous events must come in the
        order :meth:`Dispatcher.run` sorts them into, so a kind that would
        sort earlier than the last one moves the clock instead."""
        if gap == 0.0 and kind < self.kind:
            gap = 0.01
        self.t += gap
        self.kind = kind
        return self.t

    @rule(gap=GAPS, pick=st.integers(0, 23))
    def arrive(self, gap, pick):
        t = self._at(gap, 1)
        tasks = _stack()[0].tasks
        while (tasks[pick].task_id, t) in self.seen:  # a journey's identity
            pick = (pick + 1) % len(tasks)
        self.seen.add((tasks[pick].task_id, t))
        self.loop.arrive(t, tasks[pick])
        self.events.append((t, tasks[pick]))

    @precondition(lambda self: len(self.down_since) < len(self.loop.free_at))
    @rule(gap=GAPS, pick=st.integers(0, 2))
    def cluster_down(self, gap, pick):
        t = self._at(gap, 2)
        self.kind = 3  # two dropouts at one instant go by outage index
        ups = [c for c in self.loop.free_at if c not in self.down_since]
        cid = ups[pick % len(ups)]
        self.loop.cluster_down(t, cid)
        self.down_since[cid] = t

    @precondition(lambda self: self.down_since)
    @rule(gap=GAPS, pick=st.integers(0, 2))
    def cluster_up(self, gap, pick):
        t = self._at(gap, 0)
        cid = sorted(self.down_since)[pick % len(self.down_since)]
        self.loop.cluster_up(t, cid)
        assert self.loop.free_at[cid] == t  # it rejoins clean
        self.outages.append(Outage(cid, self.down_since.pop(cid), t))

    @rule(gap=GAPS)
    def advance(self, gap):
        if gap > 0.0:
            self.kind = 0
        self.t += gap
        self.loop.advance(self.t)
        ripe = self.loop._ripe_at()
        assert ripe is None or ripe > self.t  # "at or before t" includes t

    @invariant()
    def nothing_lost_nothing_early_queue_bounded(self):
        loop, stats = self.loop, self.loop.stats
        scheduled = [r for jobs in loop.schedule.values() for _task, r in jobs]
        assert stats.arrived == len(loop.queue) + len(scheduled) + stats.shed
        assert len(loop.queue) <= self.cfg.queue_capacity + stats.requeued
        assert all(r.dispatched >= r.arrival for r in scheduled)
        assert loop.down == dict.fromkeys(self.down_since, 1)
        # Orphans wait in front of everything admitted since ...
        orphan = [q.requeues > 0 for q in loop.queue]
        assert orphan == sorted(orphan, reverse=True)
        # ... and nothing was dispatched onto a cluster while it was down.
        gone = self.outages + [Outage(c, t, float("inf"))
                               for c, t in self.down_since.items()]
        assert not any(o.start <= r.dispatched < o.end
                       for o in gone for r in scheduled if r.cluster_id == o.cluster_id)

    def teardown(self):
        if not hasattr(self, "loop"):
            return
        with self.stack:
            stats = _close_the_books(self.loop, self.log)
        if not self.down_since:  # run() ends every outage it is given
            again = _dispatcher(self.cfg).run(
                self.events, rng=self.seed, outages=self.outages)
            assert again.trace_bytes() == stats.trace_bytes()


ServeLoopMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30)
TestServeLoopMachine = ServeLoopMachine.TestCase


def test_finish_with_every_cluster_down_strands_the_queue():
    pool, clusters, _, _ = _stack()
    cfg = DispatcherConfig(max_batch=2, max_wait_hours=0.1, queue_capacity=2,
                           shed_policy="drop_oldest", dispatch_overhead_hours=1.0,
                           journey_sample=1.0)
    loop = _dispatcher(cfg).start(rng=0)
    with journey_log() as log:
        loop.arrive(0.0, pool.tasks[0])
        loop.arrive(0.01, pool.tasks[1])  # a full window: dispatched, busy until 1.01
        for c in clusters:
            loop.cluster_down(0.02, c.cluster_id)  # both jobs come back as orphans
        loop.arrive(0.03, pool.tasks[2])  # queue full of orphans: nothing to evict
        stats = _close_the_books(loop, log)
    assert (stats.unserved, stats.requeued, stats.shed) == (2, 2, 1)
    assert stats.windows == 1 and not stats.records


def test_loop_rejects_backwards_time_and_unknown_clusters():
    pool, clusters, spec, method = _stack()
    dispatcher = Dispatcher(clusters, method, spec)
    loop = dispatcher.start(rng=0)
    loop.arrive(1.0, pool.tasks[0])
    for call in (lambda: loop.arrive(0.5, pool.tasks[1]),
                 lambda: loop.advance(0.9),
                 lambda: loop.cluster_down(0.9, clusters[0].cluster_id),
                 lambda: loop.cluster_down(2.0, 99),
                 lambda: loop.cluster_up(2.0, 99),
                 lambda: loop.cluster_up(2.0, clusters[0].cluster_id),  # not down
                 lambda: dispatcher.start(outages=[Outage(99, 0.0, 1.0)])):
        with pytest.raises(ValueError):
            call()
    assert loop.finish().arrived == 1  # the rejected calls changed nothing
