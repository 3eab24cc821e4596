"""Windows formed from per-task truth columns are the per-window matrices.

The dispatcher keeps each task's ground-truth ``(t, a)`` columns in a
:class:`repro.serve.cache.ColumnTable` and assembles a window's ``T``/``A``
from them instead of evaluating every cluster model twice per window.
``_PerWindowTruth`` below forms windows the way ``ServeLoop._form`` did —
two list comprehensions over the up clusters — and is the oracle: traces
and every matrix an observer sees must be byte-equal to it.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_pool, make_setting, make_specialist_pool
from repro.matching.relaxed import SolverConfig
from repro.methods import TSM, FitContext, MatchSpec
from repro.predictors.training import TrainConfig
from repro.serve import (
    Dispatcher,
    DispatcherConfig,
    ModelRegistry,
    Outage,
    PredictionMemo,
    ServeCallback,
    make_load,
)
from repro.serve.cache import ColumnTable
from repro.utils.rng import as_generator
from repro.workloads import TaskPool
from repro.workloads.taskpool import Task


class _PerWindowTruth(Dispatcher):
    """Window formation as it was: the truth re-evaluated for every window."""

    def true_matrices(self, tasks, rows=None):
        ups = self.clusters if rows is None else [self.clusters[i] for i in rows]
        return (np.stack([c.true_times(tasks) for c in ups]),
                np.stack([c.true_reliabilities(tasks) for c in ups]))


class _Keep(ServeCallback):
    def __init__(self) -> None:
        self.snapshots = []

    def on_window(self, snapshot) -> None:
        self.snapshots.append(snapshot)


@functools.cache
def _stack(fleet: str):
    clusters = {"A": lambda: make_setting("A"),
                "pool8": lambda: make_pool(8, rng=3),
                "wide24": lambda: make_specialist_pool(24)}[fleet]()
    pool = TaskPool(96 if fleet == "wide24" else 32, rng=0)
    train, _ = pool.split(0.6, rng=1)
    spec = MatchSpec(solver=SolverConfig(tol=1e-4, max_iters=300))
    method = TSM(train_config=TrainConfig(epochs=3)).fit(
        FitContext.build(clusters, train, spec, rng=2))
    return pool, clusters, spec, method


def _run(cls, fleet, cfg, events, outages=None, **kw):
    _, clusters, spec, method = _stack(fleet)
    keep = _Keep()
    dispatcher = cls(clusters, method, spec, cfg, callbacks=[keep], **kw)
    stats = dispatcher.run(events, rng=11, outages=outages)
    return stats, keep.snapshots, dispatcher


def _assert_same_run(fleet, cfg, events, outages=None, **kw):
    stats, snaps, dispatcher = _run(Dispatcher, fleet, cfg, events, outages, **kw)
    ref, ref_snaps, _ = _run(_PerWindowTruth, fleet, cfg, events, outages, **kw)
    assert stats.windows == ref.windows == len(snaps) > 3
    assert stats.trace_bytes() == ref.trace_bytes()
    for got, want in zip(snaps, ref_snaps):
        assert got.cluster_ids == want.cluster_ids and got.task_ids == want.task_ids
        for name in ("T", "A", "T_hat", "A_hat", "X"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes(), name
    truth = stats.truth
    assert truth["hits"] + truth["misses"] == stats.matched
    assert truth["entries"] <= truth["misses"] and truth["hits"] > 0
    assert stats.truth == dispatcher.truth.stats() and not ref.truth["hits"]
    return stats, snaps, dispatcher


def _events(fleet, rate, horizon, seed=5):
    return make_load("poisson", _stack(fleet)[0], rate).draw(horizon, as_generator(seed))


def test_steady_setting_a():
    cfg = DispatcherConfig(max_batch=16, max_wait_hours=0.25, queue_capacity=128)
    stats, _, _ = _assert_same_run("A", cfg, _events("A", 60.0, 4.0))
    assert stats.truth["hit_rate"] > 0.8  # 240 draws from a pool of 32


def test_outages_requeues_and_drop_oldest_subset_the_rows():
    cfg = DispatcherConfig(max_batch=8, max_wait_hours=0.05, queue_capacity=5,
                           shed_policy="drop_oldest", dispatch_overhead_hours=0.1)
    outages = [Outage(2, 0.3, 0.9), Outage(5, 0.6, 1.4), Outage(0, 1.1, 1.3),
               Outage(7, 2.0, 2.6), Outage(2, 2.2, 2.4)]
    events = make_load("bursty", _stack("pool8")[0], 120.0).draw(3.0, as_generator(5))
    stats, snaps, _ = _assert_same_run("pool8", cfg, events, outages)
    assert stats.requeued > 0 and stats.shed > 0
    # The up-set changes mid-run and rows follow it, in fleet order.
    assert {len(s.cluster_ids) for s in snaps} >= {6, 7, 8}
    assert all(s.T.shape[0] == len(s.cluster_ids) and
               list(s.cluster_ids) == sorted(s.cluster_ids) for s in snaps)


def test_wide_specialist_fleet_in_blocks_mode():
    cfg = DispatcherConfig(max_batch=64, max_wait_hours=0.25, queue_capacity=256,
                           solve_mode="blocks")
    stats, snaps, _ = _assert_same_run("wide24", cfg, _events("wide24", 400.0, 1.0))
    assert max(s.T.shape for s in snaps) == (24, 64)
    # A pool of 96 drawn 64 at a time: ids repeat inside one window.
    assert any(len(set(s.task_ids)) < len(s.task_ids) for s in snaps)


def test_a_hot_swap_bumps_the_memo_and_leaves_the_table(tmp_path):
    _, _, _, method = _stack("A")
    cfg = DispatcherConfig(max_batch=8, max_wait_hours=0.25, queue_capacity=64)
    events = _events("A", 60.0, 2.0)
    runs = []
    for k, cls in enumerate((Dispatcher, _PerWindowTruth)):
        registry = ModelRegistry(tmp_path / f"reg{k}")
        registry.save(method, tag="fit")
        memo = PredictionMemo()
        runs.append(_run(cls, "A", cfg, events, registry=registry, memo=memo,
                         swap_schedule={3: "v0001"}) + (memo,))
    (stats, snaps, dispatcher, memo), (ref, ref_snaps, _, _) = runs
    assert stats.swaps == ref.swaps == 1 and memo.version == 1
    assert stats.trace_bytes() == ref.trace_bytes()
    assert all(a.T.tobytes() == b.T.tobytes() and a.A.tobytes() == b.A.tobytes()
               for a, b in zip(snaps, ref_snaps))
    # The swap (same weights back in) emptied the memo and not the table:
    # its counts are a swap-free run's, one entry per task ever seen.
    plain, _, _ = _run(Dispatcher, "A", cfg, events)
    assert stats.truth == plain.truth
    assert stats.truth["entries"] == len({t.task_id for _, t in events})
    assert stats.memo["misses"] > plain.memo["misses"]


# --------------------------------------------------------------------- #
# The table itself.
# --------------------------------------------------------------------- #


class _CountingCluster:
    """A cluster that counts its ground-truth reads (tasks per call)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.cluster_id = inner.cluster_id
        self.calls: "list[int]" = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def true_times(self, tasks):
        self.calls.append(len(tasks))
        return self._inner.true_times(tasks)

    def true_reliabilities(self, tasks):
        self.calls.append(len(tasks))
        return self._inner.true_reliabilities(tasks)


def _counting_dispatcher():
    pool, clusters, spec, method = _stack("A")
    counting = [_CountingCluster(c) for c in clusters]
    return pool, counting, Dispatcher(counting, method, spec)


def test_a_repeated_id_is_computed_once_and_fills_both_columns():
    pool, counting, dispatcher = _counting_dispatcher()
    a, b = pool.tasks[0], pool.tasks[1]
    T, A = dispatcher.true_matrices([a, b, a])
    assert all(c.calls == [2, 2] for c in counting)  # two distinct tasks, T then A
    assert np.array_equal(T[:, 0], T[:, 2]) and np.array_equal(A[:, 0], A[:, 2])
    assert np.array_equal(T, np.stack([c.true_times([a, b, a]) for c in _stack("A")[1]]))
    assert (dispatcher.truth.hits, dispatcher.truth.misses) == (0, 3)  # task slots
    dispatcher.true_matrices([b, a])
    assert all(c.calls == [2, 2] for c in counting)
    assert (dispatcher.truth.hits, dispatcher.truth.misses) == (2, 3)


def test_the_memo_keeps_handing_the_predictor_one_row_per_missing_slot():
    """A forward pass is not bitwise batch-invariant, so unlike the truth
    the memo does not drop a window's repeated ids from the batch (it
    would move T̂ by an ulp, and the trace digests with it); the stored
    column is the last repeat's, as it always was."""
    pool, _, _, method = _stack("A")
    batches = []

    class Counting:
        def predict(self, tasks):
            batches.append([t.task_id for t in tasks])
            return method.predict(tasks)

    memo = PredictionMemo()
    a, b, c = pool.tasks[:3]
    T_hat, A_hat = memo.predict(Counting(), [a, b, a, a])
    assert batches == [[a.task_id, b.task_id, a.task_id, a.task_id]]
    T_ref, A_ref = method.predict([a, b, a, a])
    assert np.array_equal(T_hat, T_ref[:, [3, 1, 3, 3]])
    assert np.array_equal(A_hat, A_ref[:, [3, 1, 3, 3]])
    assert (memo.hits, memo.misses) == (0, 4)  # slots
    memo.predict(Counting(), [b, c, a, c])
    assert batches[1] == [c.task_id, c.task_id]
    assert (memo.hits, memo.misses) == (2, 6)


def test_a_reused_id_with_another_spec_is_a_miss():
    pool, counting, dispatcher = _counting_dispatcher()
    a, b = pool.tasks[0], pool.tasks[1]
    dispatcher.true_matrices([a])
    impostor = Task(task_id=a.task_id, spec=b.spec, features=a.features)
    T, _ = dispatcher.true_matrices([impostor])
    assert dispatcher.truth.misses == 2 and len(dispatcher.truth) == 1
    assert np.array_equal(T[:, 0], [c.true_time(b) for c in counting])
    # Both in one window: each slot gets its own spec's column.
    T, _ = dispatcher.true_matrices([a, impostor, a])
    assert np.array_equal(T[:, 1], [c.true_time(b) for c in counting])
    assert np.array_equal(T[:, 0], [c.true_time(a) for c in counting])
    assert np.array_equal(T[:, 0], T[:, 2])
    # An equal spec in another object is still another owner.
    twin = Task(task_id=b.task_id, spec=replace(b.spec), features=b.features)
    dispatcher.true_matrices([b])
    before = dispatcher.truth.misses
    dispatcher.true_matrices([twin])
    assert dispatcher.truth.misses == before + 1


def test_no_view_of_the_table_reaches_an_observer():
    pool, clusters, spec, method = _stack("A")

    class Vandal(ServeCallback):
        def on_window(self, snapshot) -> None:
            for M in (snapshot.T, snapshot.A):  # frozen by the window's problem
                M.setflags(write=True)
                M[:] = -1.0

    cfg = DispatcherConfig(max_batch=8, max_wait_hours=0.25, queue_capacity=64)
    events = _events("A", 60.0, 2.0)
    clean = Dispatcher(clusters, method, spec, cfg).run(events, rng=11)
    dirty = Dispatcher(clusters, method, spec, cfg, callbacks=[Vandal()])
    assert dirty.run(events, rng=11).trace_bytes() == clean.trace_bytes()
    T, A = dirty.true_matrices(pool.tasks)
    assert (T > 0).all() and (A > 0).all()
    T[:] = 0.0  # nor is what true_matrices hands out a view
    assert (dirty.true_matrices(pool.tasks)[0] > 0).all()
    T, _ = dirty.true_matrices(pool.tasks, rows=[0, 2])
    T[:] = 0.0
    assert (dirty.true_matrices(pool.tasks)[0] > 0).all()


def test_capacity_evicts_the_least_recently_used():
    table = ColumnTable(capacity=3)
    tasks = _stack("A")[0].tasks

    def compute(missing):
        ids = np.ones((2, 1)) * [float(t.task_id) for t in missing]
        return ids, -ids

    table.gather(tasks[:3], compute)  # holds 0 1 2
    table.gather([tasks[0]], compute)  # touches 0: order 1 2 0
    first, second = table.gather([tasks[3]], compute)  # evicts 1
    assert first.tolist() == [[3.0], [3.0]] and second.tolist() == [[-3.0], [-3.0]]
    assert len(table) == 3 and table.misses == 4
    table.gather([tasks[0], tasks[2]], compute)
    assert table.misses == 4 and table.hits == 3
    table.gather([tasks[1]], compute)
    assert table.misses == 5
    with pytest.raises(ValueError):
        ColumnTable(capacity=0)
