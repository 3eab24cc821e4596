"""Warm-start solver cache and predictor forward-pass memoization.

Consecutive serving windows solve *nearly the same* barrier program: the
cluster fleet changes rarely, batch sizes live in a narrow band, and task
specs repeat because jobs are drawn from a finite population.  Following
the learned-duals idea (Dinitz et al., 2021 — reuse prior solutions to cut
matching cost), this module recycles two artifacts across windows:

- :class:`WarmStartCache` — per ``(cluster-set signature, batch-size
  bucket)`` key it remembers the previous relaxed solve: one simplex
  *column* per task id (the task's soft assignment over clusters), the
  mean column for unseen tasks, and the solver's step memory (how many
  backtracking halvings the final accepted iterate needed).  Seeding the
  next window from those columns lands the solver near its optimum, so the
  ``tol``/``patience`` early-stop rule fires after a handful of iterations
  instead of a full descent.  Warm starts never change *feasibility*
  semantics: a seed that is not strictly interior for the new instance is
  blended toward the instance's own interior start, and the solver itself
  falls back to a cold start if the seed is still infeasible — only the
  iteration count changes, not the fixed point being approximated.
- :class:`PredictionMemo` — memoized predictor forward passes keyed by
  task id, invalidated wholesale on checkpoint hot-swap (``bump``).  A
  repeated task spec costs a dict lookup instead of 2·M MLP forwards.
- :class:`ColumnTable` — what the memo is made of: per task id, two
  columns over the clusters, computed on first sight and stacked into
  window matrices.  The dispatcher holds a second one for the ground
  truth (``Dispatcher.truth``), which no hot-swap invalidates.

All are bounded (LRU on insertion order) so a long-running dispatcher
holds O(1) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.matching.relaxed import RelaxedSolution, SolverConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.methods.base import BaseMethod
    from repro.workloads.taskpool import Task

__all__ = [
    "CacheKey",
    "WarmStartCache",
    "ColumnTable",
    "PredictionMemo",
    "batch_size_bucket",
    "make_cache_key",
]

#: Strictly positive floor applied to seeded columns so every coordinate
#: stays alive under the multiplicative mirror update.
_COL_FLOOR = 1e-6

CacheKey = tuple[tuple[int, ...], int]


def batch_size_bucket(n: int) -> int:
    """Power-of-two bucket index for a batch size (1→0, 2→1, 3-4→2, ...).

    Bucketing keeps the step memory regime-specific — a 4-task window and a
    128-task window have very different barrier stiffness — without
    fragmenting the cache into one entry per exact batch size.
    """
    if n <= 0:
        raise ValueError(f"batch size must be positive, got {n}")
    return int(n - 1).bit_length()


def make_cache_key(cluster_ids: Sequence[int], batch_size: int) -> CacheKey:
    """Cache key: (sorted cluster-set signature, batch-size bucket)."""
    return tuple(sorted(int(c) for c in cluster_ids)), batch_size_bucket(batch_size)


@dataclass
class _Entry:
    """One cached window solution for a (cluster set, size bucket) key."""

    columns: dict[int, np.ndarray]  # task_id -> (M,) simplex column
    mean_column: np.ndarray  # (M,) fallback for unseen tasks
    halvings: int  # step memory of the stored solve


@dataclass
class WarmStartCache:
    """Bounded warm-start store for the projected-gradient solver."""

    max_entries: int = 16
    max_columns: int = 4096  # per entry
    hits: int = 0
    misses: int = 0
    _entries: dict[CacheKey, _Entry] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.max_entries <= 0 or self.max_columns <= 0:
            raise ValueError("max_entries and max_columns must be positive")

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #

    def seed(
        self, key: CacheKey, tasks: "Sequence[Task]", m: int
    ) -> np.ndarray | None:
        """A column-stochastic warm start for an ``(m, len(tasks))`` solve.

        Columns of tasks seen in the cached window are reused verbatim;
        unseen tasks get the cached mean column.  The assembled iterate is
        floored/renormalized (mirror updates need strictly positive
        coordinates); *feasibility* against the new instance is the
        solver's job — :func:`~repro.matching.relaxed.solve_relaxed`
        blends an infeasible warm start toward the instance's interior
        point, so a stale seed can only cost iterations, never change the
        program being solved.
        """
        entry = self._entries.get(key)
        used_key = key
        if entry is None or entry.mean_column.size != m:
            # Bucket fallback: a task's simplex column does not depend on
            # how many other tasks share its window, so a neighbouring
            # size bucket's columns are still a good seed (only the step
            # memory is regime-specific — see :meth:`solver_config`).
            # Without this every flush/ramp-up window with an off-bucket
            # batch size would start cold.
            sig, bucket = key
            candidates = [
                (abs(b - bucket), (s, b))
                for (s, b), e in self._entries.items()
                if s == sig and e.mean_column.size == m
            ]
            if not candidates:
                self.misses += 1
                return None
            used_key = min(candidates)[1]
            entry = self._entries[used_key]
        cols = entry.columns
        known = sum(1 for task in tasks if task.task_id in cols)
        if 2 * known < len(tasks):
            # Mostly-unseen batch: a seed built chiefly from the mean
            # column is no better than the uniform start and occasionally
            # worse (it biases every unseen task the same way).  Declare a
            # miss and let the solver start cold.
            self.misses += 1
            return None
        X0 = np.empty((m, len(tasks)))
        for j, task in enumerate(tasks):
            X0[:, j] = cols.get(task.task_id, entry.mean_column)
        X0 = np.maximum(X0, _COL_FLOOR)
        X0 /= X0.sum(axis=0, keepdims=True)
        self.hits += 1
        # Touch for LRU recency.
        self._entries[used_key] = self._entries.pop(used_key)
        return X0

    def solver_config(self, key: CacheKey, base: SolverConfig) -> SolverConfig:
        """Step-memory override: reopen near the previously accepted step.

        Backtracking still adapts in both directions, so this only skips
        the rejected trial evaluations the previous window already paid
        for (one level of headroom is kept so the step can grow back).
        """
        entry = self._entries.get(key)
        if entry is None or entry.halvings <= 1:
            return base
        return replace(base, lr=base.lr / 2.0 ** (entry.halvings - 1))

    def store(
        self,
        key: CacheKey,
        tasks: "Sequence[Task]",
        solution: RelaxedSolution,
    ) -> None:
        """Record a finished window solve under ``key``."""
        X = np.asarray(solution.X)
        if X.ndim != 2 or X.shape[1] != len(tasks):
            raise ValueError(f"solution/tasks mismatch: {X.shape} vs {len(tasks)} tasks")
        entry = self._entries.pop(key, None)
        if entry is None or entry.mean_column.size != X.shape[0]:
            entry = _Entry(columns={}, mean_column=X.mean(axis=1), halvings=0)
        for j, task in enumerate(tasks):
            entry.columns.pop(task.task_id, None)  # re-insert for LRU order
            entry.columns[task.task_id] = X[:, j].copy()
        while len(entry.columns) > self.max_columns:
            entry.columns.pop(next(iter(entry.columns)))
        entry.mean_column = X.mean(axis=1)
        entry.halvings = solution.halvings
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))

    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class ColumnTable:
    """Bounded per-task store of column pairs, filled on first sight.

    One entry per task id: two ``(M,)`` columns (a task's value on every
    cluster, for two quantities) and the *owner* the entry was computed
    for.  :meth:`gather` assembles ``(M, N)`` matrices for a task list from
    stored columns and has ``compute`` fill in the rest.  ``owner``
    (``task -> object``) guards reuse by identity: an id that comes back
    with another owner is a miss, never the old entry's answer.  With
    ``repeat`` a task that is missing in several slots of one list is
    handed to ``compute`` once per slot, otherwise once.  Entries leave
    least-recently-used first once ``capacity`` is exceeded.
    """

    def __init__(self, capacity: int = 4096, owner=None, repeat: bool = False) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0  # task slots served from the table
        self.misses = 0  # task slots that waited for ``compute``
        self._owner = owner or (lambda task: None)
        self._repeat = repeat
        self._cols: dict[int, tuple[object, np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._cols)

    def gather(self, tasks: "Sequence[Task]", compute) -> tuple[np.ndarray, np.ndarray]:
        """Two fresh ``(M, len(tasks))`` matrices, one column per task slot.

        ``compute(missing)`` returns the two ``(M, len(missing))`` matrices
        of the tasks the table does not hold, in slot order.
        """
        cols, owner_of = self._cols, self._owner
        picked: list = [None] * len(tasks)  # the entry behind every slot
        missing: "dict[tuple[int, int], list[int]]" = {}  # (id, owner) -> its slots
        for j, task in enumerate(tasks):
            owner = owner_of(task)
            entry = cols.get(task.task_id)
            if entry is not None and entry[0] is owner:
                picked[j] = entry
            else:
                missing.setdefault((task.task_id, id(owner)), []).append(j)
        if missing:
            # A task stands at its last missing slot (the column the memo
            # has always kept when a batch repeated an id).
            batch = sorted(j for slots in missing.values()
                           for j in (slots if self._repeat else slots[-1:]))
            first, second = compute([tasks[j] for j in batch])
            column = {j: k for k, j in enumerate(batch)}
            for slots in missing.values():
                task, k = tasks[slots[-1]], column[slots[-1]]
                entry = (owner_of(task), first[:, k].copy(), second[:, k].copy())
                cols[task.task_id] = entry
                for j in slots:
                    picked[j] = entry
        missed = sum(map(len, missing.values()))
        self.misses += missed
        self.hits += len(tasks) - missed
        out = (np.stack([entry[1] for entry in picked], axis=1),
               np.stack([entry[2] for entry in picked], axis=1))
        # LRU recency + capacity bound.
        for task in tasks:
            cols[task.task_id] = cols.pop(task.task_id)
        while len(cols) > self.capacity:
            cols.pop(next(iter(cols)))
        return out

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._cols),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }


class PredictionMemo(ColumnTable):
    """Memoized predictor forward passes for repeated task specs.

    Stores one ``(t̂ column, â column)`` pair per task id — the full
    M-cluster prediction for that task — and assembles round matrices from
    cached columns, calling ``method.predict`` only for the misses.
    ``bump()`` invalidates everything; the dispatcher calls it on
    checkpoint hot-swap so stale-model predictions can never leak into a
    post-swap window.
    """

    def __init__(self, capacity: int = 4096) -> None:
        # ``repeat``: a forward pass is not bitwise batch-invariant (BLAS
        # picks its kernel by batch size: 83 of 200 random serving batches
        # moved T̂ by an ulp when their repeated ids were dropped), and an
        # ulp decides which of two identical tasks of one window goes where
        # — the trace digests.  So ``method.predict`` keeps getting one row
        # per missing slot, as it always has.
        super().__init__(capacity, repeat=True)
        self.version = 0

    def bump(self) -> None:
        """Invalidate the memo (model hot-swap: new weights, new columns)."""
        self.version += 1
        self._cols.clear()

    def predict(
        self, method: "BaseMethod", tasks: "Sequence[Task]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """(T̂, Â) for ``tasks``, shape (M, N), reusing cached columns."""
        return self.gather(tasks, method.predict)

    def stats(self) -> dict:
        return {**super().stats(), "version": self.version}
