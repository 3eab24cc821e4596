"""Label harvesting: turning served windows into predictor training data.

A deployed exchange platform observes, for every task it executes, the
busy time the cluster actually spent and whether the run succeeded —
exactly the ``(z, t, a)`` triples the two-stage predictors were trained
on offline (paper Eq. 1), except *free* and *fresh*.  This module
collects them from :class:`~repro.serve.dispatcher.WindowSnapshot`
streams into a bounded replay buffer the refit policy samples from.

Three realities of the serving loop make this harder than appending rows:

- **duplicates** — a cluster dropout orphans scheduled tasks, which are
  re-queued and re-dispatched; the same logical task then appears in two
  window snapshots, and only the *last* dispatch's execution is real.
  Labels are keyed by ``(task_id, arrival)`` (pool tasks recur across a
  stream, but each logical arrival is unique); a later dispatch
  overwrites the earlier phantom, and the dispatcher's ``on_requeue``
  hook lets the harvester :meth:`discard` a voided label the moment the
  orphan is re-queued — before any sampling could see it;
- **time travel** — a snapshot is built at *dispatch* time, but the
  execution it describes finishes at ``end``; a label must not train a
  model before the platform could have observed it.  :meth:`ready`
  filters on ``end <= now``, and every sampling entry point takes the
  current simulated hour;
- **censoring** — failed runs occupy their cluster for a truncated
  (not full) duration, so their ``realized_hours`` is a biased time
  label; they carry reliability signal only.  :meth:`datasets` splits
  accordingly.

Everything is driven by the caller's seeded generator and simulated
time — harvesting the same snapshot stream twice yields byte-identical
buffers and samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.serve.dispatcher import WindowSnapshot

__all__ = ["Label", "LabelDataset", "ReplayBuffer"]


@dataclass(frozen=True)
class Label:
    """One realized execution: the training example a served task yields."""

    task_id: int
    arrival: float  # together with task_id: the logical-arrival key
    cluster_id: int
    window: int
    dispatched: float
    end: float  # simulated hour the label becomes observable
    realized_hours: float  # busy time the cluster actually spent
    success: bool
    requeues: int
    features: np.ndarray  # raw task features z, shape (d,)

    @property
    def key(self) -> tuple[int, float]:
        return (self.task_id, self.arrival)


@dataclass(frozen=True)
class LabelDataset:
    """Per-cluster training arrays distilled from a set of labels.

    ``Z_time``/``t`` hold only successful executions (uncensored times);
    ``Z_rel``/``a`` hold every execution with its binary outcome.
    """

    cluster_id: int
    Z_time: np.ndarray
    t: np.ndarray
    Z_rel: np.ndarray
    a: np.ndarray

    @property
    def n_time(self) -> int:
        return len(self.t)

    @property
    def n_rel(self) -> int:
        return len(self.a)


#: Recency half-life of :meth:`ReplayBuffer.sample`'s weights, in hours.
HALF_LIFE_HOURS = 8.0

#: Labels a :class:`ReplayBuffer` keeps; the oldest by ``end`` go first.
CAPACITY = 4096

#: Share of a refit's sample :meth:`ReplayBuffer.split_holdout` holds out
#: for the canary gate.
HOLDOUT_FRACTION = 0.25


class ReplayBuffer:
    """Bounded, deduplicated store of realized execution labels."""

    def __init__(self) -> None:
        self._labels: "dict[tuple[int, float], Label]" = {}
        self.harvested = 0  # labels ingested (before dedup/eviction)
        self.superseded = 0  # overwrites of an earlier dispatch's label
        self.discarded = 0  # labels voided by on_requeue
        self.evicted = 0  # labels dropped by the CAPACITY bound

    # ------------------------------------------------------------------ #
    # Ingest.
    # ------------------------------------------------------------------ #

    def add(self, label: Label) -> None:
        """Insert one label; a later dispatch supersedes an earlier one."""
        self.harvested += 1
        prior = self._labels.get(label.key)
        if prior is not None:
            if label.dispatched < prior.dispatched:
                return  # out-of-order duplicate of an already-superseded run
            self.superseded += 1
        self._labels[label.key] = label
        if len(self._labels) > CAPACITY:
            oldest = min(self._labels.values(), key=lambda l: (l.end, l.key))
            del self._labels[oldest.key]
            self.evicted += 1

    def harvest(self, snapshot: WindowSnapshot) -> int:
        """Ingest every task of a dispatched window; returns labels added."""
        k = len(snapshot.task_ids)
        for j in range(k):
            self.add(Label(
                task_id=int(snapshot.task_ids[j]),
                arrival=float(snapshot.arrival[j]),
                cluster_id=int(snapshot.cluster_ids[
                    int(np.argmax(snapshot.X[:, j]))]),
                window=snapshot.window,
                dispatched=snapshot.time,
                end=float(snapshot.end[j]),
                realized_hours=float(snapshot.realized_hours[j]),
                success=bool(snapshot.success[j]),
                requeues=int(snapshot.requeues[j]),
                features=snapshot.features[j],
            ))
        return k

    def discard(self, task_id: int, arrival: float) -> bool:
        """Void the label of an orphaned (re-queued) dispatch, if present."""
        if self._labels.pop((task_id, arrival), None) is not None:
            self.discarded += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # Query / sample.
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._labels)

    def labels(self) -> "list[Label]":
        """All stored labels in deterministic (task_id, arrival) order."""
        return [self._labels[k] for k in sorted(self._labels)]

    def ready(self, now: float) -> "list[Label]":
        """Labels whose execution has finished by simulated hour ``now``."""
        return [l for l in self.labels() if l.end <= now]

    def sample(
        self,
        now: float,
        size: int,
        rng: np.random.Generator,
    ) -> "list[Label]":
        """Recency-weighted sample (no replacement) of observable labels.

        A label aged ``a`` hours (measured from its ``end``) is weighted
        ``2^(-a / HALF_LIFE_HOURS)``: recent traffic dominates so the
        refit chases the *current* workload mix, but older labels retain
        mass and keep rare task families represented.
        """
        pool = self.ready(now)
        if len(pool) <= size:
            return pool
        age = np.array([now - l.end for l in pool])
        weights = np.exp2(-age / HALF_LIFE_HOURS)
        weights /= weights.sum()
        idx = rng.choice(len(pool), size=size, replace=False, p=weights)
        return [pool[i] for i in sorted(idx)]

    def split_holdout(self, labels: "Iterable[Label]") -> "tuple[list[Label], list[Label]]":
        """(train, holdout): the *newest* :data:`HOLDOUT_FRACTION` by ``end`` held out.

        The canary gate scores candidates on the freshest slice — the
        traffic most like what the candidate will serve next — while the
        refit trains on the remainder, so the gate never grades a model
        on data it trained on.
        """
        ordered = sorted(labels, key=lambda l: (l.end, l.key))
        n_hold = max(1, int(round(len(ordered) * HOLDOUT_FRACTION))) if ordered else 0
        cut = len(ordered) - n_hold
        return ordered[:cut], ordered[cut:]

    # ------------------------------------------------------------------ #
    # Dataset assembly.
    # ------------------------------------------------------------------ #

    @staticmethod
    def datasets(labels: "Iterable[Label]") -> "dict[int, LabelDataset]":
        """Group labels into per-cluster training arrays.

        Returns ``{cluster_id: LabelDataset}``; clusters appear only when
        they received at least one label.
        """
        by_cluster: "dict[int, list[Label]]" = {}
        for label in labels:
            by_cluster.setdefault(label.cluster_id, []).append(label)
        out: "dict[int, LabelDataset]" = {}
        for cid in sorted(by_cluster):
            group = by_cluster[cid]
            ok = [l for l in group if l.success]
            out[cid] = LabelDataset(
                cluster_id=cid,
                Z_time=(np.stack([l.features for l in ok])
                        if ok else np.empty((0, 0))),
                t=np.array([l.realized_hours for l in ok]),
                Z_rel=np.stack([l.features for l in group]),
                a=np.array([float(l.success) for l in group]),
            )
        return out

    def stats(self) -> dict:
        """Counters for telemetry/tests (dedup bookkeeping included)."""
        return {
            "size": len(self._labels),
            "harvested": self.harvested,
            "superseded": self.superseded,
            "discarded": self.discarded,
            "evicted": self.evicted,
        }
