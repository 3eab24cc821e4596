"""Online trainer for the learned warm-start head (serve callback).

The :class:`~repro.serve.warmstart.WarmStartHead` needs ``(task features,
relaxed column)`` pairs; the serving loop produces them for free — every
dispatched window's :class:`~repro.serve.dispatcher.WindowSnapshot` now
carries ``X_relaxed``, the interior solution of the decision solve.  This
module closes that loop: :class:`WarmStartTrainer` rides along as a
:class:`~repro.serve.dispatcher.ServeCallback`, harvests labels, refits
the head every ``refit_every`` windows once ``min_labels`` have
accumulated, and installs the result as ``dispatcher.warm_model`` — from
which point cache-miss windows open from the head's prediction instead of
cold (guarded by the solver's cold-start hedge either way).

Causality rules mirror the predictor label harvester
(:mod:`repro.retrain.buffer`):

- only *full-fleet* windows are harvested — the head predicts columns
  over the whole fleet, and a degraded window's renormalized columns are
  optima of a different (sliced) problem;
- a hot-swap voids the buffer (``dispatcher.swap_epoch``): the old
  labels were relaxed optima of the *old* model's predicted problems;
- labels deduplicate per task id, newest wins, bounded by
  ``MAX_LABELS`` (oldest evicted) — deterministic, no RNG anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.dispatcher import ServeCallback, WindowSnapshot
from repro.serve.warmstart import WarmStartHead
from repro.telemetry import get_recorder

__all__ = ["WarmStartTrainer", "WarmStartTrainerConfig"]

#: Label buffer cap (oldest evicted).
MAX_LABELS = 2048


@dataclass(frozen=True)
class WarmStartTrainerConfig:
    """Knobs of the online warm-start head trainer."""

    min_labels: int = 32  # first fit waits for this many distinct tasks
    refit_every: int = 8  # windows between refits once warmed up
    epochs: int = 120
    lr: float = 0.5

    def __post_init__(self) -> None:
        if self.min_labels <= 0 or self.refit_every <= 0:
            raise ValueError("min_labels and refit_every must be positive")
        if MAX_LABELS < self.min_labels:
            raise ValueError(f"min_labels must be <= {MAX_LABELS}, the label buffer cap")
        if self.epochs <= 0 or self.lr <= 0:
            raise ValueError("epochs and lr must be positive")


def _harvest(
    snap: WindowSnapshot,
    fleet: "tuple[int, ...]",
    labels: "dict[int, tuple[np.ndarray, np.ndarray]]",
) -> int:
    """Fold one snapshot into the label dict; returns labels added."""
    if snap.X_relaxed is None or snap.features is None:
        return 0
    if tuple(snap.cluster_ids) != fleet:
        return 0  # degraded fleet: sliced problem, wrong label space
    added = 0
    for j, task_id in enumerate(snap.task_ids):
        key = int(task_id)
        # Newest label wins and moves to the back of the eviction order.
        labels.pop(key, None)
        labels[key] = (snap.features[j], snap.X_relaxed[:, j])
        added += 1
        while len(labels) > MAX_LABELS:
            labels.pop(next(iter(labels)))
    return added


class WarmStartTrainer(ServeCallback):
    """Serve callback that keeps the dispatcher's warm-start head fresh."""

    def __init__(self, config: "WarmStartTrainerConfig | None" = None) -> None:
        self.config = config or WarmStartTrainerConfig()
        self.dispatcher = None
        self.head: "WarmStartHead | None" = None
        self._labels: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}
        self._epoch = 0  # dispatcher.swap_epoch the buffer belongs to
        self._since_fit = 0
        self.fits = 0
        self.harvested = 0
        self.invalidated = 0

    def bind(self, dispatcher) -> "WarmStartTrainer":
        """Attach to the dispatcher whose windows this trainer observes."""
        self.dispatcher = dispatcher
        self._epoch = dispatcher.swap_epoch
        return self

    # ------------------------------------------------------------------ #

    def on_window(self, snapshot: WindowSnapshot) -> None:
        if self.dispatcher is None:
            raise RuntimeError("WarmStartTrainer.bind(dispatcher) was never called")
        rec = get_recorder()
        if self.dispatcher.swap_epoch != self._epoch:
            # Hot-swap since the last window: every buffered label is a
            # relaxed optimum of the *old* model's problems.  Start over
            # (apply_swap already replaced/cleared the live head).
            self._labels.clear()
            self._epoch = self.dispatcher.swap_epoch
            self._since_fit = 0
            self.invalidated += 1
            if rec.enabled:
                rec.counter_add("warmstart/buffer_invalidated")
        fleet = tuple(c.cluster_id for c in self.dispatcher.clusters)
        n = _harvest(snapshot, fleet, self._labels)
        self.harvested += n
        if rec.enabled and n:
            rec.counter_add("warmstart/labels_harvested", n)
        self._since_fit += 1
        if (len(self._labels) >= self.config.min_labels
                and self._since_fit >= self.config.refit_every):
            self._refit(fleet)
            self._since_fit = 0

    def _refit(self, fleet: "tuple[int, ...]") -> None:
        cfg = self.config
        Z = np.stack([z for z, _ in self._labels.values()])
        C = np.stack([c for _, c in self._labels.values()])
        if self.head is None or self.head.cluster_ids != fleet:
            self.head = WarmStartHead(Z.shape[1], fleet)
        self.head.fit(Z, C, epochs=cfg.epochs, lr=cfg.lr)
        self.dispatcher.warm_model = self.head
        self.fits += 1
        rec = get_recorder()
        if rec.enabled:
            rec.counter_add("warmstart/refits")

    def __repr__(self) -> str:
        return (
            f"WarmStartTrainer(labels={len(self._labels)}, fits={self.fits}, "
            f"invalidated={self.invalidated})"
        )
