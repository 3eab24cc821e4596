"""Refit policy: building candidate predictors and training them in slices.

A retrain must never block the dispatcher — the platform keeps matching
traffic while new weights are fit.  :class:`RefitJob` packages one
candidate model (the full per-cluster pair list, same architecture as
the live model) together with the :class:`~repro.predictors.training.
StepwiseTrainer` instances that will fit it, and exposes a single
``run_steps(budget)`` knob: the controller calls it once per dispatched
window with a fixed minibatch budget, so training advances *cooperatively*
inside the deterministic event loop (simulated time never waits on a
training epoch, and trace identity is preserved because the candidate's
weights touch nothing the dispatcher reads until a hot-swap is applied).

Two refit modes, mirroring the offline/online trade-off:

- ``"full"`` — fresh random-init pairs, trained from scratch on the
  harvested labels only.  Slow but unbiased: the candidate owes nothing
  to a possibly-poisoned live model;
- ``"incremental"`` — pairs cloned from the live model (warm start),
  refined on recent labels.  Converges in far fewer steps, the natural
  choice for drift-triggered refits where the live model is mostly right.

Clusters that harvested fewer than ``min_cluster_labels`` examples keep a
frozen clone of their live pair: a handful of labels would overfit, and
the canary gate judges the *whole* candidate anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.predictors.models import PredictorPair
from repro.predictors.training import StepwiseTrainer, TrainConfig
from repro.retrain.buffer import LabelDataset
from repro.utils.rng import spawn

__all__ = ["RefitJob"]

REFIT_MODES = ("incremental", "full")


@dataclass
class RefitJob:
    """One in-flight candidate refit: pairs + the trainers fitting them."""

    mode: str
    pairs: "list[PredictorPair]"  # full candidate, indexed like the live model
    trainers: "list[StepwiseTrainer]"  # round-robin work queue
    trained_clusters: "list[int]"  # cluster ids actually being refit
    skipped_clusters: "list[int]"  # too few labels: kept frozen at live weights
    n_labels: int  # training labels backing this job
    steps_done: int = 0
    _cursor: int = field(default=0, repr=False)

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #

    @staticmethod
    def build(
        live_pairs: "list[PredictorPair]",
        cluster_ids: "list[int]",
        datasets: "dict[int, LabelDataset]",
        *,
        mode: str = "incremental",
        config: "TrainConfig | None" = None,
        rng: "np.random.Generator | None" = None,
        min_cluster_labels: int = 8,
    ) -> "RefitJob":
        """Assemble a candidate refit over the harvested label datasets.

        ``live_pairs`` and ``cluster_ids`` run in the dispatcher's cluster
        order (``pairs[i]`` serves ``cluster_ids[i]``); ``datasets`` maps
        cluster id to its harvested arrays.  Raises ``ValueError`` when no
        cluster clears the label floor — the caller should wait for more
        traffic rather than canary an untrained candidate.
        """
        if mode not in REFIT_MODES:
            raise ValueError(f"mode must be one of {REFIT_MODES}, got {mode!r}")
        if len(live_pairs) != len(cluster_ids):
            raise ValueError("live_pairs and cluster_ids must align")
        cfg = config or TrainConfig()
        rng = rng if rng is not None else np.random.default_rng(0)

        pairs: "list[PredictorPair]" = []
        trainers: "list[StepwiseTrainer]" = []
        trained: "list[int]" = []
        skipped: "list[int]" = []
        n_labels = 0
        for live, cid in zip(live_pairs, cluster_ids):
            ds = datasets.get(cid)
            # The time head needs uncensored (successful) examples; the
            # reliability head trains on every outcome.  Gate on the time
            # count — it is the scarcer of the two.
            if ds is None or ds.n_time < min_cluster_labels:
                pairs.append(live.clone(rng=spawn(rng)))
                skipped.append(cid)
                continue
            if mode == "incremental":
                cand = live.clone(rng=spawn(rng))
            else:
                cand = PredictorPair(
                    live.in_features, live.hidden_sizes,
                    standardizer=live.time.standardizer, rng=spawn(rng),
                )
                cand.reliability.standardizer = live.reliability.standardizer
            pairs.append(cand)
            trained.append(cid)
            n_labels += ds.n_rel
            trainers.append(StepwiseTrainer(
                cand.time, ds.Z_time, ds.t, cfg, spawn(rng), loss="log_mse"))
            trainers.append(StepwiseTrainer(
                cand.reliability, ds.Z_rel, ds.a, cfg, spawn(rng), loss="mse"))
        if not trained:
            raise ValueError(
                f"no cluster reached min_cluster_labels={min_cluster_labels} "
                f"({ {cid: ds.n_time for cid, ds in sorted(datasets.items())} } "
                "successful labels per cluster)"
            )
        return RefitJob(
            mode=mode, pairs=pairs, trainers=trainers,
            trained_clusters=trained, skipped_clusters=skipped,
            n_labels=n_labels,
        )

    # ------------------------------------------------------------------ #
    # Cooperative execution.
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        return all(tr.done for tr in self.trainers)

    @property
    def total_steps(self) -> int:
        return sum(tr.total_steps for tr in self.trainers)

    def run_steps(self, budget: int) -> int:
        """Advance up to ``budget`` minibatches, round-robin across heads.

        Interleaving (rather than draining one trainer before the next)
        keeps every head's progress proportional when a run ends before
        the job finishes — a partially trained candidate is still judged
        on both of its heads, not a finished time head and a random
        reliability head.
        """
        ran = 0
        while ran < budget and not self.done:
            tr = self.trainers[self._cursor % len(self.trainers)]
            self._cursor += 1
            if tr.done:
                continue
            tr.step()
            ran += 1
        self.steps_done += ran
        return ran
