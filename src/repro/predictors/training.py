"""MSE training loops for the two-stage baseline (paper Eq. 1).

``train_time_mse`` regresses log-time (the :class:`TimePredictor` head is
exp(·), so MSE on log targets equals relative-error regression — the right
loss for quantities spanning orders of magnitude).  ``train_reliability``
is the paper's MSE loss on the probabilities.

There is one minibatch step, :meth:`BankTrainer.step`, and it is stacked:
H same-kind heads (a :class:`~repro.predictors.models.HeadBank`) advance
together, each on its own shuffle of its own dataset, as one tape and one
Adam update.  A single head is a bank of one: ``train_time_mse``,
``train_reliability`` and :class:`StepwiseTrainer` — the incremental-refit
entry point of the online retraining loop (:mod:`repro.retrain`), which
must interleave training steps with dispatch windows instead of blocking
the serving loop on a full ``train_*`` call — are its H = 1 callers, while
:func:`fit_pairs` trains all M clusters' heads of a kind at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn import Adam, mse_loss, ops
from repro.predictors.dataset import ClusterDataset, Standardizer
from repro.predictors.models import HeadBank, PredictorPair, ReliabilityPredictor, TimePredictor
from repro.utils.rng import as_generator, spawn

__all__ = [
    "TrainConfig",
    "train_time_mse",
    "train_reliability",
    "fit_heads",
    "fit_pairs",
    "TrainResult",
    "BankTrainer",
    "StepwiseTrainer",
]

#: Head semantics by loss name: ``"log_mse"`` (time head — MSE between the
#: log of the forward pass and log targets) or ``"mse"`` (reliability head
#: on [0, 1] targets).
_LOSSES = ("log_mse", "mse")
#: L2 penalty of every supervised fit's Adam.
WEIGHT_DECAY = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by the supervised training loops."""

    epochs: int = 300
    lr: float = 5e-3
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass(frozen=True)
class TrainResult:
    """Final loss and per-epoch history of one supervised run."""

    final_loss: float
    history: np.ndarray


class BankTrainer:
    """Cooperative minibatch trainer of H same-kind heads, stacked.

    Head ``h`` trains on ``(Zs[h], ys[h])`` (all of one length), shuffled
    every epoch by its own generator ``rngs[h]``; one :meth:`step` runs the
    next minibatch of every head as a single stacked tape and Adam update.
    Per head this is bit for bit the optimization a bank of that head
    alone would run, so how heads are grouped never shows in the weights.

    The trainer owns a :class:`HeadBank` over ``heads`` for its lifetime —
    see there for what must not happen to the heads meanwhile.
    """

    def __init__(
        self,
        heads: "Sequence[TimePredictor | ReliabilityPredictor]",
        Zs: "Sequence[np.ndarray]",
        ys: "Sequence[np.ndarray]",
        config: TrainConfig | None,
        rngs: "Sequence[np.random.Generator | int | None]",
        *,
        loss: str = "log_mse",
    ) -> None:
        if loss not in _LOSSES:
            raise ValueError(f"loss must be 'log_mse' or 'mse', got {loss!r}")
        if not len(heads) == len(Zs) == len(ys) == len(rngs):
            raise ValueError("need one dataset and one generator per head")
        self.config = config or TrainConfig()
        self.loss = loss
        self.rngs = [as_generator(r) for r in rngs]
        self.bank = HeadBank(heads)
        Y = np.stack([np.asarray(y, dtype=np.float64) for y in ys])
        # Standardized once up front: elementwise, so equal to standardizing
        # each minibatch after the gather.
        self.X = np.stack([h._prep(np.asarray(Z, dtype=np.float64))
                           for h, Z in zip(self.bank.heads, Zs)])
        if self.X.shape[:2] != Y.shape:
            raise ValueError("Z and y must have matching lengths")
        if Y.shape[1] == 0:
            raise ValueError("need at least one training sample")
        self.Y = np.log(Y) if loss == "log_mse" else Y
        self.opt = Adam(self.bank.params, lr=self.config.lr, weight_decay=WEIGHT_DECAY)
        self.steps_done = 0
        self.epochs_done = 0
        self.history: "list[np.ndarray]" = []  # per epoch: (H,) mean sample losses
        self._rows = np.arange(len(heads))[:, None]
        self._order = np.empty((len(heads), 0), dtype=np.intp)  # this epoch's shuffles
        self._cursor = 0  # samples of this epoch already used
        self._epoch_loss = np.zeros(len(heads))

    # ------------------------------------------------------------------ #

    @property
    def steps_per_epoch(self) -> int:
        n = self.Y.shape[1]
        b = self.config.batch_size
        return (n + b - 1) // b

    @property
    def total_steps(self) -> int:
        return self.steps_per_epoch * self.config.epochs

    @property
    def done(self) -> bool:
        return self.epochs_done >= self.config.epochs

    def step(self) -> np.ndarray:
        """Run one minibatch per head; returns their ``(H,)`` mean losses.
        Raises when done."""
        if self.done:
            raise RuntimeError("trainer already finished its epoch budget")
        n = self.Y.shape[1]
        if self._cursor == 0:
            self._order = np.stack([rng.permutation(n) for rng in self.rngs])
            self._epoch_loss = np.zeros(len(self.bank))
        idx = self._order[:, self._cursor : self._cursor + self.config.batch_size]
        self._cursor += idx.shape[1]
        self.opt.zero_grad()
        pred = self.bank.forward(self.X[self._rows, idx])
        if self.loss == "log_mse":
            pred = ops.log(pred)
        value = mse_loss(pred, self.Y[self._rows, idx], axis=-1)
        value.backward(np.ones(len(self.bank)))  # heads are independent
        self.opt.step()
        self.steps_done += 1
        self._epoch_loss += value.data * idx.shape[1]
        if self._cursor == n:
            self._cursor = 0
            self.epochs_done += 1
            self.history.append(self._epoch_loss / n)
        return value.data

    def run_steps(self, budget: int) -> int:
        """Advance at most ``budget`` minibatches; returns how many ran."""
        ran = 0
        while ran < budget and not self.done:
            self.step()
            ran += 1
        return ran

    def results(self) -> "list[TrainResult]":
        """The finished run, one :class:`TrainResult` per head (requires
        ``done``)."""
        if not self.done:
            raise RuntimeError("trainer has not finished yet")
        return [TrainResult(final_loss=float(h[-1]), history=h)
                for h in np.stack(self.history, axis=1)]


class StepwiseTrainer(BankTrainer):
    """The bank of one: the refit loop's unit of work.

    Runs the exact optimization of :func:`train_time_mse` /
    :func:`train_reliability` (it *is* their loop) but yields control after
    every minibatch, so a caller embedded in the serving loop can budget
    "at most ``n`` steps per dispatch window" and keep the dispatcher's
    event loop — and its determinism — intact.
    """

    def __init__(
        self,
        predictor: "TimePredictor | ReliabilityPredictor",
        Z: np.ndarray,
        y: np.ndarray,
        config: TrainConfig | None = None,
        rng: np.random.Generator | int | None = None,
        *,
        loss: str = "log_mse",
    ) -> None:
        super().__init__([predictor], [Z], [y], config, [rng], loss=loss)

    def step(self) -> float:
        """Run one minibatch; returns its mean loss.  Raises when done."""
        return float(super().step()[0])

    def result(self) -> TrainResult:
        """The finished run as a :class:`TrainResult` (requires ``done``)."""
        return self.results()[0]


def fit_heads(
    heads: "Sequence[TimePredictor | ReliabilityPredictor]",
    Zs: "Sequence[np.ndarray]",
    ys: "Sequence[np.ndarray]",
    config: TrainConfig | None,
    rngs: "Sequence[np.random.Generator | int | None]",
    *,
    loss: str,
) -> "list[TrainResult]":
    """Train same-kind heads to completion, stacked.

    Heads whose datasets have the same length share one bank; that is the
    only grouping rule, and (heads being independent) it never shows in
    the result.
    """
    groups: "dict[int, list[int]]" = {}
    for h, Z in enumerate(Zs):
        groups.setdefault(len(Z), []).append(h)
    results: "dict[int, TrainResult]" = {}
    for members in groups.values():
        heads_g, Zs_g, ys_g, rngs_g = (
            [seq[h] for h in members] for seq in (heads, Zs, ys, rngs))
        trainer = BankTrainer(heads_g, Zs_g, ys_g, config, rngs_g, loss=loss)
        trainer.run_steps(trainer.total_steps)
        results.update(zip(members, trainer.results()))
    return [results[h] for h in range(len(Zs))]


def train_time_mse(
    predictor: TimePredictor,
    Z: np.ndarray,
    t: np.ndarray,
    config: TrainConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> TrainResult:
    """Fit the time head by MSE on log-times (Eq. 1, log-space variant)."""
    return fit_heads([predictor], [Z], [t], config, [rng], loss="log_mse")[0]


def train_reliability(
    predictor: ReliabilityPredictor,
    Z: np.ndarray,
    a: np.ndarray,
    config: TrainConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> TrainResult:
    """Fit the reliability head by MSE (the paper's Eq. 1)."""
    return fit_heads([predictor], [Z], [a], config, [rng], loss="mse")[0]


def fit_pairs(
    datasets: "Sequence[ClusterDataset]",
    in_features: int,
    hidden: Sequence[int],
    standardizer: "Standardizer | None",
    config: TrainConfig | None,
    rng: np.random.Generator,
) -> "list[PredictorPair]":
    """One MSE-trained :class:`PredictorPair` per cluster dataset (TSM's fit,
    MFCP's warm start): all time heads as one bank, all reliability heads
    as another.

    Child generators are spawned from ``rng`` cluster by cluster in the
    order (pair init, time shuffle, reliability shuffle).
    """
    pairs, time_rngs, rel_rngs = [], [], []
    for _ in datasets:
        pairs.append(PredictorPair(in_features, hidden, standardizer=standardizer,
                                   rng=spawn(rng)))
        time_rngs.append(spawn(rng))
        rel_rngs.append(spawn(rng))
    Zs = [ds.Z for ds in datasets]
    fit_heads([p.time for p in pairs], Zs, [ds.t for ds in datasets], config,
              time_rngs, loss="log_mse")
    fit_heads([p.reliability for p in pairs], Zs, [ds.a for ds in datasets], config,
              rel_rngs, loss="mse")
    return pairs
