"""MSE training loops for the two-stage baseline (paper Eq. 1).

``train_time_mse`` regresses log-time (the :class:`TimePredictor` head is
exp(·), so MSE on log targets equals relative-error regression — the right
loss for quantities spanning orders of magnitude).  ``train_reliability``
is the paper's MSE loss on the probabilities.

There is one minibatch step, :meth:`BankTrainer.step`, and it is stacked:
H same-kind heads (a :class:`~repro.predictors.models.HeadBank`) advance
together, each on its own shuffle of its own dataset, as one tapeless
forward, one hand-written VJP of the loss and one flat Adam update.  A
single head is a bank of one: ``train_time_mse``, ``train_reliability``
and :class:`StepwiseTrainer` — the incremental-refit entry point of the
online retraining loop (:mod:`repro.retrain`), which must interleave
training steps with dispatch windows instead of blocking the serving
loop on a full ``train_*`` call — are its H = 1 callers, while
:func:`fit_pairs` trains all M clusters' heads of a kind at once.  Its
two banks are independent, so when two CPUs are free and the
reliability bank's work repays a fork, that bank trains in a forked
worker beside the time bank and hands its weight bytes back
(:func:`_run_beside`).

A step allocates no array once the first minibatch has run: the trainer
gathers each minibatch's features and targets with ``take(..., out=)``
into one minibatch's buffers (a ragged tail minibatch uses leading views
of them) and the bank runs its forward and VJP in its own workspace
(:class:`~repro.predictors.models.HeadBank`: one forward in flight per
bank).  So a fit's page faults do not hang on the allocator's trim
threshold, which the import graph and the environment move.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import NoReturn, Sequence

import numpy as np

from repro.nn import Adam
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
#: Reliability-bank work (heads × minibatch steps) from which
#: :func:`fit_pairs` trains that bank in a forked worker.  A head-step
#: costs ~55 µs at ``HIDDEN`` on a 2-core VM, and a fork of a ~45 MB
#: process ~30 ms (copied page tables, then one copy-on-write fault per
#: page either process writes), so a bank under ~550 head-steps cannot
#: repay it: ``train_mfcp``'s warm start (8 heads × 40 steps = 320) runs
#: ~6 % slower forked, while every serve set-up (720–1 920) gains.
FORK_HEAD_STEPS = 512


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
    next minibatch of every head as a single stacked forward, VJP and Adam
    update.  Targets must be finite — times positive, reliabilities in
    [0, 1] — and features finite, or the constructor raises ``ValueError``.
    Per head this is bit for bit the optimization a bank of that head
    alone would run, so how heads are grouped never shows in the weights.

    The trainer owns a :class:`HeadBank` over ``heads`` for its lifetime —
    see there for what must not happen to the heads meanwhile.  Its
    optimizer and buffers come with the first :meth:`step`.
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
        Y = np.stack([np.asarray(y, dtype=np.float64) for y in ys])
        self._Zs = [np.asarray(Z, dtype=np.float64) for Z in Zs]
        if not all(np.isfinite(Z).all() for Z in self._Zs) or not np.isfinite(Y).all():
            raise ValueError("features and targets must be finite")
        if loss == "log_mse" and (Y <= 0).any():
            raise ValueError("time targets must be positive")
        if loss == "mse" and ((Y < 0) | (Y > 1)).any():
            raise ValueError("reliability targets must lie in [0, 1]")
        if any(len(np.atleast_2d(Z)) != Y.shape[1] for Z in self._Zs):
            raise ValueError("Z and y must have matching lengths")
        if Y.shape[1] == 0:
            raise ValueError("need at least one training sample")
        self.bank = HeadBank(heads)
        self.Y = np.log(Y) if loss == "log_mse" else Y
        self.opt: "Adam | None" = None  # built by the first step (_start)
        self.steps_done = 0
        self.epochs_done = 0
        self.history: "list[np.ndarray]" = []  # per epoch: (H,) mean sample losses
        self._cursor = 0  # samples of this epoch already used

    def _start(self) -> None:
        """Build what training needs besides the weights: standardized
        features, the optimizer and one minibatch's buffers.  The first
        step does, so a trainer that never steps in this process (the
        bank :func:`_run_beside` trains in a worker) holds only its
        checked inputs and the bank's weights."""
        # Standardized once up front: elementwise, so equal to standardizing
        # each minibatch after the gather.
        self.X = np.stack([h._prep(Z) for h, Z in zip(self.bank.heads, self._Zs)])
        self.opt = Adam(self.bank.params, lr=self.config.lr, weight_decay=WEIGHT_DECAY)
        (H, n), F = self.Y.shape, self.X.shape[-1]
        self._samples = self.X.reshape(H * n, F)
        # This epoch's shuffles as indices into the flattened samples: row h
        # is h·n plus a permutation of range(n).
        self._unshuffled = np.arange(H * n).reshape(H, n)
        self._order = self._unshuffled.copy()
        self._epoch_loss = np.zeros(H)
        # One minibatch's indices, features, targets, residuals and loss
        # gradient; the tail minibatch runs on leading views of them.
        b = min(self.config.batch_size, n)
        idx, X, y, diff, g = (np.empty(H * b, dtype=np.intp), np.empty(H * b * F),
                              np.empty(H * b), np.empty(H * b), np.empty(H * b))
        self._batches = {
            rows: (idx[:H * rows].reshape(H, rows), X[:H * rows * F].reshape(H, rows, F),
                   y[:H * rows].reshape(H, rows), diff[:H * rows].reshape(H, rows),
                   g[:H * rows].reshape(H, rows))
            for rows in {b, n % b or b}}

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
        if self.opt is None:
            self._start()
        n = self.Y.shape[1]
        if self._cursor == 0:
            # Generator.permutation(n) shuffles arange(n) in place: the same
            # draw, here on each head's row.
            np.copyto(self._order, self._unshuffled)
            for order, rng in zip(self._order, self.rngs):
                rng.shuffle(order)
            self._epoch_loss.fill(0.0)
        b = min(self.config.batch_size, n - self._cursor)
        idx, X, y, diff, g = self._batches[b]
        np.copyto(idx, self._order[:, self._cursor:self._cursor + b])
        self._cursor += b
        # mode="clip" (the indices are in range) spares take's copy of out.
        pred, saved = self.bank.forward(self._samples.take(idx, 0, X, "clip"))
        self.Y.take(idx, None, y, "clip")
        # Per head Eq. (1)'s mean of (fit − target)², fit = log pred under
        # log_mse, and its gradient as the tape forms it: (diff·diff)'s
        # pullback is g·diff + g·diff with g = 1/b, log's divides by pred.
        fit = np.log(pred, out=diff) if self.loss == "log_mse" else pred
        np.subtract(fit, y, out=diff)
        value = np.add.reduce(np.multiply(diff, diff, out=g), axis=-1) * (1.0 / b)
        np.multiply(diff, 1.0 / b, out=g)
        np.add(g, g, out=g)
        if self.loss == "log_mse":
            np.divide(g, pred, out=g)
        self.bank.backward(g, saved, self.opt.grads)
        self.opt.step()
        self.steps_done += 1
        self._epoch_loss += value * b
        if self._cursor == n:
            self._cursor = 0
            self.epochs_done += 1
            self.history.append(self._epoch_loss / n)
        return value

    def run_steps(self, budget: int) -> int:
        """Advance at most ``budget`` minibatches; returns how many ran."""
        ran = 0
        while ran < budget and not self.done:
            self.step()
            ran += 1
        return ran

    def release(self) -> None:
        """Drop what a finished trainer no longer needs: the standardized
        features, optimizer and minibatch buffers :meth:`_start` built and
        the bank's workspace.  The weights, :attr:`history` and the step
        and epoch counts stay, and :meth:`step` still raises."""
        if not self.done:
            raise RuntimeError("trainer has not finished yet")
        self.opt = None
        del self.X, self._samples, self._unshuffled, self._order, self._epoch_loss, self._batches
        self.bank.drop_workspace()

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


def _bank_trainers(
    heads: "Sequence[TimePredictor | ReliabilityPredictor]",
    Zs: "Sequence[np.ndarray]",
    ys: "Sequence[np.ndarray]",
    config: TrainConfig | None,
    rngs: "Sequence[np.random.Generator | int | None]",
    *,
    loss: str,
) -> "list[tuple[list[int], BankTrainer]]":
    """One :class:`BankTrainer` per dataset length, with the indices of its
    heads.  Heads whose datasets have the same length share one bank; that
    is the only grouping rule, and (heads being independent) it never
    shows in the result."""
    groups: "dict[int, list[int]]" = {}
    for h, Z in enumerate(Zs):
        groups.setdefault(len(Z), []).append(h)
    return [(members, BankTrainer(*([seq[h] for h in members] for seq in (heads, Zs, ys)),
                                  config, [rngs[h] for h in members], loss=loss))
            for members in groups.values()]


def _can_fork() -> bool:
    """Whether a second process can train beside this one: ``fork`` exists,
    two or more CPUs are ours, and no other thread runs (a thread's held
    locks would be copied into the child, held forever)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _run_beside(trainers: "Sequence[BankTrainer]", beside: "Sequence[BankTrainer]") -> None:
    """Run every trainer to completion: ``beside`` in a forked child while
    this process runs ``trainers``, when ``beside`` holds at least
    :data:`FORK_HEAD_STEPS` head-steps and :func:`_can_fork` says so; all
    of them here, one after another, otherwise.

    The child starts from a copy of every trainer, generator and weight,
    runs the steps this process would have run, and sends each ``beside``
    trainer's epoch history, step count and flat parameter buffer (its
    bank's ``data``, which the heads' views live in) back through a pipe;
    the buffers are copied into this process's, so the weights are the
    same bytes on either path.  Those trainers end ``done`` with the
    child's weights, history and step count.  They never step here, so
    this process never builds their training buffers (features,
    optimizer, minibatch and bank workspaces: :meth:`BankTrainer._start`)
    and their shuffle generators stay as they were before training.  Each
    trainer this process runs releases those buffers as soon as it
    finishes (:meth:`BankTrainer.release`), before the child's report is
    read, so one bank's are alive here at a time on either path.

    The child is always reaped before this returns: if this process's
    own training raises (or is interrupted) the child is killed first.
    An exception in the child is raised here with its type and message;
    a child that leaves no readable result raises ``RuntimeError``.  The
    child leaves by ``os._exit``, so no inherited buffer (stdout's
    included) is flushed twice.
    """
    if sum(t.Y.shape[0] * t.total_steps for t in beside) >= FORK_HEAD_STEPS and _can_fork():
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to be had: train here
            os.close(read_fd)
            os.close(write_fd)
        else:
            if pid == 0:
                os.close(read_fd)
                _child(beside, write_fd)
            os.close(write_fd)
            _join(pid, read_fd, trainers, beside)
            return
    for trainer in (*trainers, *beside):
        trainer.run_steps(trainer.total_steps)
        trainer.release()


def _join(pid: int, read_fd: int, trainers: "Sequence[BankTrainer]",
          beside: "Sequence[BankTrainer]") -> None:
    """The parent's half of :func:`_run_beside`: train ``trainers``, then
    read the child's report, reap the child and take over its results."""
    report = unreadable = None
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            for trainer in trainers:
                trainer.run_steps(trainer.total_steps)
                trainer.release()
            try:
                report = pickle.load(pipe)
            except Exception as exc:  # a dead child, or a report cut short
                unreadable = exc
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if report is None:
        raise RuntimeError("the training worker left no result "
                           f"(exit code {os.waitstatus_to_exitcode(status)})") from unreadable
    ok, payload = report
    if not ok:
        error, trace = payload
        raise error from RuntimeError(f"in the training worker:\n{trace}")
    for trainer, (history, steps, data) in zip(beside, payload):
        np.copyto(trainer.bank.data, data)
        trainer.history = history
        trainer.steps_done, trainer.epochs_done = steps, len(history)


def _child(trainers: "Sequence[BankTrainer]", write_fd: int) -> NoReturn:
    """The forked worker of :func:`_run_beside`: train, send one pickled
    report — ``(True, [(history, steps_done, parameter buffer)] per
    trainer)`` or ``(False, (exception, traceback))`` — and ``os._exit``.
    Its collector is off, so no cyclic garbage inherited from the parent
    is finalized here (a buffered file's flush would be written twice)."""
    gc.disable()
    code = 1
    try:
        try:
            for trainer in trainers:
                trainer.run_steps(trainer.total_steps)
            report = (True, [(t.history, t.steps_done, t.bank.data) for t in trainers])
        except BaseException as exc:  # every failure goes to the parent
            import traceback  # only a failing worker needs it

            report = (False, (exc, traceback.format_exc()))
        try:
            blob = pickle.dumps(report)
        except Exception:  # an exception object that does not pickle
            error, trace = report[1]
            blob = pickle.dumps((False, (RuntimeError(repr(error)), trace)))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(blob)
        code = 0
    finally:
        os._exit(code)


def fit_heads(
    heads: "Sequence[TimePredictor | ReliabilityPredictor]",
    Zs: "Sequence[np.ndarray]",
    ys: "Sequence[np.ndarray]",
    config: TrainConfig | None,
    rngs: "Sequence[np.random.Generator | int | None]",
    *,
    loss: str,
) -> "list[TrainResult]":
    """Train same-kind heads to completion, stacked (one bank per dataset
    length, in this process)."""
    results: "dict[int, TrainResult]" = {}
    for members, trainer in _bank_trainers(heads, Zs, ys, config, rngs, loss=loss):
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
    order (pair init, time shuffle, reliability shuffle).  Both banks are
    built (and their inputs checked) here; the reliability bank then
    trains in a forked worker beside the time bank when two CPUs are free
    and its work repays the fork (:func:`_run_beside`), to the same
    weight bytes.
    """
    pairs, time_rngs, rel_rngs = [], [], []
    for _ in datasets:
        pairs.append(PredictorPair(in_features, hidden, standardizer=standardizer,
                                   rng=spawn(rng)))
        time_rngs.append(spawn(rng))
        rel_rngs.append(spawn(rng))
    Zs = [ds.Z for ds in datasets]
    time_banks = _bank_trainers([p.time for p in pairs], Zs, [ds.t for ds in datasets],
                                config, time_rngs, loss="log_mse")
    rel_banks = _bank_trainers([p.reliability for p in pairs], Zs, [ds.a for ds in datasets],
                               config, rel_rngs, loss="mse")
    _run_beside([t for _, t in time_banks], [t for _, t in rel_banks])
    return pairs
