"""``fit_pairs`` on two processes: the reliability bank trains in a forked
worker beside the time bank, and the weights are the bytes one process
would have produced.

A fit forks only when its reliability bank holds at least
``FORK_HEAD_STEPS`` head-steps, so the fits here are the smallest that
fork (:func:`_cfg`).  The in-process path is forced the way the program
itself decides it: a second thread alive during the fit (no switch).
Every test that forks ends with no child left (``os.waitpid(-1,
WNOHANG)`` raises ``ChildProcessError``), whether the fit succeeded or
failed on either side.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.clusters import make_pool, make_setting, make_specialist_pool
from repro.methods import FitContext, MatchSpec
from repro.methods.base import HIDDEN
from repro.predictors import PredictorPair, fit_pairs
from repro.predictors import training
from repro.predictors.training import BankTrainer, TrainConfig
from repro.serve.registry import weights_digest
from repro.utils.rng import as_generator, spawn
from repro.workloads import TaskPool

pytestmark = pytest.mark.skipif(not training._can_fork(),
                                reason="needs fork and two CPUs")


def _ctx(clusters, pool=64, fraction=0.6):
    train, _ = TaskPool(pool, rng=0).split(fraction, rng=1)
    return FitContext.build(clusters, train, MatchSpec(), rng=2)


def _cfg(ctx, spare_epochs=0):
    """The fewest epochs whose reliability bank forks (plus
    ``spare_epochs``, which may be negative)."""
    head_steps = len(ctx.datasets) * -(-len(ctx.datasets[0].Z) // TrainConfig.batch_size)
    return TrainConfig(epochs=-(-training.FORK_HEAD_STEPS // head_steps) + spare_epochs)


_SHAPES = {
    "setting_A": lambda: _ctx(make_setting("A")),
    "pool_8": lambda: _ctx(make_pool(8, rng=3)),
    "specialists_24": lambda: _ctx(make_specialist_pool(24)),
}


@contextmanager
def _second_thread():
    """A live thread for the duration: ``fit_pairs`` must not fork."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def forks(monkeypatch):
    """Counts ``os.fork`` calls made in this process."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fit(ctx, cfg=None):
    return fit_pairs(ctx.datasets, ctx.feature_dim, HIDDEN, ctx.standardizer,
                     cfg or _cfg(ctx), as_generator(7))


def _banks(ctx):
    """``fit_pairs``'s two banks of trainers, built as it builds them."""
    rng = as_generator(7)
    pairs, time_rngs, rel_rngs = [], [], []
    for _ in ctx.datasets:
        pairs.append(PredictorPair(ctx.feature_dim, HIDDEN, standardizer=ctx.standardizer,
                                   rng=spawn(rng)))
        time_rngs.append(spawn(rng))
        rel_rngs.append(spawn(rng))
    Zs, cfg = [ds.Z for ds in ctx.datasets], _cfg(ctx)
    time_banks = training._bank_trainers(
        [p.time for p in pairs], Zs, [ds.t for ds in ctx.datasets], cfg, time_rngs,
        loss="log_mse")
    rel_banks = training._bank_trainers(
        [p.reliability for p in pairs], Zs, [ds.a for ds in ctx.datasets], cfg, rel_rngs,
        loss="mse")
    return [t for _, t in time_banks], [t for _, t in rel_banks]


def _histories(trainers: "list[BankTrainer]"):
    return [(r.final_loss, r.history) for t in trainers for r in t.results()]


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_forked_fit_equals_in_process_fit(shape, forks):
    ctx = _SHAPES[shape]()
    forked = weights_digest(_fit(ctx))
    assert len(forks) == 1
    with _second_thread():
        here = weights_digest(_fit(ctx))
    assert len(forks) == 1
    assert forked == here
    _assert_no_child_left()

    timed, rel = _banks(ctx)
    training._run_beside(timed, rel)
    assert len(forks) == 2
    with _second_thread():
        timed_here, rel_here = _banks(ctx)
        training._run_beside(timed_here, rel_here)
    assert len(forks) == 2
    for got, want in zip(_histories(timed + rel), _histories(timed_here + rel_here)):
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
    for got, want in zip(rel, rel_here):
        assert got.steps_done == want.steps_done == got.total_steps
        assert np.array_equal(got.bank.data, want.bank.data)
    _assert_no_child_left()


def test_only_a_bank_that_repays_the_fork_forks(forks):
    ctx = _SHAPES["setting_A"]()
    _fit(ctx, _cfg(ctx, spare_epochs=-1))
    assert forks == []
    _fit(ctx)
    assert len(forks) == 1
    # ``train_mfcp``'s warm start: 8 heads x 4 minibatches x 10 epochs.
    mfcp = _ctx(make_pool(8, rng=3), pool=160, fraction=0.7)
    _fit(mfcp, TrainConfig(epochs=10))
    assert len(forks) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("field", ["Z", "t", "a"])
def test_non_finite_inputs_raise_before_any_fork(field, forks):
    ctx = _SHAPES["setting_A"]()
    ds = ctx.datasets[1]
    bad = getattr(ds, field).copy()
    bad.flat[3] = np.nan
    datasets = list(ctx.datasets)
    datasets[1] = replace(ds, **{field: bad})
    with pytest.raises(ValueError, match="finite"):
        fit_pairs(datasets, ctx.feature_dim, HIDDEN, ctx.standardizer, _cfg(ctx),
                  as_generator(7))
    assert forks == []


def test_parent_holds_only_the_forked_banks_weights():
    """While the worker trains the reliability bank, this process holds of
    it only the weights the worker's bytes are copied into: at
    ``serve_wide``'s shape (24 specialists, 15 epochs) a forking
    ``fit_pairs`` peaks less than twice the reliability bank's weights
    above building the pairs and fitting the time bank alone.  Building
    that bank's features, optimizer and minibatch buffers here as well
    costs about eight times its weights."""
    import tracemalloc

    ctx = _ctx(make_specialist_pool(24), pool=256)
    cfg = TrainConfig(epochs=15)
    Zs, ts = [ds.Z for ds in ctx.datasets], [ds.t for ds in ctx.datasets]
    tracemalloc.start()
    try:
        pairs = [PredictorPair(ctx.feature_dim, HIDDEN, standardizer=ctx.standardizer, rng=h)
                 for h in range(len(ctx.datasets))]
        training.fit_heads([p.time for p in pairs], Zs, ts, cfg,
                           [as_generator(h) for h in range(len(pairs))], loss="log_mse")
        alone = tracemalloc.get_traced_memory()[1]
        weights = 8 * sum(p.reliability.num_parameters() for p in pairs)
        del pairs
        tracemalloc.reset_peak()
        _fit(ctx, cfg)
        forked = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forked < alone + 2 * weights, (forked, alone, weights)
    _assert_no_child_left()


def test_in_process_fit_releases_each_bank_when_it_finishes(forks):
    """On the in-process path (a live thread) each bank drops its
    features, optimizer, minibatch buffers and workspace as soon as it
    finishes, so at ``serve_wide``'s shape (24 specialists, 15 epochs)
    the fit peaks no higher than the forking fit, whose parent never
    builds the reliability bank's buffers.  Holding every finished
    bank's buffers to the end peaks ~1.6x the forking fit."""
    import tracemalloc

    ctx = _ctx(make_specialist_pool(24), pool=256)
    cfg = TrainConfig(epochs=15)

    def traced_fit() -> int:
        tracemalloc.start()
        try:
            _fit(ctx, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    forked = traced_fit()
    assert len(forks) == 1
    with _second_thread():
        here = traced_fit()
        timed, rel = _banks(ctx)
        training._run_beside(timed, rel)
    assert len(forks) == 1
    assert here <= forked, (here, forked)
    for trainer in timed + rel:
        assert trainer.opt is None and trainer.steps_done == trainer.total_steps
        assert len(trainer.results()) == len(trainer.bank)
        with pytest.raises(RuntimeError, match="trainer already finished"):
            trainer.step()
    _assert_no_child_left()


def test_forking_fit_releases_the_parents_trainers(forks):
    """On the forking path too, each trainer this process runs drops its
    features, optimizer, minibatch buffers and bank workspace when it
    finishes, before the worker's report is read; the forked banks never
    built theirs here."""
    ctx = _SHAPES["pool_8"]()
    timed, rel = _banks(ctx)
    training._run_beside(timed, rel)
    assert len(forks) == 1
    for trainer in timed + rel:
        assert trainer.done and trainer.opt is None
        assert not hasattr(trainer, "X") and not hasattr(trainer, "_batches")
        assert trainer.bank._rows == 0 and trainer.bank._views == {}
        with pytest.raises(RuntimeError, match="trainer already finished"):
            trainer.step()
    _assert_no_child_left()


def _plant(monkeypatch, where, action):
    """Make ``BankTrainer.run_steps`` call ``action`` in the worker only
    (``where == "child"``) or in this process only (``"parent"``)."""
    parent = os.getpid()
    real = BankTrainer.run_steps

    def run_steps(self, budget):
        if (os.getpid() != parent) == (where == "child"):
            action()
        return real(self, budget)

    monkeypatch.setattr(BankTrainer, "run_steps", run_steps)


class PlantedError(Exception):
    pass


def _raise_planted():
    raise PlantedError("planted in the worker")


def test_child_exception_is_raised_in_the_parent(monkeypatch, forks):
    ctx = _SHAPES["setting_A"]()
    _plant(monkeypatch, "child", _raise_planted)
    with pytest.raises(PlantedError, match="planted in the worker") as info:
        _fit(ctx)
    assert "PlantedError" in str(info.value.__cause__)  # the worker's traceback
    assert len(forks) == 1
    _assert_no_child_left()


def test_child_without_a_result_raises_runtime_error(monkeypatch, forks):
    ctx = _SHAPES["setting_A"]()
    _plant(monkeypatch, "child", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="no result.*exit code 3"):
        _fit(ctx)
    assert len(forks) == 1
    _assert_no_child_left()


class Unbuildable(Exception):
    """Pickles, but unpickling calls ``Unbuildable(message)``: TypeError."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _raise_unbuildable():
    raise Unbuildable("planted", "in the worker")


def test_unreadable_child_report_raises_runtime_error(monkeypatch, forks):
    ctx = _SHAPES["setting_A"]()
    _plant(monkeypatch, "child", _raise_unbuildable)
    with pytest.raises(RuntimeError, match="no result.*exit code 0") as info:
        _fit(ctx)
    assert isinstance(info.value.__cause__, TypeError)
    assert len(forks) == 1
    _assert_no_child_left()


def test_parent_failure_kills_and_reaps_the_child(monkeypatch, forks):
    ctx = _SHAPES["setting_A"]()

    def interrupted():
        raise KeyboardInterrupt

    _plant(monkeypatch, "parent", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _fit(ctx)
    assert len(forks) == 1
    _assert_no_child_left()


_PRINT_THEN_FIT = """
import os

from repro.clusters import make_setting
from repro.methods import FitContext, MatchSpec
from repro.predictors import training
from repro.predictors.training import TrainConfig, fit_pairs
from repro.workloads import TaskPool

forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
print("before the fit")
train, _ = TaskPool(24, rng=0).split(0.6, rng=1)  # one minibatch per epoch
ctx = FitContext.build(make_setting("A"), train, MatchSpec(), rng=2)
fit_pairs(ctx.datasets, ctx.feature_dim, (8,), ctx.standardizer,
          TrainConfig(epochs=training.FORK_HEAD_STEPS), ctx.rng)
assert forks == [1]
print("after the fit")
"""


def test_block_buffered_stdout_is_written_once():
    """A line still in stdout's buffer when the worker forks is not
    flushed by the worker too: the last line a program prints (the
    platform benchmark's result) would come out twice."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run([sys.executable, "-c", _PRINT_THEN_FIT], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out == "before the fit\nafter the fit\n"
