"""The stacked predictor bank must reproduce the per-head loops exactly.

Everything that trains or evaluates the M clusters' same-shape heads now
runs *stacked* and without a tape (``HeadBank``: ``(H, in, out)`` stacks in
one flat buffer, the one hand-written forward and its VJP, one flat Adam)
on heads that are plain arrays.  The per-head tape path it replaced is
kept here verbatim as the oracle:

- ``_TapeHead`` / ``_TapePair`` — a head as it was: an ``nn.MLP`` of
  ``Parameter`` leaves (here holding copies of an array head's weights)
  and its link on the tape (``forward``);
- ``_oracle_train_time_mse`` / ``_oracle_train_reliability`` — the old
  minibatch loops (one tape and one Adam per head; they additionally
  return their optimizer so Adam moments can be compared);
- ``_oracle_regret_update`` — the old "forward / zero_grad / backward /
  clip_grad_norm / step" block, one head at a time;
- ``_OracleMFCP`` — the old ``MFCP._fit`` skeleton (per-head pretraining,
  2M optimizers, per-pair predictions one validation round at a time, the
  closing validation always re-solved) around the shared round functions;
- ``_tape_predict`` — a head's prediction as one tape forward.

Weights, Adam moments, loss histories and predictions must match bit for
bit: stacking is exact because NumPy's batched ``matmul`` runs the same
per-item GEMM/GEMV as the 2-D call and reductions keep their axis order —
which is what this file asserts rather than assumes of the BLAS at hand.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.clusters import make_setting
from repro.matching.zeroth_order import ZeroOrderConfig
from repro.methods import MFCP, TSM, FitContext, MatchSpec, MFCPConfig
from repro.methods.base import HIDDEN
from repro.methods import mfcp as mfcp_module
from repro.methods.mfcp import GRAD_CLIP
from repro.nn import MLP, Adam, Linear, Tensor, clip_grad_norm, mse_loss, no_grad, ops
from repro.nn.optim import BETAS, flatten
from repro.predictors import (
    BankTrainer,
    HeadBank,
    PredictorPair,
    ReliabilityPredictor,
    TimePredictor,
    fit_heads,
    fit_pairs,
    predict_pairs,
)
from repro.predictors import models
from repro.predictors.dataset import Standardizer
from repro.predictors.models import _LOG_T_CLIP
from repro.predictors.training import WEIGHT_DECAY, StepwiseTrainer, TrainConfig, TrainResult
from repro.retrain.buffer import LabelDataset
from repro.retrain.policy import RefitJob
from repro.serve.registry import ModelRegistry
from repro.utils.rng import as_generator, spawn
from repro.workloads import TaskPool

from tests.conftest import PerClusterMFCP

# --------------------------------------------------------------------- #
# Oracles: the per-head code the bank replaced, verbatim.
# --------------------------------------------------------------------- #


class _TapeHead:
    """A head on the tape, as ``_Head.forward`` computed it: an ``nn.MLP``
    whose ``Parameter`` leaves hold copies of ``head``'s weights,
    ``head``'s standardizer, and the link as tape ops — exp∘clip for a
    time head, sigmoid (once the MLP's output module) for a reliability
    head."""

    def __init__(self, head):
        self.kind, self.standardizer = type(head), head.standardizer
        hidden = tuple(weight.shape[1] for weight in head.params[:-2:2])
        self.net = MLP(head.params[0].shape[0], hidden, 1, activation="relu",
                       output="identity", rng=0)
        for p, w in zip(self.net.parameters(), head.params):
            p.data = w.copy()

    def parameters(self):
        return self.net.parameters()

    def state_dict(self):
        return {f"net.net.m{i}.{name}": getattr(m, name).data.copy()
                for i, m in enumerate(self.net.net) if isinstance(m, Linear)
                for name in ("weight", "bias")}

    def load_state_dict(self, state):
        for p, arr in zip(self.parameters(), state.values()):
            p.data[...] = arr

    def _link(self, raw):
        if self.kind is TimePredictor:
            return ops.exp(ops.clip(raw, -_LOG_T_CLIP, _LOG_T_CLIP))
        return ops.sigmoid(raw)

    def forward(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if self.standardizer is not None:
            Z = self.standardizer.transform(Z)
        return self._link(self.net(Tensor(Z))).reshape(-1)


class _TapePair:
    def __init__(self, pair):
        self.time, self.reliability = _TapeHead(pair.time), _TapeHead(pair.reliability)


def _minibatches(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _oracle_train_time_mse(predictor, Z, t, config, rng):
    cfg = config or TrainConfig()
    rng = as_generator(rng)
    Z = np.asarray(Z, dtype=np.float64)
    log_t = np.log(np.asarray(t, dtype=np.float64))
    opt = Adam(predictor.parameters(), lr=cfg.lr, weight_decay=WEIGHT_DECAY)
    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        batches = _minibatches(len(Z), cfg.batch_size, rng)
        for idx in batches:
            opt.zero_grad()
            pred = ops.log(predictor.forward(Z[idx]))
            loss = mse_loss(pred, log_t[idx])
            loss.backward()
            opt.step()
            epoch_loss += loss.item() * len(idx)
        history[epoch] = epoch_loss / len(Z)
    return TrainResult(final_loss=float(history[-1]), history=history), opt


def _oracle_train_reliability(predictor, Z, a, config, rng):
    cfg = config or TrainConfig()
    rng = as_generator(rng)
    Z = np.asarray(Z, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    opt = Adam(predictor.parameters(), lr=cfg.lr, weight_decay=WEIGHT_DECAY)
    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for idx in _minibatches(len(Z), cfg.batch_size, rng):
            opt.zero_grad()
            pred = predictor.forward(Z[idx])
            value = mse_loss(pred, a[idx])
            value.backward()
            opt.step()
            epoch_loss += value.item() * len(idx)
        history[epoch] = epoch_loss / len(Z)
    return TrainResult(final_loss=float(history[-1]), history=history), opt


def _oracle_regret_update(heads, opts, Z, grads, grad_clip):
    """One regret step per head; ``grad_clip=None`` is the unclipped
    (SPO+/DBB reliability) variant.  Returns the stacked forward values."""
    outs = []
    for head, opt, g in zip(heads, opts, grads):
        out = head.forward(Z)
        opt.zero_grad()
        out.backward(g)
        if grad_clip is not None:
            clip_grad_norm(opt.params, grad_clip)
        opt.step()
        outs.append(out.data)
    return np.stack(outs)


def _tape_predict(head, Z):
    tape = head if isinstance(head, _TapeHead) else _TapeHead(head)
    with no_grad():
        return tape.forward(Z).data.copy()


# --------------------------------------------------------------------- #
# Helpers.
# --------------------------------------------------------------------- #


def _data(n, d=6, seed=0):
    rng = as_generator(seed)
    Z = rng.normal(size=(n, d)) * 3.0 + 1.0
    t = np.exp(rng.normal(size=n) * 0.4 + 0.3)
    a = rng.uniform(0.05, 0.98, size=n)
    return Z, t, a


def _twin_heads(kind, H, hidden, d=6, distinct_standardizers=False, edges=False):
    """Two identically initialised lists of H heads: array heads (bank side)
    and their tape twins (oracle side); ``edges`` applies :func:`_apply_edges`
    to both."""
    def build():
        heads = []
        for h in range(H):
            std = None
            if distinct_standardizers:
                std = Standardizer.fit(_data(40, d, seed=100 + h)[0])
            heads.append(kind(d, hidden, standardizer=std, rng=1000 + h))
        return _apply_edges(heads) if edges else heads
    return build(), [_TapeHead(head) for head in build()]


def _assert_same_weights(heads_a, heads_b):
    for a, b in zip(heads_a, heads_b):
        sa, sb = a.state_dict(), b.state_dict()
        assert sa.keys() == sb.keys()
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name


def _per_param(opt, flat):
    """One of Adam's flat buffers read as one array per parameter."""
    out, start = [], 0
    for p in opt.params:
        out.append(flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return out


def _assert_same_moments(bank_opt, head_opts):
    """Bank Adam state (H leading axis) vs the per-head optimizers'."""
    bank_m, bank_v = _per_param(bank_opt, bank_opt.m), _per_param(bank_opt, bank_opt.v)
    for h, opt in enumerate(head_opts):
        assert opt.steps == bank_opt.steps
        own_m, own_v = _per_param(opt, opt.m), _per_param(opt, opt.v)
        for k in range(len(opt.params)):
            for stacked, own in ((bank_m[k], own_m[k]), (bank_v[k], own_v[k])):
                assert np.array_equal(stacked[h].reshape(own.shape), own)


# --------------------------------------------------------------------- #
# Pretraining: the one stacked minibatch step vs the per-head loops.
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("H", [1, 3, 8, 24])
@pytest.mark.parametrize("hidden", [(8,), (32, 32)])
@pytest.mark.parametrize("loss", ["log_mse", "mse"])
def test_bank_training_matches_per_head_loops(H, hidden, loss):
    n, cfg = 112, TrainConfig(epochs=2, batch_size=32)  # ragged tail of 16
    kind = TimePredictor if loss == "log_mse" else ReliabilityPredictor
    heads, twins = _twin_heads(kind, H, hidden, distinct_standardizers=(H == 3))
    sets = [_data(n, seed=h) for h in range(H)]
    Zs = [s[0] for s in sets]
    ys = [s[1] if loss == "log_mse" else s[2] for s in sets]

    trainer = BankTrainer(heads, Zs, ys, cfg, [as_generator(50 + h) for h in range(H)],
                          loss=loss)
    trainer.run_steps(trainer.total_steps)
    assert trainer.done and trainer.steps_done == 2 * 4

    oracle_opts = []
    for h, twin in enumerate(twins):
        if loss == "log_mse":
            res, opt = _oracle_train_time_mse(twin, Zs[h], ys[h], cfg, as_generator(50 + h))
        else:
            res, opt = _oracle_train_reliability(twin, Zs[h], ys[h], cfg, as_generator(50 + h))
        got = trainer.results()[h]
        assert np.array_equal(got.history, res.history)
        assert got.final_loss == res.final_loss
        oracle_opts.append(opt)
    _assert_same_weights(heads, twins)
    _assert_same_moments(trainer.opt, oracle_opts)
    probe = _data(9, seed=77)[0]
    for head, twin in zip(heads, twins):
        assert np.array_equal(head.predict(probe), _tape_predict(twin, probe))


def test_bank_owns_the_storage_during_a_fit():
    heads, _ = _twin_heads(TimePredictor, 3, (8,))
    Z, t, _ = _data(20)
    trainer = BankTrainer(heads, [Z] * 3, [t] * 3, TrainConfig(epochs=1, batch_size=8),
                          [0, 1, 2])
    trainer.run_steps(2)
    for h, head in enumerate(heads):
        for own, stacked in zip(head.params, trainer.bank.params):
            assert np.shares_memory(own, stacked)
            assert np.array_equal(own, stacked[h].reshape(own.shape))
    # Writes through a head (model selection restores snapshots mid-fit)
    # land in the bank.
    state = {k: v + 1.0 for k, v in heads[1].state_dict().items()}
    heads[1].load_state_dict(state)
    assert np.array_equal(trainer.bank.params[0][1], state["net.net.m0.weight"])


def test_stepwise_trainer_in_awkward_budgets_is_the_blocking_loop():
    Z, t, a = _data(50, seed=3)
    cfg = TrainConfig(epochs=3, batch_size=16)  # 4 steps/epoch, tail of 2
    for kind, y, loss, oracle in (
        (TimePredictor, t, "log_mse", _oracle_train_time_mse),
        (ReliabilityPredictor, a, "mse", _oracle_train_reliability),
    ):
        (head,), (twin,) = _twin_heads(kind, 1, (8,))
        trainer = StepwiseTrainer(head, Z, y, cfg, as_generator(11), loss=loss)
        budgets = iter([1, 5, 2, 3, 100])
        losses = []
        while not trainer.done:
            before = trainer.steps_done
            losses.append(trainer.step())  # one step, then the rest of the budget
            trainer.run_steps(next(budgets) - 1)
            assert trainer.steps_done > before
        res, opt = oracle(twin, Z, y, cfg, as_generator(11))
        assert np.array_equal(trainer.result().history, res.history)
        assert all(isinstance(v, float) for v in losses) and np.isfinite(losses).all()
        _assert_same_weights([head], [twin])
        _assert_same_moments(trainer.opt, [opt])


def test_unequal_dataset_lengths_fall_into_one_bank_per_length():
    lengths = [112, 40, 112, 7, 40]
    heads, twins = _twin_heads(TimePredictor, len(lengths), (8,))
    sets = [_data(n, seed=h) for h, n in enumerate(lengths)]
    cfg = TrainConfig(epochs=2, batch_size=32)
    results = fit_heads(heads, [s[0] for s in sets], [s[1] for s in sets], cfg,
                        [as_generator(h) for h in range(len(lengths))], loss="log_mse")
    for h, twin in enumerate(twins):
        res, _ = _oracle_train_time_mse(twin, sets[h][0], sets[h][1], cfg, as_generator(h))
        assert np.array_equal(results[h].history, res.history)
    _assert_same_weights(heads, twins)
    with pytest.raises(ValueError):
        BankTrainer(heads[:2], [sets[0][0], sets[1][0]], [sets[0][1], sets[1][1]],
                    cfg, [0, 1])


# --------------------------------------------------------------------- #
# Regret phase: one bank forward + VJP((H, N)) + per-head clip + step.
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", [TimePredictor, ReliabilityPredictor])
@pytest.mark.parametrize("H", [1, 3, 8, 24])
def test_regret_update_matches_per_head_block(kind, H):
    N, grad_clip = 5, 5.0
    heads, twins = _twin_heads(kind, H, (32, 32), distinct_standardizers=(H == 8))
    bank = HeadBank(heads)
    bank_opt = Adam(bank.params, lr=1e-3)
    head_opts = [Adam(t.parameters(), lr=1e-3) for t in twins]
    rng = as_generator(5)
    # Even heads get a gradient far above the clip norm, odd heads far below.
    scale = np.where(np.arange(H) % 2 == 0, 1e3, 1e-8)[:, None]
    for step in range(4):
        Z = _data(N, seed=200 + step)[0]
        grads = rng.normal(size=(H, N)) * scale
        clip = grad_clip if step != 2 else None  # step 2: the unclipped variant
        out, saved = bank.forward(bank.prepare(Z))
        bank.backward(grads, saved, bank_opt.grads)
        if clip is not None:
            norms = bank.clip_grad_norm(clip, bank_opt.grads)
            assert np.array_equal(norms > clip, np.arange(H) % 2 == 0)
        bank_opt.step()
        expected = _oracle_regret_update(twins, head_opts, Z, grads, clip)
        assert np.array_equal(out, expected)
        _assert_same_weights(heads, twins)
    _assert_same_moments(bank_opt, head_opts)


class _OracleMFCP(MFCP):
    """``MFCP._fit`` as it was: per-head pretraining, one Adam per head,
    per-pair predictions, every validation (the closing one included)
    solved afresh.  Only the round functions are shared with the shipped
    class, through their ``(Z, t̂, â, truth) -> (loss, dts, das)`` contract;
    ``fused`` picks which of the two runs."""

    fused = True

    def _fit(self, ctx):
        cfg = self.config
        self._phase_totals = {}
        self._pairs = []
        for ds in ctx.datasets:
            pair = _TapePair(PredictorPair(ctx.feature_dim, HIDDEN,
                                           standardizer=ctx.standardizer, rng=spawn(ctx.rng)))
            _oracle_train_time_mse(pair.time, ds.Z, ds.t, cfg.pretrain, spawn(ctx.rng))
            _oracle_train_reliability(pair.reliability, ds.Z, ds.a, cfg.pretrain,
                                      spawn(ctx.rng))
            self._pairs.append(pair)
        opt_time = [Adam(p.time.parameters(), lr=cfg.lr) for p in self._pairs]
        opt_rel = [Adam(p.reliability.parameters(), lr=cfg.lr) for p in self._pairs]
        n_train = len(ctx.train_tasks)
        round_size = min(cfg.round_size, n_train)
        Z_all = ctx.features(ctx.train_tasks)
        T_all = np.stack([ds.t for ds in ctx.datasets])
        A_all = np.stack([ds.a for ds in ctx.datasets])
        val_rng = spawn(ctx.rng)
        val_rounds = []
        for _ in range(cfg.validation_rounds):
            idx = val_rng.choice(n_train, size=round_size, replace=False)
            val_rounds.append(
                (Z_all[idx],
                 ctx.spec.build_problem(T_all[:, idx], A_all[:, idx], training=True)))
        self.validations = 0
        best_score = self._oracle_score(ctx, val_rounds) if val_rounds else None
        best_state = self._snapshot() if val_rounds else None
        self.loss_history = []
        for epoch in range(cfg.epochs):
            idx = ctx.rng.choice(n_train, size=round_size, replace=False)
            Z = Z_all[idx]
            true_problem = ctx.spec.build_problem(T_all[:, idx], A_all[:, idx], training=True)
            round_fn = self._train_round_batched if self.fused else self._train_round
            t_hats = [p.time.forward(Z) for p in self._pairs]
            a_hats = [p.reliability.forward(Z) for p in self._pairs]
            loss, dts, das = round_fn(ctx, Z, np.stack([t.data for t in t_hats]),
                                      np.stack([a.data for a in a_hats]), true_problem)
            for i in range(len(self._pairs)):
                opt_time[i].zero_grad()
                t_hats[i].backward(dts[i])
                clip_grad_norm(opt_time[i].params, GRAD_CLIP)
                opt_time[i].step()
                opt_rel[i].zero_grad()
                a_hats[i].backward(das[i])
                clip_grad_norm(opt_rel[i].params, GRAD_CLIP)
                opt_rel[i].step()
            self.loss_history.append(loss)
            if val_rounds and (epoch + 1) % mfcp_module.VALIDATE_EVERY == 0:
                score = self._oracle_score(ctx, val_rounds)
                if score < best_score:
                    best_score = score
                    best_state = self._snapshot()
        if val_rounds and best_state is not None:
            final = self._oracle_score(ctx, val_rounds)
            if final > best_score:
                self._restore(best_state)

    def _predict_rows(self, Z):
        rows = [(_tape_predict(p.time, Z), _tape_predict(p.reliability, Z))
                for p in self._pairs]
        return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])

    def _oracle_score(self, ctx, val_rounds):
        from repro.matching.batch import (
            BatchProblem,
            clamp_predictions_batch,
            solve_relaxed_batch,
        )
        from repro.matching.objectives import decision_cost
        from repro.matching.rounding import round_assignment

        self.validations += 1
        total = 0.0
        scfg = ctx.spec.solver
        preds = [self._predict_rows(Z) for Z, _ in val_rounds]
        T_hat = np.stack([p[0] for p in preds])
        A_hat = np.stack([p[1] for p in preds])
        gammas = np.array([p.gamma for _, p in val_rounds])
        T_b, A_b, g_b = clamp_predictions_batch(T_hat, A_hat, gammas)
        bp = BatchProblem(
            T=T_b, A=A_b, gamma=g_b,
            beta=val_rounds[0][1].beta,
            lam=val_rounds[0][1].lam,
            entropy=val_rounds[0][1].entropy,
        )
        sol = solve_relaxed_batch(
            bp, lr=scfg.lr, max_iters=scfg.max_iters, tol=scfg.tol,
            patience=scfg.patience,
        )
        for b, (Z, true_problem) in enumerate(val_rounds):
            pred_problem = true_problem.with_predictions(T_hat[b], A_hat[b])
            X = round_assignment(sol.X[b], pred_problem)
            total += decision_cost(X, true_problem) / true_problem.N
        return total / len(val_rounds)


def _fresh_ctx():
    pool = TaskPool(40, rng=21)
    train, _ = pool.split(0.7, rng=1)
    return FitContext.build(make_setting("A"), train, MatchSpec(), rng=2)


_FIT_CFG = MFCPConfig(
    epochs=4, round_size=6, pretrain=TrainConfig(epochs=3),
    validation_rounds=2,
    zero_order=ZeroOrderConfig(samples=4, delta=0.05, warm_start_iters=40, vectorized=True),
)


@pytest.fixture(autouse=True)
def _validate_every_other_epoch(monkeypatch):
    """The fits here run 1-4 epochs: score every second one."""
    monkeypatch.setattr(mfcp_module, "VALIDATE_EVERY", 2)


@pytest.mark.parametrize("gradient,batched", [
    ("analytic", True), ("analytic", False), ("forward", True),
])
def test_mfcp_fit_matches_per_head_fit(gradient, batched):
    cfg = _FIT_CFG
    got = (MFCP if batched else PerClusterMFCP)(gradient, cfg).fit(_fresh_ctx())
    want = _OracleMFCP(gradient, cfg)
    want.fused = batched
    want.fit(_fresh_ctx())
    assert got.loss_history == want.loss_history
    for p, q in zip(got._pairs, want._pairs):
        _assert_same_weights([p.time, p.reliability], [q.time, q.reliability])
    # epochs % VALIDATE_EVERY == 0: the closing validation is the last
    # epoch's, reused (the oracle solved it twice).
    assert want.validations == 1 + 2 + 1
    # No bank outlives the fit, and the fitted method survives a pickle.
    assert not any(isinstance(v, HeadBank) for v in vars(got).values())
    tasks = _fresh_ctx().train_tasks[:7]
    for a, b in zip(pickle.loads(pickle.dumps(got)).predict(tasks), got.predict(tasks)):
        assert np.array_equal(a, b)


def test_closing_validation_is_recomputed_when_the_last_epoch_was_not_validated(monkeypatch):
    calls = []
    real = MFCP._validation_score
    monkeypatch.setattr(MFCP, "_validation_score",
                        lambda self, *a: calls.append(1) or real(self, *a))
    MFCP("analytic", replace(_FIT_CFG, epochs=3)).fit(_fresh_ctx())
    assert len(calls) == 1 + 1 + 1  # start, epoch 2, closing
    calls.clear()
    MFCP("analytic", _FIT_CFG).fit(_fresh_ctx())
    assert len(calls) == 1 + 2  # start, epochs 2 and 4; closing reused


# --------------------------------------------------------------------- #
# Stateless stacked inference.
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("distinct_standardizers", [False, True])
def test_predict_pairs_matches_per_pair_predictions(distinct_standardizers):
    pairs = []
    shared = Standardizer.fit(_data(40)[0])
    for i in range(8):
        std = Standardizer.fit(_data(40, seed=i)[0]) if distinct_standardizers else shared
        pair = PredictorPair(6, (32, 32), standardizer=std, rng=i)
        if distinct_standardizers:  # as after registry.load_into
            pair.reliability.standardizer = replace(std)
        pairs.append(pair)
    for N in (1, 2, 7, 16, 33, 64):
        Z = _data(N, seed=N)[0]
        T_hat, A_hat = predict_pairs(pairs, Z)
        rows = [(_tape_predict(p.time, Z), _tape_predict(p.reliability, Z)) for p in pairs]
        assert np.array_equal(T_hat, np.stack([r[0] for r in rows]))
        assert np.array_equal(A_hat, np.stack([r[1] for r in rows]))
    # Held-out rounds as one (R, N, F) call (MFCP validation): each round
    # as if predicted alone — which one call on the concatenated rows is
    # not, to the last bit, with this BLAS.
    rounds = [_data(6, seed=300 + r)[0] for r in range(4)]
    whole = predict_pairs(pairs, np.stack(rounds))
    for r, Z in enumerate(rounds):
        for P, piece in zip(whole, predict_pairs(pairs, Z)):
            assert P.shape == (4, 8, 6) and np.array_equal(P[r], piece)


def test_deepcopied_method_reads_the_checkpoint_loaded_into_it(tmp_path):
    """NumPy views do not survive ``copy.deepcopy``: a bank cached on the
    method would keep predicting from storage ``load_into`` no longer
    writes.  Inference stacks the pairs' current weights on every call."""
    cfg = TrainConfig(epochs=2)
    fitted = TSM(train_config=cfg).fit(_fresh_ctx())
    other = TSM(train_config=replace(cfg, epochs=1)).fit(_fresh_ctx())
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.save(other).version
    tasks = _fresh_ctx().train_tasks[:9]
    Z = np.stack([t.features for t in tasks])
    before = fitted.predict(tasks)

    clone = copy.deepcopy(fitted)
    registry.load_into(clone, version)
    for got, want, old in zip(clone.predict(tasks), other.predict(tasks), before):
        assert np.array_equal(got, want)
        assert not np.array_equal(got, old)
    rows = [(_tape_predict(p.time, Z), _tape_predict(p.reliability, Z)) for p in clone.pairs]
    assert np.array_equal(clone.predict(tasks)[0], np.stack([r[0] for r in rows]))
    assert np.array_equal(clone.predict(tasks)[1], np.stack([r[1] for r in rows]))
    for got, old in zip(fitted.predict(tasks), before):  # the original is untouched
        assert np.array_equal(got, old)


def test_bank_rejects_mixed_or_empty_heads():
    with pytest.raises(ValueError):
        HeadBank([])
    with pytest.raises(ValueError):
        HeadBank([TimePredictor(4, rng=0), ReliabilityPredictor(4, rng=0)])
    with pytest.raises(ValueError):
        HeadBank([TimePredictor(4, (8,), rng=0), TimePredictor(4, (16,), rng=0)])


@pytest.mark.parametrize("hidden", [(8,), (32, 32), ()])
def test_heads_draw_the_tape_mlps_initial_weights(hidden):
    """A head's initial weights are the tape MLP's, bit for bit: per layer a
    child generator spawned from ``rng``, then the He-uniform draw; zero
    biases.  A pair's two heads draw from one generator in turn."""
    for kind in (TimePredictor, ReliabilityPredictor):
        head, net = kind(7, hidden, rng=3), MLP(7, hidden, 1, rng=3)
        assert [p.tobytes() for p in head.params] == [p.data.tobytes() for p in net.parameters()]
    pair, rng = PredictorPair(7, hidden, rng=as_generator(4)), as_generator(4)
    for head in (pair.time, pair.reliability):
        want = MLP(7, hidden, 1, rng=rng).parameters()
        assert [p.tobytes() for p in head.params] == [p.data.tobytes() for p in want]
    assert pair.in_features == 7 and pair.hidden_sizes == tuple(hidden)


def test_state_dict_keys_digest_and_old_checkpoints_hold(tmp_path):
    """Checkpoint names and order are the ``Sequential`` the heads once were;
    the weights digest is the one those modules gave; and a checkpoint
    written from the tape module's state loads into an array head."""
    from repro.nn import load_module
    from repro.serve.registry import weights_digest

    Z = _data(40)[0]
    rng = as_generator(7)
    pairs = [PredictorPair(6, (32, 32), standardizer=Standardizer.fit(Z), rng=rng)
             for _ in range(3)]
    assert weights_digest(pairs) == (
        "4917584429b94060f2c3f9210bc0f85521a472c7ab961dd7bce8eeb358641ddc")
    for head in (pairs[0].time, pairs[0].reliability):
        assert list(head.state_dict()) == list(_TapeHead(head).state_dict()) == [
            "net.net.m0.weight", "net.net.m0.bias", "net.net.m2.weight",
            "net.net.m2.bias", "net.net.m4.weight", "net.net.m4.bias"]
        assert head.num_parameters() == 6 * 32 + 32 + 32 * 32 + 32 + 32 + 1

    tape = _TapeHead(pairs[1].time)
    np.savez(tmp_path / "old.npz", **tape.state_dict())
    head = load_module(TimePredictor(6, (32, 32), standardizer=tape.standardizer, rng=0),
                       tmp_path / "old")
    _assert_same_weights([head], [tape])
    assert np.array_equal(head.predict(Z), _tape_predict(tape, Z))
    with pytest.raises(KeyError):
        head.load_state_dict({"bogus": np.zeros(3)})
    with pytest.raises(ValueError):
        head.load_state_dict({**head.state_dict(), "net.net.m0.bias": np.zeros(3)})


def test_one_forward_serves_the_bank_predict_and_predict_pairs(monkeypatch):
    """``_forward`` is the one head network: ``predict_pairs`` and a head's
    ``predict`` run it once per head kind in a fresh workspace, a bank's
    training pass in the bank's, and all read the same weights into the
    same bits."""
    workspaces = []
    real = models._forward

    def spy(link, layers, X, ws=None):
        workspaces.append("fresh" if ws is None else "bank")
        return real(link, layers, X, ws)

    monkeypatch.setattr(models, "_forward", spy)
    pairs = [PredictorPair(6, (32, 32), standardizer=Standardizer.fit(_data(40)[0]), rng=i)
             for i in range(5)]
    Z = _data(9, seed=4)[0]
    T_hat, A_hat = predict_pairs(pairs, Z)
    rows = [p.predict(Z) for p in pairs]
    assert workspaces == ["fresh"] * (2 + 2 * len(pairs))
    for kind, P in ((0, T_hat), (1, A_hat)):
        assert np.array_equal(P, np.stack([r[kind] for r in rows]))
        heads = [(p.time, p.reliability)[kind] for p in pairs]
        bank = HeadBank(heads)
        out, _ = bank.forward(bank.prepare(Z))
        assert workspaces[-1] == "bank"
        assert np.array_equal(out, P)
        assert np.array_equal(heads[2].predict(Z), P[2])  # read through the bank's views


# --------------------------------------------------------------------- #
# Edges of the links, ragged minibatches, round axes.
# --------------------------------------------------------------------- #

#: (scale of the last layer's weights, its bias) per head, cycled: a wide
#: spread across the clamp, raw log-times exactly at and beyond ±8; for
#: the reliability head, inputs on both sigmoid branches, deep in the
#: negative one and exactly 0.
_EDGES = {
    TimePredictor: [(40.0, 0.0), (0.0, 8.0), (0.0, -8.0), (0.0, 9.0), (0.0, -8.5), (1.0, 0.0)],
    ReliabilityPredictor: [(20.0, -5.0), (0.0, -30.0), (0.0, 0.0), (1.0, -2.0)],
}


def _apply_edges(heads):
    edges = _EDGES[type(heads[0])]
    for h, head in enumerate(heads):
        scale, bias = edges[h % len(edges)]
        head.params[-2] *= scale
        head.params[-1][...] = bias
    return heads


@pytest.mark.parametrize("kind", [TimePredictor, ReliabilityPredictor])
@pytest.mark.parametrize("H", [1, 24])
def test_link_edges_ragged_batches_and_round_axes_match_the_tape(kind, H):
    loss, oracle = (("log_mse", _oracle_train_time_mse) if kind is TimePredictor
                    else ("mse", _oracle_train_reliability))
    n, cfg = 37, TrainConfig(epochs=2, batch_size=16)  # minibatches of 16, 16, 5
    heads, twins = _twin_heads(kind, H, (32, 32), edges=True)
    sets = [_data(n, seed=h) for h in range(H)]
    Zs = [s[0] for s in sets]
    ys = [s[1] if kind is TimePredictor else s[2] for s in sets]
    first = np.stack([_tape_predict(t, Z) for t, Z in zip(twins, Zs)])
    if kind is TimePredictor:  # the clamp is hit from both sides
        assert (first == np.exp(8.0)).any() and (first == np.exp(-8.0)).any()
    else:  # the sigmoid's negative branch is taken
        assert (first < 0.5).any() and (first > 0.5).any()

    trainer = BankTrainer(heads, Zs, ys, cfg, [as_generator(60 + h) for h in range(H)],
                          loss=loss)
    trainer.run_steps(trainer.total_steps)
    opts = []
    for h, twin in enumerate(twins):
        res, opt = oracle(twin, Zs[h], ys[h], cfg, as_generator(60 + h))
        assert np.array_equal(trainer.results()[h].history, res.history)
        opts.append(opt)
    _assert_same_weights(heads, twins)
    _assert_same_moments(trainer.opt, opts)

    # The regret update from the same edges.
    heads, twins = _twin_heads(kind, H, (32, 32), edges=True)
    bank = HeadBank(heads)
    bank_opt = Adam(bank.params, lr=1e-3)
    head_opts = [Adam(t.parameters(), lr=1e-3) for t in twins]
    rng = as_generator(9)
    for step in range(3):
        Z = _data(7, seed=400 + step)[0]
        grads = rng.normal(size=(H, 7)) * 50.0
        out, saved = bank.forward(bank.prepare(Z))
        bank.backward(grads, saved, bank_opt.grads)
        bank.clip_grad_norm(GRAD_CLIP, bank_opt.grads)
        bank_opt.step()
        assert np.array_equal(out, _oracle_regret_update(twins, head_opts, Z, grads, GRAD_CLIP))
    _assert_same_weights(heads, twins)
    _assert_same_moments(bank_opt, head_opts)

    # (R, N, F) inference: every round of every head is its tape forward.
    pairs = [PredictorPair(6, (32, 32), rng=h) for h in range(H)]
    _apply_edges([p.time for p in pairs])
    _apply_edges([p.reliability for p in pairs])
    rounds = np.stack([_data(5, seed=500 + r)[0] for r in range(3)])
    got = predict_pairs(pairs, rounds)[0 if kind is TimePredictor else 1]
    assert got.shape == (3, H, 5)
    for r, Z in enumerate(rounds):
        for h, pair in enumerate(pairs):
            head = pair.time if kind is TimePredictor else pair.reliability
            assert np.array_equal(got[r, h], _tape_predict(head, Z))
            assert np.array_equal(head.predict(Z), _tape_predict(head, Z))


# --------------------------------------------------------------------- #
# No tape anywhere in training or inference.
# --------------------------------------------------------------------- #


def test_training_and_inference_build_no_tape(monkeypatch):
    """No model construction, pretraining step, refit step, regret update
    or prediction makes a ``Tensor`` (heads are plain arrays: not even a
    ``Parameter`` leaf)."""
    def guarded(self, *args, **kwargs):
        raise AssertionError("a tape node was built")

    monkeypatch.setattr(Tensor, "__init__", guarded)
    ctx = _fresh_ctx()
    pairs = fit_pairs(ctx.datasets, ctx.feature_dim, (8,), ctx.standardizer,
                      TrainConfig(epochs=1), as_generator(0))
    Z = ctx.features(ctx.train_tasks[:5])
    with pytest.raises(AssertionError):  # the guard is live
        _TapeHead(pairs[0].time)
    predict_pairs(pairs, Z)
    predict_pairs(pairs, np.stack([Z, Z]))
    pairs[0].predict(Z)
    ds = ctx.datasets[0]
    job = RefitJob.build(pairs, list(range(len(pairs))),
                         {0: LabelDataset(0, ds.Z, ds.t, ds.Z, ds.a)},
                         config=TrainConfig(epochs=1, batch_size=8),
                         rng=as_generator(1), min_cluster_labels=1)
    assert job.run_steps(3) == 3
    monkeypatch.setattr(mfcp_module, "VALIDATE_EVERY", 1)
    for gradient in ("analytic", "forward"):
        fitted = MFCP(gradient, replace(_FIT_CFG, epochs=1)).fit(_fresh_ctx())
        assert len(fitted.loss_history) == 1


# --------------------------------------------------------------------- #
# The flat Adam step: scratch buffers, same bits as the expressions.
# --------------------------------------------------------------------- #


def _ref_adam_step(data, grad, m, v, steps, lr, betas, weight_decay):
    """The Adam step as whole-buffer expressions (the previous code)."""
    b1, b2 = betas
    bc1 = 1.0 - b1**steps
    bc2 = 1.0 - b2**steps
    g = grad
    if weight_decay:
        g = g + weight_decay * data
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    data -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


@pytest.mark.parametrize("weight_decay", [0.0, WEIGHT_DECAY])
def test_adam_step_matches_the_expressions_and_allocates_nothing(weight_decay):
    import tracemalloc

    rng = as_generator(3)
    size = 13_000  # the 104 kB buffer of a TSM fit's bank
    opt = Adam(flatten([rng.normal(size=(100, 65)), rng.normal(size=6500)]),
               lr=3e-3, weight_decay=weight_decay)
    data, m, v = opt.data.copy(), np.zeros(size), np.zeros(size)
    for step in range(1, 41):
        # Gradients spanning magnitudes, with exact zeros and sign flips.
        g = rng.normal(size=size) * 10.0 ** rng.integers(-12, 6, size=size)
        g[rng.random(size) < 0.05] = 0.0
        opt.grad[...] = g
        tracemalloc.start()
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4096, f"step {step} allocated {peak} bytes"
        _ref_adam_step(data, g, m, v, step, 3e-3, BETAS, weight_decay)
        assert opt.data.tobytes() == data.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()
    assert opt.grad.tobytes() == g.tobytes()  # the step leaves gradients alone


@pytest.mark.parametrize("kind", [TimePredictor, ReliabilityPredictor])
def test_bank_step_allocates_nothing_after_warm_up(kind):
    """A training step runs in the trainer's and the bank's workspaces: after
    one epoch has sized them, 20 steps — full and tail minibatches of 32
    and 6 rows, ten epoch starts — hold under 4 kB at peak (the loss each
    step returns and the per-epoch history included)."""
    import tracemalloc

    loss = "log_mse" if kind is TimePredictor else "mse"
    H, n = 8, 38
    sets = [_data(n, seed=h) for h in range(H)]
    heads = [kind(6, HIDDEN, rng=h) for h in range(H)]
    trainer = BankTrainer(heads, [s[0] for s in sets],
                          [s[1] if loss == "log_mse" else s[2] for s in sets],
                          TrainConfig(epochs=12, batch_size=32),
                          [as_generator(h) for h in range(H)], loss=loss)
    assert trainer.run_steps(trainer.steps_per_epoch) == 2
    tracemalloc.start()
    assert trainer.run_steps(20) == 20
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4096, f"20 steps allocated {peak} bytes at peak"



class _TracedLayers(list):
    """Layers that record, as a pass walks them, the bytes traced at peak
    while each layer ran, above what was traced when it began (between two
    steps of the iteration).  ``tracemalloc`` must be tracing."""

    def __iter__(self):
        import tracemalloc

        self.allocated = []
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        for layer in super().__iter__():
            yield layer
            now, peak = tracemalloc.get_traced_memory()
            self.allocated.append(peak - start)
            tracemalloc.reset_peak()
            start = now


@pytest.mark.parametrize("kind", [TimePredictor, ReliabilityPredictor])
def test_inference_layers_allocate_nothing(kind):
    """At a serving shape (8 heads x 6 tasks), an inference pass's layers
    allocate no array: products, masks and the bias copy go into buffers
    sized before the first layer.  In particular the bias add allocates no
    iteration buffer, which ``x @ weight + bias`` (a ufunc broadcasting the
    ``(H, 1, out)`` bias) does: a full product-sized one, 12 kB here."""
    import tracemalloc

    H, N = 8, 6
    heads = [kind(6, HIDDEN, rng=h) for h in range(H)]
    states = [h.state_dict() for h in heads]
    stacks = [np.array([state[name] for state in states]) for name in states[0]]
    layers = _TracedLayers(
        (weight, bias[:, None, :]) for weight, bias in zip(stacks[::2], stacks[1::2]))
    X = np.broadcast_to(_data(N, seed=5)[0][None], (H, N, 6))
    tracemalloc.start()
    try:
        models._forward(kind._link_np, layers, X)
    finally:
        tracemalloc.stop()
    assert len(layers.allocated) == len(HIDDEN) + 1
    assert max(layers.allocated) < 1024, layers.allocated
