"""The decide path makes fewer NumPy calls and returns the same bytes.

The relaxed solve (``BarrierEval`` + ``solve_relaxed``, ``BatchBarrierEval``
+ ``solve_relaxed_batch``), the rounding's ``_local_search``, the solver's
interior start ``feasible_start`` and the predictor restack
``_stack_linear`` were rewritten so a window at serving shapes pays fewer
Python wrappers: the ufuncs' own ``reduce`` in place of ``.sum()`` /
``.max()``, Python-float scalars in place of NumPy ones, ``np.einsum``'s C
kernel, in-place mirror updates and ``np.array`` in place of ``np.stack``.
None of that may change an operation, an operand or their order.  The
``_ref_*`` code below is the previous implementation kept verbatim (names
changed only to point at each other) and is the oracle: iterates,
objectives, histories, counters, telemetry observations, rounded matchings
and stacked weights must be byte-equal to it.
"""

from __future__ import annotations

import copy
import itertools
import math
import time

import numpy as np
import pytest

from repro.matching import (
    BatchProblem,
    ExponentialDecaySpeedup,
    MatchingProblem,
    SolverConfig,
    assignment_from_labels,
    feasible_gamma,
    labels_from_assignment,
    round_assignment,
    solve_relaxed,
    solve_relaxed_batch,
)
from repro.matching.batch import (
    HALVINGS,
    BatchBarrierEval,
    BatchSolution,
    _feasible_start_batch,
    _reset_padding,
    _scatter,
)
from repro.matching.objectives import (
    BarrierEval,
    c_einsum,
    cluster_loads,
    decision_cost,
    reliability_value,
)
from repro.matching.relaxed import BACKTRACK, RelaxedSolution, _project
from repro.matching.rounding import MAX_MOVES, _local_search, _repair_reliability
from repro.nn.layers import Linear
from repro.predictors.models import ReliabilityPredictor, TimePredictor, _stack_linear
from repro.telemetry import (
    ITER_BUCKETS,
    LEVEL_BUCKETS,
    SIZE_BUCKETS,
    TIME_BUCKETS_S,
    Recorder,
    get_recorder,
)

# --------------------------------------------------------------------- #
# References: the previous implementation.
# --------------------------------------------------------------------- #

_XLOG_EPS = 1e-12


class _RefBarrierEval:
    def __init__(self, problem: MatchingProblem) -> None:
        self.T, self.A = problem.T, problem.A
        self.MN = problem.M * problem.N
        self.gamma, self.beta, self.lam = problem.gamma, problem.beta, problem.lam
        self.tau, self.lamA = problem.entropy, problem.lam * problem.A
        self.linear = problem.cost == "linear"
        self.hinge = problem.penalty == "hinge"
        self.zetas = problem.speedup if problem.is_parallel else None

    def value(self, X: np.ndarray) -> tuple[float, tuple | None]:
        slack = float((X * self.A).sum() / self.MN - self.gamma)
        if self.hinge:
            pen = self.lam * max(0.0, -slack)
        elif slack <= 0:
            return float("inf"), None
        else:
            pen = -self.lam * float(np.log(slack))
            if not math.isfinite(pen):
                return float("inf"), None
        sums = np.einsum("ij,ij->i", X, self.T)
        c = sums
        zeta = counts = e = esum = logX = None
        if self.zetas is not None:
            counts = X.sum(axis=1)
            zeta = np.array([float(s.value(np.array(k))) for s, k in zip(self.zetas, counts)])
            c = zeta * sums
        if self.linear:
            cost = float(c.sum())
        else:
            bc = self.beta * c
            shift = bc.max()
            e = np.exp(bc - shift)
            esum = e.sum()
            cost = float(np.log(esum) + shift) / self.beta
        ent = 0.0
        if self.tau:
            Xc = np.maximum(X, _XLOG_EPS)
            logX = np.log(Xc)
            ent = float(self.tau * (Xc * logX).sum())
        return cost + pen + ent, (slack, sums, zeta, counts, e, esum, logX)

    def gradient(self, X: np.ndarray, state: tuple | None = None) -> np.ndarray:
        if state is None:
            state = self.value(X)[1]
            if state is None:
                raise ValueError("barrier gradient evaluated at an infeasible point (g <= 0)")
        slack, sums, zeta, counts, e, esum, logX = state
        dc = self.T
        if zeta is not None:
            dz = [float(s.derivative(np.array(k))) for s, k in zip(self.zetas, counts)]
            dzeta = np.array(dz)
            dc = dzeta[:, None] * sums[:, None] + zeta[:, None] * self.T
        grad = dc * 1.0 if self.linear else (e / esum)[:, None] * dc
        if not self.hinge:
            grad -= self.lamA / (self.MN * slack)
        elif slack < 0:
            grad -= self.lamA / self.MN
        if self.tau:
            grad += self.tau * (1.0 + logX)
        return grad


def _ref_reliability_slack(problem: MatchingProblem, X: np.ndarray) -> float:
    return float(np.sum(X * problem.A) / (problem.M * problem.N) - problem.gamma)


def _ref_feasible_start(problem: MatchingProblem) -> np.ndarray:
    uniform = problem.uniform_assignment()
    s_u = _ref_reliability_slack(problem, uniform)
    greedy = np.zeros((problem.M, problem.N))
    greedy[problem.A.argmax(axis=0), np.arange(problem.N)] = 1.0
    s_g = _ref_reliability_slack(problem, greedy)
    if s_g <= 0:
        raise ValueError(
            f"gamma={problem.gamma:.4f} is unattainable: even the most reliable "
            f"assignment has slack {s_g:.4g}"
        )
    target = 0.25 * s_g
    if s_u >= target:
        return uniform
    alpha_target = (target - s_u) / (s_g - s_u)
    alpha_feasible = (0.0 - s_u) / (s_g - s_u)
    alpha = max(alpha_target, alpha_feasible + 0.25 * (1.0 - alpha_feasible))
    alpha = min(alpha, 1.0 - 1e-6)
    return (1.0 - alpha) * uniform + alpha * greedy


def _ref_solve_relaxed(problem, config=None, *, x0=None) -> RelaxedSolution:
    cfg = config or SolverConfig()
    cold = _ref_feasible_start(problem)
    X = cold if x0 is None else np.array(x0, dtype=np.float64)
    if X.shape != (problem.M, problem.N):
        raise ValueError(f"x0 must have shape {(problem.M, problem.N)}, got {X.shape}")
    if not _ref_reliability_slack(problem, X) > 0.0:
        for alpha in (0.25, 0.5, 0.75):
            blended = (1.0 - alpha) * X + alpha * cold
            if _ref_reliability_slack(problem, blended) > 0.0:
                X = blended
                break
        else:
            X = cold

    ev = _RefBarrierEval(problem)
    f_cur, state = ev.value(X)
    if X is not cold:
        f_cold, cold_state = ev.value(cold)
        if f_cold < f_cur:
            X, f_cur, state = cold, f_cold, cold_state
    history = np.empty(cfg.max_iters + 1)
    history[0] = f_cur
    best_X, best_f = X, f_cur
    stall = 0
    it = 0

    rec = get_recorder()
    tele = rec.enabled
    ls_time = 0.0

    def _emit(sol: RelaxedSolution) -> RelaxedSolution:
        if tele:
            rec.counter_add("solve/calls")
            rec.observe("solve/iterations", sol.iterations, bounds=ITER_BUCKETS)
            rec.observe("solve/trials", sol.trials, bounds=ITER_BUCKETS)
            rec.observe("solve/line_search_s", ls_time, bounds=TIME_BUCKETS_S)
            if not sol.converged:
                rec.counter_add("solve/nonconverged")
        return sol
    monotone = cfg.projection != "softmax"
    mirror = cfg.projection == "mirror"
    clip = not (mirror and cfg.lr <= 49.0)
    last_halvings = 0
    trials = 0
    for it in range(1, cfg.max_iters + 1):
        grad = ev.gradient(X, state)
        step = cfg.lr
        if mirror:
            step = cfg.lr / max(float(np.abs(grad).max()), 1e-9)
        accepted = False
        if tele:
            ls_t0 = time.perf_counter()
        for h in range(BACKTRACK):
            if mirror:
                expo = step * grad
                Z = X * np.exp(-(np.clip(expo, -50.0, 50.0) if clip else expo))
                X_new = Z / Z.sum(axis=0, keepdims=True)
            else:
                X_new = _project(X - step * grad, cfg.projection)
            f_new, state_new = ev.value(X_new)
            trials += 1
            if math.isfinite(f_new) and (not monotone or f_new <= f_cur + 1e-12):
                accepted = True
                last_halvings = h
                break
            step *= 0.5
        if tele:
            ls_time += time.perf_counter() - ls_t0
        if not accepted:
            history = history[: it + 1]
            history[it] = best_f
            return _emit(RelaxedSolution(X=best_X, objective=best_f, iterations=it,
                                         converged=True, history=history.copy(),
                                         halvings=last_halvings, trials=trials))
        improvement = f_cur - f_new
        X, f_cur, state = X_new, f_new, state_new
        if f_cur < best_f:
            best_X, best_f = X, f_cur
        history[it] = f_cur
        if abs(improvement) < cfg.tol:
            stall += 1
            if stall >= cfg.patience:
                history = history[: it + 1]
                return _emit(RelaxedSolution(X=best_X, objective=best_f, iterations=it,
                                             converged=True, history=history.copy(),
                                             halvings=last_halvings, trials=trials))
        else:
            stall = 0
    return _emit(RelaxedSolution(
        X=best_X, objective=best_f, iterations=it, converged=False,
        history=history[: it + 1].copy(), halvings=last_halvings, trials=trials
    ))


_XEPS = 1e-12


class _RefBatchBarrierEval:
    def __init__(self, p: BatchProblem) -> None:
        self.T, self.A, self.gamma, self.mn, self.real = p.T, p.A, p.gamma, p.mn, p.real
        self.beta, self.lam, self.tau = p.beta, p.lam, p.entropy
        self.lamA = (p.lam / (p.M * p.widths)).astype(p.dtype)[:, None, None] * p.A

    def take(self, idx: np.ndarray) -> "_RefBatchBarrierEval":
        sub = copy.copy(self)
        sub.T, sub.A, sub.gamma = self.T[idx], self.A[idx], self.gamma[idx]
        sub.mn, sub.lamA = self.mn[idx], self.lamA[idx]
        if self.real is not None:
            sub.real = self.real[idx]
        return sub

    def slack(self, X: np.ndarray, rows=slice(None)) -> np.ndarray:
        return np.einsum("...mn,...mn->...", X, self.A[rows]) / self.mn[rows] - self.gamma[rows]

    def value(self, X: np.ndarray, rows=slice(None)) -> tuple[np.ndarray, tuple]:
        slack = self.slack(X, rows)
        z = self.beta * np.einsum("...mn,...mn->...m", X, self.T[rows])
        shift = z.max(axis=-1, keepdims=True)
        e = np.exp(z - shift)
        esum = e.sum(axis=-1)
        lse = (np.log(esum) + shift[..., 0]) / self.beta
        f = np.where(slack > 0, lse - self.lam * np.log(np.maximum(slack, _XEPS)), np.inf)
        logX = None
        if self.tau:
            Xc = np.maximum(X, _XEPS)
            logX = np.log(Xc)
            if self.real is not None:
                logX *= self.real[rows]
            f = f + self.tau * np.einsum("...mn,...mn->...", Xc, logX)
        return f, (slack, e, esum, logX)

    def gradient(self, state: tuple, slack: np.ndarray | None = None) -> np.ndarray:
        s, e, esum, logX = state
        grad = (e / esum[..., None])[..., None] * self.T
        grad -= self.lamA / (s if slack is None else slack)[..., None, None]
        if self.tau:
            ent = self.tau * (1.0 + logX)
            if self.real is not None:
                ent *= self.real
            grad += ent
        return grad


def _ref_feasible_start_batch(p: BatchProblem) -> np.ndarray:
    B, M, N = p.B, p.M, p.N
    uniform = np.full((B, M, N), 1.0 / M, dtype=p.T.dtype)
    greedy = np.zeros((B, M, N), dtype=p.T.dtype)
    b_idx = np.repeat(np.arange(B), N)
    n_idx = np.tile(np.arange(N), B)
    greedy[b_idx, p.A.argmax(axis=1).ravel(), n_idx] = 1.0
    s_u = np.einsum("bmn,bmn->b", uniform, p.A) / p.mn - p.gamma
    s_g = np.einsum("bmn,bmn->b", greedy, p.A) / p.mn - p.gamma
    if np.any(s_g <= 0):
        raise ValueError("some instances have an unattainable gamma")
    target = 0.25 * s_g
    denom = np.maximum(s_g - s_u, 1e-12)
    alpha_t = (target - s_u) / denom
    alpha_f = (0.0 - s_u) / denom
    alpha = np.clip(np.maximum(alpha_t, alpha_f + 0.25 * (1 - alpha_f)), 0.0, 1 - 1e-6)
    alpha = alpha[:, None, None]
    return _reset_padding((1.0 - alpha) * uniform + alpha * greedy, p)


def _ref_mirror_step(X: np.ndarray, grad: np.ndarray, neg_step: np.ndarray) -> np.ndarray:
    expo = neg_step[:, None, None] * grad
    np.exp(expo, out=expo)
    Z = X * expo
    Z /= Z.sum(axis=1, keepdims=True)
    return Z


def _ref_solve_relaxed_batch(problem, *, lr=0.5, max_iters=200, x0=None, tol=0.0,
                             patience=5, adaptive_trials=False):
    if lr <= 0 or max_iters <= 0:
        raise ValueError("lr and max_iters must be > 0")
    if tol < 0 or patience < 1:
        raise ValueError("tol must be >= 0 and patience >= 1")
    if x0 is None:
        X = _ref_feasible_start_batch(problem)
    else:
        X = np.array(x0, dtype=problem.T.dtype)
        if X.shape != problem.T.shape:
            raise ValueError(f"x0 must have shape {problem.T.shape}, got {X.shape}")
        _reset_padding(X, problem)
    ev = _RefBatchBarrierEval(problem)
    fa, st = ev.value(X)
    if np.any(st[0] <= 0):
        X = np.where((st[0] <= 0)[:, None, None], _ref_feasible_start_batch(problem), X)
        fa, st = ev.value(X)

    B = problem.B
    out_X, out_f = X.copy(), fa.copy()
    converged = np.zeros(B, dtype=bool)
    max_it_used = trials = 0
    steps = [lr / 2.0**h for h in range(HALVINGS)]
    steps_arr = np.asarray(steps, dtype=problem.T.dtype)
    k = np.zeros(B, dtype=np.intp) if adaptive_trials else None

    rec = get_recorder()
    tele = rec.enabled
    ls_time = 0.0

    active = np.arange(B)
    Xa = X
    stall = np.zeros(B, dtype=np.int64)

    for it in range(max_iters):
        if active.size == 0:
            break
        grad = ev.gradient(st)
        scale = np.maximum(np.abs(grad).max(axis=(1, 2)), 1e-9)  # (b,)
        if tele:
            ls_t0 = time.perf_counter()
        neg_s1 = -steps_arr[k] if adaptive_trials else -steps[0]
        Z = _ref_mirror_step(Xa, grad, neg_s1 / scale)
        f_new, st_new = ev.value(Z)  # (b,)
        trials += active.size
        any_ok = f_new <= fa + 1e-12
        lvl = k.copy() if adaptive_trials else None  # accepted level
        lvl_rec = np.zeros(f_new.size, dtype=np.intp) if tele and lvl is None else None
        if not any_ok.all():
            r = np.flatnonzero(~any_ok)
            lvl_r = (k[r] + 1) if adaptive_trials else None
            for h in range(1, HALVINGS):
                if adaptive_trials:
                    alive = lvl_r < HALVINGS
                    if not alive.all():
                        r, lvl_r = r[alive], lvl_r[alive]
                if r.size == 0:
                    break
                neg_s = -steps_arr[lvl_r] if adaptive_trials else -steps[h]
                Zr = _ref_mirror_step(Xa[r], grad[r], neg_s / scale[r])
                f_r, st_r = ev.value(Zr, r)
                trials += r.size
                ok = f_r <= fa[r] + 1e-12
                if ok.any():
                    acc = r[ok]
                    Z[acc] = Zr[ok]
                    f_new[acc] = f_r[ok]
                    _scatter(st_new, acc, st_r, ok)
                    any_ok[acc] = True
                    if adaptive_trials:
                        lvl[acc] = lvl_r[ok]
                        lvl_r = lvl_r[~ok]
                    elif lvl_rec is not None:
                        lvl_rec[acc] = h
                    r = r[~ok]
                if adaptive_trials:
                    lvl_r = lvl_r + 1
            rem = np.flatnonzero(~any_ok)
            if rem.size:
                Z[rem] = Xa[rem]
                f_new[rem] = fa[rem]
                _scatter(st_new, rem, st, rem)
        if tele:
            ls_time += time.perf_counter() - ls_t0
            acc_lvls = (lvl if adaptive_trials else lvl_rec)[any_ok]
            if acc_lvls.size:
                for h_lvl, cnt in enumerate(np.bincount(acc_lvls)):
                    if cnt:
                        rec.observe("batch_solve/cascade_level", h_lvl,
                                    n=int(cnt), bounds=LEVEL_BUCKETS)
        if adaptive_trials:
            np.maximum(lvl - 1, 0, out=k, where=any_ok)
        max_it_used = it + 1
        if tol > 0:
            stall += 1
            stall[fa - f_new >= tol] = 0
            frozen = stall >= patience
            frozen |= ~any_ok
        else:
            frozen = ~any_ok
        Xa, fa, st = Z, f_new, st_new
        if np.any(frozen):
            done = active[frozen]
            out_X[done] = Xa[frozen]
            out_f[done] = fa[frozen]
            converged[done] = True
            keep = ~frozen
            active, Xa, fa, stall = active[keep], Xa[keep], fa[keep], stall[keep]
            st = tuple(None if s is None else s[keep] for s in st)
            ev = ev.take(keep)
            if adaptive_trials:
                k = k[keep]

    if active.size:
        out_X[active] = Xa
        out_f[active] = fa
    if tele:
        rec.counter_add("batch_solve/calls")
        rec.counter_add("batch_solve/instances", B)
        rec.observe("batch_solve/batch_size", B, bounds=SIZE_BUCKETS)
        rec.observe("batch_solve/iterations", max_it_used, bounds=ITER_BUCKETS)
        rec.counter_add("batch_solve/frozen_instances", float(converged.sum()))
        rec.counter_add("batch_solve/line_search_s", ls_time)
    return BatchSolution(
        X=out_X, objective=out_f, iterations=max_it_used, converged=converged,
        trials=trials,
    )


def _ref_cluster_loads(X: np.ndarray, problem: MatchingProblem) -> np.ndarray:
    sums = np.einsum("ij,ij->i", X, problem.T)
    if not problem.is_parallel:
        return sums
    counts = X.sum(axis=1)
    zeta = np.array([s.value(np.array(k)) for s, k in zip(problem.speedup_tuple(), counts)])
    return zeta.ravel() * sums


def _ref_decision_cost(X: np.ndarray, problem: MatchingProblem) -> float:
    if problem.cost == "linear":
        return float(_ref_cluster_loads(X, problem).sum())
    return float(_ref_cluster_loads(X, problem).max())


def _ref_local_search(X: np.ndarray, problem: MatchingProblem, max_moves: int) -> np.ndarray:
    X = X.copy()
    feasible_required = _ref_reliability_slack(problem, X) >= 0
    bottleneck_only = problem.cost == "makespan" and not problem.is_parallel
    for _ in range(max_moves):
        base = _ref_decision_cost(X, problem)
        labels = labels_from_assignment(X)
        candidates = range(problem.N)
        if bottleneck_only:
            hot = np.flatnonzero(_ref_cluster_loads(X, problem) >= base - 1e-12)
            if hot.size > 1:
                return X
            candidates = np.flatnonzero(labels == hot[0])
        improved = False
        for j in candidates:
            src = labels[j]
            for i in range(problem.M):
                if i == src:
                    continue
                X[src, j] = 0.0
                X[i, j] = 1.0
                if _ref_decision_cost(X, problem) < base - 1e-12 and (
                    not feasible_required or _ref_reliability_slack(problem, X) >= 0
                ):
                    improved = True
                    break
                X[i, j] = 0.0
                X[src, j] = 1.0
            if improved:
                break
        if not improved:
            return X
    return X


def _ref_stack_linear(layers):
    return (np.stack([m.weight.data for m in layers]),
            np.stack([m.bias.data for m in layers])[:, None, :])


# --------------------------------------------------------------------- #
# Helpers.
# --------------------------------------------------------------------- #


def _same(a, b) -> bool:
    """Equal bytes, shape and dtype (NaN-safe, ±0.0-strict)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _observations(rec: Recorder) -> dict:
    """A recorder's metrics minus the two wall-clock line-search series."""
    agg = rec.aggregate()
    agg.pop("spans")
    for kind in ("counters", "histograms"):
        for name in ("solve/line_search_s", "batch_solve/line_search_s"):
            agg.get(kind, {}).pop(name, None)
    return agg


def _instance(rng, m, n, quantile, **kwargs) -> MatchingProblem:
    T = rng.uniform(0.2, 3.0, size=(m, n))
    A = rng.uniform(0.3, 0.995, size=(m, n))
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=quantile), **kwargs)


def _kwargs(cost, penalty, parallel, entropy) -> dict:
    return dict(cost=cost, penalty=penalty, entropy=entropy,
                speedup=(ExponentialDecaySpeedup(),) if parallel else None)


_VARIANTS = list(itertools.product(
    ("makespan", "linear"), ("log_barrier", "hinge"), (False, True), (0.0, 0.01)))


# --------------------------------------------------------------------- #
# The einsum kernel.
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_c_einsum_is_np_einsum_for_every_subscript_used(dtype):
    rng = np.random.default_rng(0)
    for m, n in ((3, 16), (8, 3), (24, 64), (1, 1)):
        X, T = (rng.uniform(0.0, 3.0, (m, n)).astype(dtype) for _ in range(2))
        assert _same(c_einsum("ij,ij->i", X, T), np.einsum("ij,ij->i", X, T))
        for lead in ((5,), (2, 5)):  # a batch, a cascade over a batch
            Xb = rng.uniform(0.0, 1.0, (*lead, m, n)).astype(dtype)
            Tb = rng.uniform(0.0, 3.0, (5, m, n)).astype(dtype)
            for sub in ("...mn,...mn->...", "...mn,...mn->...m"):
                assert _same(c_einsum(sub, Xb, Tb), np.einsum(sub, Xb, Tb))
        Xb, Tb = (rng.uniform(0.0, 1.0, (4, m, n)).astype(dtype) for _ in range(2))
        assert _same(c_einsum("bmn,bmn->b", Xb, Tb), np.einsum("bmn,bmn->b", Xb, Tb))


# --------------------------------------------------------------------- #
# Scalar driver.
# --------------------------------------------------------------------- #


def _assert_scalar_identical(p, cfg, x0=None):
    ref_rec, rec = Recorder("summary", run="ref"), Recorder("summary", run="new")
    with ref_rec.activate():
        ref = _ref_solve_relaxed(p, cfg, x0=x0)
    with rec.activate():
        got = solve_relaxed(p, cfg, x0=x0)
    assert _same(got.X, ref.X) and _same(got.history, ref.history)
    assert (got.objective, got.iterations, got.converged, got.halvings, got.trials) == (
        ref.objective, ref.iterations, ref.converged, ref.halvings, ref.trials)
    assert _observations(rec) == _observations(ref_rec)
    off = solve_relaxed(p, cfg, x0=x0)  # recorder off: the same solve
    assert _same(off.X, got.X) and _same(off.history, got.history)
    return got


def test_evaluator_value_gradient_and_state_are_the_reference():
    rng = np.random.default_rng(3)
    for variant in _VARIANTS:
        p = _instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 17)), 0.4,
                      **_kwargs(*variant))
        ev, ref = BarrierEval(p), _RefBarrierEval(p)
        for X in (p.feasible_start(), solve_relaxed(p, SolverConfig(max_iters=5)).X):
            (f, state), (rf, rstate) = ev.value(X), ref.value(X)
            assert f == rf
            for a, b in zip(state, rstate):
                assert (a is None) == (b is None)
                if a is not None:
                    assert _same(np.float64(a) if np.isscalar(a) else a,
                                 np.float64(b) if np.isscalar(b) else b)
            assert _same(ev.gradient(X, state), ref.gradient(X, rstate))
            assert _same(ev.gradient(X), ref.gradient(X))


@pytest.mark.parametrize("projection", ["mirror", "softmax", "euclidean"])
@pytest.mark.parametrize("lr", [0.5, 60.0])  # 60: the clipped exponent
def test_scalar_driver_is_the_reference(projection, lr):
    rng = np.random.default_rng([1, len(projection), int(lr)])
    seen = {"blend": 0, "fallback": 0, "hedge": 0}
    for variant in _VARIANTS:
        parallel = variant[2]
        m = int(rng.integers(2, 7 if parallel else 13))
        n = int(rng.integers(1, 13 if parallel else 33))
        kwargs = _kwargs(*variant)
        cfg = SolverConfig(lr=lr, projection=projection, max_iters=10,
                           tol=float(rng.choice([1e-3, 1e-7])))
        p = _instance(rng, m, n, float(rng.uniform(0.1, 0.6)), **kwargs)
        cold = _assert_scalar_identical(p, cfg)

        # Warm: the next window is a perturbation with a tighter γ.
        T2 = p.T * rng.uniform(0.9, 1.1, size=p.T.shape)
        A2 = np.clip(p.A * rng.uniform(0.9, 1.05, size=p.A.shape), 0.0, 1.0)
        p2 = MatchingProblem(T=T2, A=A2, gamma=feasible_gamma(T2, A2, quantile=0.9), **kwargs)
        _assert_scalar_identical(p2, cfg, cold.X)

        # Infeasible seeds: just outside the domain, and the least
        # reliable vertex.
        interior = p2.feasible_start()
        worst = np.zeros((m, n))
        worst[p2.A.argmin(axis=0), np.arange(n)] = 1.0
        s_int, s_bad = p2.reliability_slack(interior), p2.reliability_slack(worst)
        w = 1.1 * s_int / (s_int - s_bad)
        for x0 in ((1.0 - w) * interior + w * worst, worst):
            assert not p2.is_strictly_feasible(x0)
            recovers = p2.is_strictly_feasible(0.25 * x0 + 0.75 * interior)
            seen["blend" if recovers else "fallback"] += 1
            _assert_scalar_identical(p2, cfg, x0)

        # A feasible but stale seed: the hedge's cold point wins.
        slow = np.zeros((m, n))
        slow[p2.T.argmax(axis=0), np.arange(n)] = 1.0
        w = 0.5 * min(1.0, s_int / max(s_int - p2.reliability_slack(slow), 1e-12))
        stale = (1.0 - w) * interior + w * slow
        seen["hedge"] += BarrierEval(p2).value(interior)[0] < BarrierEval(p2).value(stale)[0]
        _assert_scalar_identical(p2, cfg, stale)
    assert all(seen.values()), seen


def test_serving_shapes_warm_chained_are_the_reference():
    """serve_steady's 3x16 and serve_churn's 8x3 at the serving tolerances."""
    cfg = SolverConfig(tol=1e-4, max_iters=400)
    for m, n, seed in ((3, 16, 7), (8, 3, 8), (8, 8, 9)):
        rng = np.random.default_rng(seed)
        T = rng.uniform(0.2, 3.0, size=(m, n))
        A = rng.uniform(0.6, 1.0, size=(m, n))
        x0 = None
        for _ in range(6):
            T = T * rng.uniform(0.95, 1.05, size=T.shape)
            A = np.clip(A * rng.uniform(0.98, 1.02, size=A.shape), 0.0, 1.0)
            p = MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5))
            x0 = _assert_scalar_identical(p, cfg, x0).X


def test_feasible_start_and_slack_are_the_reference():
    rng = np.random.default_rng(5)
    uniform_wins = blended = 0
    for case in range(120):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 20))
        p = _instance(rng, m, n, float(rng.choice([0.0, 0.3, 0.7, 1.0])))
        got = p.feasible_start()
        assert _same(got, _ref_feasible_start(p))
        uniform_wins += _same(got, p.uniform_assignment())
        blended += not _same(got, p.uniform_assignment())
        X = rng.uniform(0.0, 1.0, (m, n))
        assert p.reliability_slack(X) == _ref_reliability_slack(p, X)
        assert type(p.reliability_slack(X)) is float
    assert uniform_wins and blended
    # An unattainable γ raises with the same message.
    T, A = rng.uniform(0.2, 3.0, (3, 4)), rng.uniform(0.3, 0.9, (3, 4))
    p = MatchingProblem(T=T, A=A, gamma=1.0)
    with pytest.raises(ValueError) as ref_err:
        _ref_feasible_start(p)
    with pytest.raises(ValueError, match="unattainable") as err:
        p.feasible_start()
    assert str(err.value) == str(ref_err.value)


# --------------------------------------------------------------------- #
# Batch driver.
# --------------------------------------------------------------------- #


def _batch(rng, B, M, N, dtype, entropy, ragged):
    widths = rng.integers(1, N + 1, B) if ragged else np.full(B, N)
    real = np.arange(N) < widths[:, None]
    T = rng.uniform(0.3, 4.0, (B, M, N)) * real[:, None, :]
    A = rng.uniform(0.6, 1.0, (B, M, N)) * real[:, None, :]
    # Instances 1 and 4 demand nearly the best attainable reliability.
    tight = np.where(np.isin(np.arange(B), (1, 4)), 0.97, 0.6)
    gamma = tight * A.max(axis=1).sum(axis=1) / (M * widths)
    return BatchProblem(T=T, A=A, gamma=gamma, dtype=dtype, entropy=entropy,
                        widths=widths if ragged else None)


def _assert_batch_identical(p, **kw):
    ref_rec, rec = Recorder("summary", run="ref"), Recorder("summary", run="new")
    with ref_rec.activate():
        ref = _ref_solve_relaxed_batch(p, **kw)
    with rec.activate():
        got = solve_relaxed_batch(p, **kw)
    assert _same(got.X, ref.X) and _same(got.objective, ref.objective)
    assert (got.iterations, got.trials) == (ref.iterations, ref.trials)
    assert _same(got.converged, ref.converged)
    assert _observations(rec) == _observations(ref_rec)
    off = solve_relaxed_batch(p, **kw)
    assert _same(off.X, got.X) and (off.iterations, off.trials) == (got.iterations, got.trials)
    return got


@pytest.mark.parametrize("dtype,adaptive", list(itertools.product(
    (np.float32, np.float64), (False, True))))
def test_batch_driver_is_the_reference(dtype, adaptive):
    rng = np.random.default_rng([2, adaptive, np.dtype(dtype).itemsize])
    repaired = 0
    for entropy, ragged, tol in itertools.product((0.0, 0.05), (False, True), (0.0, 1e-4)):
        M, N = int(rng.integers(2, 7)), int(rng.integers(2, 13))
        p = _batch(rng, 6, M, N, dtype, entropy, ragged)
        kw = dict(max_iters=40, tol=tol, adaptive_trials=adaptive)
        cold = _assert_batch_identical(p, **kw)
        # Warm: the solution, noised; the two tight instances seeded at
        # their least reliable vertex, so the repair swaps the blend start in.
        x0 = np.maximum(cold.X + rng.uniform(0.0, 0.2, cold.X.shape), 1e-6)
        worst = np.zeros_like(x0)
        for b in (1, 4):
            worst[b, p.A[b].argmin(axis=0), np.arange(N)] = 1.0
            x0[b] = worst[b]
        x0 /= x0.sum(axis=1, keepdims=True)
        repaired += int((BatchBarrierEval(p).slack(x0.astype(dtype)) <= 0).sum())
        _assert_batch_identical(p, x0=x0, **kw)
    assert repaired


def test_batch_evaluator_is_the_reference():
    rng = np.random.default_rng(4)
    for dtype, entropy, ragged in itertools.product(
            (np.float32, np.float64), (0.0, 0.05), (False, True)):
        p = _batch(rng, 5, 4, 9, dtype, entropy, ragged)
        ev, ref = BatchBarrierEval(p), _RefBatchBarrierEval(p)
        X = _ref_feasible_start_batch(p)
        assert _same(_feasible_start_batch(p), X)
        (f, st), (rf, rst) = ev.value(X), ref.value(X)
        assert _same(f, rf)
        assert _same(st[0], rst[0]) and _same(st[1], rst[1]) and _same(st[3], rst[3])
        assert _same(st[2][..., 0], rst[2])  # esum keeps its reduced axis
        assert _same(ev.gradient(st), ref.gradient(rst))
        floor = np.full(p.B, 0.05, dtype=dtype)
        assert _same(ev.gradient(st, floor), ref.gradient(rst, floor))
        rows = np.array([0, 2, 3])
        (f, st), (rf, rst) = ev.value(X[rows], rows), ref.value(X[rows], rows)
        assert _same(f, rf) and _same(ev.take(rows).gradient(st), ref.take(rows).gradient(rst))


# --------------------------------------------------------------------- #
# Rounding.
# --------------------------------------------------------------------- #


def test_decision_costs_are_the_reference():
    rng = np.random.default_rng(6)
    for variant in _VARIANTS:
        p = _instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 17)), 0.5,
                      **_kwargs(*variant))
        for X in (assignment_from_labels(rng.integers(0, p.M, p.N), p.M),
                  solve_relaxed(p, SolverConfig(max_iters=5)).X):
            assert _same(cluster_loads(X, p), _ref_cluster_loads(X, p))
            assert decision_cost(X, p) == _ref_decision_cost(X, p)
            assert reliability_value(X, p) == _ref_reliability_slack(p, X)


def test_local_search_and_rounding_are_the_reference():
    rng = np.random.default_rng(20251015)
    seen = {"tied": 0, "infeasible_start": 0, "moved": 0, "linear": 0, "parallel": 0}
    for case in range(240):
        variant = ("linear" if case % 5 == 1 else "makespan", "log_barrier",
                   case % 5 == 2, 0.0)
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 17))
        T = rng.uniform(0.2, 3.0, size=(m, n))
        if case % 2:
            T = np.round(T, 1)  # coarse grid: tied cluster loads are common
        labels = rng.integers(0, m, n) if case % 3 else T.argmin(axis=0)
        if case % 6 == 0:  # equal tasks dealt round-robin: tied bottlenecks
            T, labels = np.full((m, n), 0.5), np.arange(n) % m
        A = rng.uniform(0.3, 0.995, size=(m, n))
        p = MatchingProblem(T=T, A=A, **_kwargs(*variant), gamma=feasible_gamma(
            T, A, quantile=float(rng.choice([0.2, 0.5, 0.8, 0.97]))))
        X0 = assignment_from_labels(labels, m)
        if case % 4 < 2 and _ref_reliability_slack(p, X0) < 0:
            X0 = _repair_reliability(X0, p, MAX_MOVES)
        got = _local_search(X0, p, MAX_MOVES)
        assert _same(got, _ref_local_search(X0, p, MAX_MOVES))
        loads = _ref_cluster_loads(X0, p)
        seen["tied"] += int(np.sum(loads >= loads.max() - 1e-12) > 1)
        seen["infeasible_start"] += _ref_reliability_slack(p, X0) < 0
        seen["moved"] += not _same(got, X0)
        seen["linear"] += p.cost == "linear"
        seen["parallel"] += p.is_parallel
        # The whole rounding: argmax, repair when infeasible, local search.
        Xr = rng.dirichlet(np.ones(m), size=n).T
        want = assignment_from_labels(labels_from_assignment(Xr), m)
        if _ref_reliability_slack(p, want) < 0:
            want = _repair_reliability(want, p, MAX_MOVES)
        assert _same(round_assignment(Xr, p), _ref_local_search(want, p, MAX_MOVES))
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("start", ["random", "fastest"])
def test_local_search_at_wide_shapes_is_the_reference(start):
    """serve_wide's 24x64 windows, where the bottleneck-only sweep tries
    ~70 moves instead of ~1 500."""
    rng = np.random.default_rng(64 if start == "random" else 24)
    for case in range(6):
        m, n = int(rng.integers(12, 25)), int(rng.integers(32, 65))
        p = _instance(rng, m, n, 0.5)
        labels = rng.integers(0, m, n) if start == "random" else p.T.argmin(axis=0)
        X0 = assignment_from_labels(labels, m)
        # A random start is ~100 moves from a local optimum: cap it there.
        moves = 6 if start == "random" else MAX_MOVES
        assert _same(_local_search(X0, p, moves), _ref_local_search(X0, p, moves))


# --------------------------------------------------------------------- #
# Predictor restack.
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", [TimePredictor, ReliabilityPredictor])
@pytest.mark.parametrize("heads", [1, 3, 8])
def test_stack_linear_is_np_stack(kind, heads):
    rng = np.random.default_rng(heads)
    nets = [kind(12, (32, 32), rng=rng).net.net for _ in range(heads)]
    for layers in zip(*nets):
        if not isinstance(layers[0], Linear):
            continue
        for got, want in zip(_stack_linear(layers), _ref_stack_linear(layers)):
            assert _same(got, want) and got.strides == want.strides
            assert got.flags.c_contiguous == want.flags.c_contiguous
            assert not np.shares_memory(got, layers[0].weight.data)
