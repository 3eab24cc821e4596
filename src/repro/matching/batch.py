"""Vectorized batch solver: many matching instances in one NumPy program.

MFCP's training round (Algorithm 2) generates large families of same-shape
instances of the identical barrier program: the M semi-predicted instances
of one epoch, the M×2S zeroth-order perturbations, the held-out validation
rounds.  Solving them one-by-one wastes the vector units; this module runs
mirror descent on a whole *batch* of instances simultaneously — all arrays
carry a leading batch dimension and every update is a fused
elementwise/`einsum` expression, following the hpc-parallel guidance
(vectorize the outer loop, not just the inner one).  Instances share a
cluster count but may be *ragged* in tasks (``BatchProblem.widths``): the
blocks of one serving window, padded to the widest, are one batch.

Semantics match :func:`repro.matching.relaxed.solve_relaxed` with the
``"mirror"`` projection:

- the line search is a *vectorized trial cascade*: steps ``lr / 2^h`` for
  h = 0..HALVINGS−1 are evaluated in one shot (the halving dimension is
  folded into the batch dimension) and the largest feasible, improving
  step wins independently per instance;
- per-instance convergence masking: an instance whose objective stops
  improving (scalar-path ``tol``/``patience`` semantics) or that accepts
  no step is *frozen* — it is removed from the active set and pays no
  further gradient or value work while the rest of the batch runs on.

One solve allocates its working set once: every ``(·, M, N)`` array of
the descent (iterates and trial, gradient, cascade-retry trial, ``log X``
of each, the active set's ``T``/``A``/``λA``) is a view of one workspace
at the batch's full shape, and every iteration, retry and compaction runs
in its leading rows.  Compaction gathers the survivors into the other
buffer of a pair, so an instance may change rows: exact, because no
kernel reads across instances (``tests/test_batch_workspace.py``).
Per-iteration arrays whose leading dimension shrank with the active set
fragmented the heap.

Supported objective: the sequential (convex) makespan barrier — exactly
what the training loop batches in the convex benchmarks.  :func:`batchable`
is the one test of that, and every call site that may batch (MFCP's fused
round and validation, the block solve, ``zo_vjp(vectorized=True)``) asks it
and otherwise stays on the scalar path.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.matching.objectives import c_einsum
from repro.telemetry import ITER_BUCKETS, LEVEL_BUCKETS, SIZE_BUCKETS, get_recorder

__all__ = [
    "batchable",
    "BatchProblem",
    "BatchSolution",
    "solve_relaxed_batch",
    "BatchBarrierEval",
    "batch_barrier_value",
    "batch_barrier_gradient",
    "batch_reliability_slack",
    "clamp_predictions_batch",
]

#: Trial-cascade depth of the batched line search (the scalar solver's
#: backtracking analogue; 6 levels cover lr shrinkage down to 1/32).
HALVINGS = 6


def batchable(problem, solver) -> bool:
    """Whether this module solves the program ``solve_relaxed(problem,
    solver)`` solves: the sequential makespan cost under the log barrier,
    by mirror descent.  A ζ speedup, the linear cost,
    the hinge penalty or another projection is the scalar solver's alone —
    the batch kernel would silently solve a different program."""
    return (not problem.is_parallel
            and problem.cost == "makespan" and problem.penalty == "log_barrier"
            and solver.projection == "mirror")


@dataclass(frozen=True)
class BatchProblem:
    """A batch of B sequential matching instances over M clusters each.

    Instances may be *ragged*: instance ``b`` has ``widths[b]`` real tasks
    and its remaining columns are padding holding ``T = A = 0``.  A padding
    column adds exactly 0.0 to every load and reliability sum and gets a
    zero gradient, so each instance is its unpadded program with
    ``M·widths[b]`` in place of ``M·N``.
    """

    T: np.ndarray  # (B, M, N) strictly positive on real columns
    A: np.ndarray  # (B, M, N) in [0, 1]
    gamma: np.ndarray  # (B,)
    beta: float = 5.0
    lam: float = 0.01
    entropy: float = 0.0
    #: Storage/compute precision.  float64 (default) matches the scalar
    #: solver bit-for-bit in the equivalence tests; float32 halves memory
    #: traffic for throughput-bound consumers that tolerate ~1e-6 relative
    #: error per objective — the zeroth-order estimator's perturbation
    #: stacks, whose O(δ) smoothing bias dwarfs the rounding noise.
    dtype: np.dtype = np.float64
    #: Real task count per instance, (B,) integers in [1, N]; every
    #: instance is N wide when absent.
    widths: np.ndarray | None = None
    #: Derived: per-instance ``M·width`` in ``dtype`` and the (B, 1, N)
    #: real-column mask (``None`` when no instance is padded).
    mn: np.ndarray = field(init=False, repr=False, compare=False)
    real: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dtype not in (np.float32, np.float64):
            raise ValueError("dtype must be np.float32 or np.float64")
        T = np.asarray(self.T, dtype=self.dtype)
        A = np.asarray(self.A, dtype=self.dtype)
        g = np.atleast_1d(np.asarray(self.gamma, dtype=self.dtype))
        if T.ndim != 3 or A.shape != T.shape:
            raise ValueError("T and A must be (B, M, N) arrays of equal shape")
        B, M, N = T.shape
        if g.shape != (B,):
            raise ValueError(f"gamma must have shape ({B},), got {g.shape}")
        # NaN passes every comparison below: a diverged predictor's T̂/Â
        # would be solved into garbage where MatchingProblem raises.
        for name, arr in (("T", T), ("A", A), ("gamma", g)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains NaN or infinite entries")
        w = np.full(B, N) if self.widths is None else np.asarray(self.widths)
        if w.shape != (B,) or w.dtype.kind not in "iu" or np.any((w < 1) | (w > N)):
            raise ValueError(f"widths must be ({B},) integers in [1, {N}]")
        real = (np.arange(N) < w[:, None])[:, None, :]
        if np.any((T <= 0) & real):
            raise ValueError("execution times must be strictly positive")
        if np.any(((T != 0) | (A != 0)) & ~real):
            raise ValueError("padding columns must hold T = A = 0")
        if np.any((A < 0) | (A > 1)):
            raise ValueError("reliabilities must lie in [0, 1]")
        if self.beta <= 0 or self.lam <= 0 or self.entropy < 0:
            raise ValueError("beta, lam must be > 0 and entropy >= 0")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "widths", w)
        object.__setattr__(self, "mn", (M * w).astype(self.dtype))
        object.__setattr__(self, "real", None if np.all(w == N) else real)

    @property
    def B(self) -> int:
        return self.T.shape[0]

    @property
    def M(self) -> int:
        return self.T.shape[1]

    @property
    def N(self) -> int:
        return self.T.shape[2]


@dataclass(frozen=True)
class BatchSolution:
    """Final iterates of the batch solve.

    ``iterations`` is the largest per-instance iteration count (instances
    frozen by the convergence mask stop earlier); ``converged`` marks the
    instances that were frozen before the iteration budget ran out.
    """

    X: np.ndarray  # (B, M, N)
    objective: np.ndarray  # (B,)
    iterations: int
    converged: np.ndarray | None = None  # (B,) bool
    #: Instance-evaluations of F by the trial cascade over the solve (each
    #: iteration costs one per active instance plus one per halving retry).
    trials: int = 0


_XEPS = 1e-12


def clamp_predictions_batch(
    T_hat: np.ndarray, A_hat: np.ndarray, gamma: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :meth:`MatchingProblem.with_predictions` clamp rules.

    Floors predicted times, clips predicted reliabilities into [0, 1] and
    clamps each instance's γ to its strictest attainable threshold, so a
    batch assembled from imperfect predictors never has an empty barrier
    interior.  Returns ``(T, A, gamma)`` ready for :class:`BatchProblem`.
    """
    T_hat = np.asarray(T_hat)
    A_hat = np.asarray(A_hat)
    if T_hat.dtype != np.float32:
        T_hat = T_hat.astype(np.float64, copy=False)
        A_hat = A_hat.astype(np.float64, copy=False)
    return _clamp(T_hat, A_hat, gamma, None, None)


def _clamp(T_hat: np.ndarray, A_hat: np.ndarray, gamma: np.ndarray | float,
           T_out: np.ndarray | None, A_out: np.ndarray | None) -> tuple:
    """:func:`clamp_predictions_batch`'s rule, writing the clamped times
    and reliabilities into ``T_out``/``A_out`` (which may be ``T_hat`` and
    ``A_hat`` themselves; ``None`` allocates)."""
    T = np.maximum(T_hat, 1e-4, out=T_out)
    A = np.clip(A_hat, 0.0, 1.0, out=A_out)
    if T.ndim != 3 or A.shape != T.shape:
        raise ValueError("T_hat and A_hat must be (B, M, N) arrays of equal shape")
    M = A.shape[1]
    best_val = A.max(axis=1).mean(axis=1) / M
    uniform_val = A.mean(axis=(1, 2)) / M
    attainable = best_val - 0.05 * np.maximum(best_val - uniform_val, 1e-5)
    return T, A, np.minimum(gamma, attainable)


class BatchBarrierEval:
    """Eq. (9) and its gradient for a (sub)batch, with carried state.

    The batch analogue of :class:`repro.matching.objectives.BarrierEval`:
    per-batch constants (``T``, ``A``, ``γ``, ``M·width``, ``λA/(M·width)``)
    are hoisted once, ``value(X)`` returns ``F`` per instance *and* the
    intermediates it had to compute anyway — ``(slack, e, esum, logX)``:
    the reliability slack, the max-shifted ``exp(βc − max βc)`` with its
    sum, and ``log max(X, ε)`` (``None`` when τ = 0, zero on padding
    columns) — and ``gradient(state)`` builds ∇F from them instead of
    recomputing loads, softmax or logs (LSE and softmax share
    ``e``/``esum``).  Every state array leads with the instance axis, so
    the active set compacts state and constants alike by rows
    (:meth:`take`).

    ``λA/(M·width)`` and ``tmp``, a ``(B, M, N)`` scratch for gathered
    rows of ``A``/``T`` and the temporaries of ``value`` and ``gradient``,
    are one allocation; ``X`` is in the batch's dtype.  ``value`` and
    ``gradient`` allocate the ``(·, M, N)`` arrays they return;
    ``_value`` and ``_gradient`` write them where the caller says.
    """

    def __init__(self, p: BatchProblem) -> None:
        self.T, self.A, self.gamma, self.mn, self.real = p.T, p.A, p.gamma, p.mn, p.real
        self.beta, self.lam, self.tau = p.beta, p.lam, p.entropy
        own = np.empty((2,) + p.T.shape, p.dtype)
        # λ/(M·width) divided in float64, then cast: on an unpadded batch
        # the bits of the weak-scalar product ``(lam / (M * N)) * A``.
        self.lamA = np.multiply((p.lam / (p.M * p.widths)).astype(p.dtype)[:, None, None],
                                p.A, out=own[0])
        self.tmp = own[1]

    def take(self, idx: np.ndarray, into: np.ndarray) -> "BatchBarrierEval":
        """The evaluator of instances ``idx`` (integers), its ``T``, ``A``
        and ``λA/(M·width)`` gathered into the leading rows of ``into[0]``,
        ``into[1]`` and ``into[2]``, which must not hold this evaluator's
        own; ``tmp`` is shared."""
        sub = copy.copy(self)
        sub.T, sub.A, sub.lamA = (_rows(a, idx, out)
                                  for a, out in zip((self.T, self.A, self.lamA), into))
        sub.gamma, sub.mn = self.gamma[idx], self.mn[idx]
        if self.real is not None:
            sub.real = self.real[idx]
        return sub

    def slack(self, X: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Eq. (4) reliability surplus ``Σ x·a / (M·width) − γ``."""
        A, mn, gamma = (self.A, self.mn, self.gamma) if rows is None else (
            _rows(self.A, rows, self.tmp), self.mn[rows], self.gamma[rows])
        return c_einsum("...mn,...mn->...", X, A) / mn - gamma

    def value(self, X: np.ndarray) -> tuple[np.ndarray, tuple]:
        """``(F, state)`` of iterates ``X``; ``F`` is ``+inf`` where g ≤ 0.
        As in :meth:`BarrierEval.value`, reductions are the ufuncs'
        ``reduce`` over the method forms' axes; ``esum`` keeps its reduced
        axis."""
        return self._value(X, None, np.empty_like(X) if self.tau else None)

    def _value(self, X: np.ndarray, rows: np.ndarray | None,
               logX: np.ndarray | None) -> tuple[np.ndarray, tuple]:
        """:meth:`value` of iterates ``X`` of instances ``rows`` (all when
        ``None``), writing ``log max(X, ε)`` into ``logX``."""
        slack = self.slack(X, rows)
        T = self.T if rows is None else _rows(self.T, rows, self.tmp)
        z = self.beta * c_einsum("...mn,...mn->...m", X, T)
        shift = np.maximum.reduce(z, -1, keepdims=True)
        e = np.exp(z - shift)
        esum = np.add.reduce(e, -1, keepdims=True)
        lse = ((np.log(esum) + shift) / self.beta)[..., 0]
        f = np.where(slack > 0, lse - self.lam * np.log(np.maximum(slack, _XEPS)), np.inf)
        if self.tau:
            Xc = np.maximum(X, _XEPS, out=self.tmp[:len(X)])
            logX = np.log(Xc, out=logX)
            if self.real is not None:
                logX *= self.real if rows is None else self.real[rows]
            f = f + self.tau * c_einsum("...mn,...mn->...", Xc, logX)
        return f, (slack, e, esum, logX)

    def gradient(self, state: tuple, slack: np.ndarray | None = None) -> np.ndarray:
        """∇_X F from the state ``value(X)`` returned: ``softmax(βc)_i·t_ij −
        λ a_ij / (M·width·g)`` plus the entropy term on real columns.
        ``slack`` overrides the state's reliability slack."""
        return self._gradient(state, slack, np.empty(self.T.shape, self.T.dtype))

    def _gradient(self, state: tuple, slack: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """:meth:`gradient`, written into ``out``."""
        s, e, esum, logX = state
        tmp = self.tmp[:len(out)]
        grad = np.multiply((e / esum)[..., None], self.T, out=out)
        grad -= np.divide(self.lamA, (s if slack is None else slack)[..., None, None], out=tmp)
        if self.tau:
            ent = np.multiply(self.tau, np.add(1.0, logX, out=tmp), out=tmp)
            if self.real is not None:
                ent *= self.real
            grad += ent
        return grad


def batch_barrier_value(X: np.ndarray, p: BatchProblem) -> np.ndarray:
    """Eq. (9) barrier objective of every instance (``+inf`` if infeasible);
    one-shot wrapper over :class:`BatchBarrierEval`."""
    return BatchBarrierEval(p).value(X)[0]


def batch_barrier_gradient(
    X: np.ndarray, p: BatchProblem, slack: np.ndarray | None = None
) -> np.ndarray:
    """∇_X F of every instance; one-shot wrapper over
    :meth:`BatchBarrierEval.gradient`.

    ``slack`` overrides the reliability slack used by the barrier term —
    the training loop passes a floored slack so gradients stay finite at
    mildly infeasible iterates (see ``repro.methods.mfcp.SLACK_FLOOR``).
    """
    ev = BatchBarrierEval(p)
    state = ev.value(X)[1]
    return ev.gradient(state, np.maximum(state[0], _XEPS) if slack is None else slack)


def batch_reliability_slack(X: np.ndarray, p: BatchProblem) -> np.ndarray:
    """Eq. (4) reliability surplus g(X, A) − γ per instance."""
    return BatchBarrierEval(p).slack(X)


def _reset_padding(X: np.ndarray, p: BatchProblem) -> np.ndarray:
    """Put the uniform ``1/M`` column into every padding column, in place."""
    if p.real is not None:
        np.copyto(X, 1.0 / p.M, where=~p.real)
    return X


def _feasible_start_batch(p: BatchProblem) -> np.ndarray:
    """Per-instance blend of uniform and reliability-greedy assignments
    (the batch analogue of MatchingProblem.feasible_start)."""
    B, M, N = p.B, p.M, p.N
    uniform = np.full((B, M, N), 1.0 / M, dtype=p.T.dtype)
    greedy = np.zeros((B, M, N), dtype=p.T.dtype)
    b_idx = np.repeat(np.arange(B), N)
    n_idx = np.tile(np.arange(N), B)
    greedy[b_idx, p.A.argmax(axis=1).ravel(), n_idx] = 1.0
    s_u = c_einsum("bmn,bmn->b", uniform, p.A) / p.mn - p.gamma
    s_g = c_einsum("bmn,bmn->b", greedy, p.A) / p.mn - p.gamma
    if (s_g <= 0).any():
        raise ValueError("some instances have an unattainable gamma")
    target = 0.25 * s_g
    denom = np.maximum(s_g - s_u, 1e-12)
    alpha_t = (target - s_u) / denom
    alpha_f = (0.0 - s_u) / denom
    alpha = np.clip(np.maximum(alpha_t, alpha_f + 0.25 * (1 - alpha_f)), 0.0, 1 - 1e-6)
    alpha = alpha[:, None, None]
    return _reset_padding((1.0 - alpha) * uniform + alpha * greedy, p)


def _rows(a: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``a[idx]`` along the instance axis, written into ``buf``'s leading
    rows (``mode="clip"``: with ``"raise"`` NumPy would copy through a
    temporary; ``idx`` is always in range here)."""
    return a.take(idx, 0, buf[:len(idx)], "clip")


def _scatter(dst: tuple, i: np.ndarray, src: tuple, j: np.ndarray, tmp: np.ndarray) -> None:
    """``dst[i] = src[j]`` through every array of an Eq.-9 state; a
    ``(·, M, N)`` one is gathered into ``tmp`` first."""
    for d, s in zip(dst, src):
        if d is not None:
            d[i] = _rows(s, j, tmp) if s.ndim == 3 else s[j]


def _mirror_step(X: np.ndarray, grad: np.ndarray, neg_step: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """``X·exp(−step·∇F)`` per instance, renormalized per task column,
    written into ``out`` (which may be ``grad``)."""
    Z = np.multiply(grad, neg_step[:, None, None], out=out)
    np.exp(Z, out=Z)
    Z *= X
    Z /= np.add.reduce(Z, 1, keepdims=True)
    return Z


def solve_relaxed_batch(
    problem: BatchProblem,
    *,
    lr: float = 0.5,
    max_iters: int = 200,
    x0: np.ndarray | None = None,
    tol: float = 0.0,
    patience: int = 5,
    adaptive_trials: bool = False,
) -> BatchSolution:
    """Mirror descent on every instance of the batch simultaneously.

    Each iteration proposes steps at ``lr / 2^h`` for h = 0..HALVINGS−1 in
    one fused evaluation (the halving axis rides along the batch axis);
    the largest step whose iterate is feasible and improving wins,
    independently per instance.  An instance that accepts no step — or,
    with ``tol > 0``, improves by less than ``tol`` for ``patience``
    consecutive iterations (the scalar solver's early-stop rule) — is
    frozen: its iterate is final and it is dropped from the active set, so
    the remaining instances' gradient/value work shrinks with it.

    With ``adaptive_trials=True`` each instance remembers its last
    accepted halving level and starts the next line search one level
    above it (step-memory line search) instead of always retrying the
    full ``lr`` step.  Warm-started stacks whose instances sit near their
    optima reject the full step almost every iteration, so this removes
    most trial evaluations — but it no longer matches the scalar solver's
    "largest step first" rule exactly, so it stays off by default and is
    only used for the zeroth-order perturbation stacks, whose estimates
    are stochastic to begin with (see DESIGN.md, batched training path).
    """
    if lr <= 0 or max_iters <= 0:
        raise ValueError("lr and max_iters must be > 0")
    if tol < 0 or patience < 1:
        raise ValueError("tol must be >= 0 and patience >= 1")
    # The workspace (module docstring).  Pairs alternate: the trial is
    # written beside the iterates it may replace, and compaction gathers
    # the survivors into the other buffer.
    B, tau = problem.B, problem.entropy
    work = np.empty((13 if tau else 10,) + problem.T.shape, problem.T.dtype)
    Xs = [work[0], work[1]]  # current iterates, trial
    G, R = work[2], work[3]  # gradient, cascade-retry trial
    consts = [work[4:7], work[7:10]]  # T, A, λA/(M·width) of the active set
    Ls = [work[10], work[11]] if tau else [None, None]  # log X of Xs
    LR = work[12] if tau else None  # log X of R

    X = Xs[0]
    if x0 is None:
        X[...] = _feasible_start_batch(problem)
    else:
        x0 = np.asarray(x0)
        if x0.shape != problem.T.shape:
            raise ValueError(f"x0 must have shape {problem.T.shape}, got {x0.shape}")
        X[...] = x0
        _reset_padding(X, problem)
    ev = BatchBarrierEval(problem)
    fa, st = ev._value(X, None, Ls[0])
    if (st[0] <= 0).any():
        # Repair any infeasible warm starts by swapping in the blend start.
        np.copyto(X, _feasible_start_batch(problem), where=(st[0] <= 0)[:, None, None])
        fa, st = ev._value(X, None, Ls[0])

    out_X, out_f = X.copy(), fa.copy()
    converged = np.zeros(B, dtype=bool)
    max_it_used = trials = 0
    # Python-float steps: weak scalars under NEP 50, so float32 batches
    # are not silently promoted back to float64 by the cascade.
    steps = [lr / 2.0**h for h in range(HALVINGS)]
    # Per-instance first-trial level for the adaptive policy (dtype of the
    # gathered array matches the batch so the gather does not promote).
    steps_arr = np.asarray(steps, dtype=problem.T.dtype)
    k = np.zeros(B, dtype=np.intp) if adaptive_trials else None

    # Telemetry: hoisted once per solve (one branch when disabled); the
    # per-iteration cascade-level bookkeeping below only runs when enabled.
    rec = get_recorder()
    tele = rec.enabled
    ls_time = 0.0

    # Active-set state (`active` maps rows back to batch slots).  `ev` and
    # the Eq.-9 state `st` of the current iterates ride along, so the
    # accepted trial's pieces feed the next iteration's gradient.
    active = np.arange(B)
    Xa = X
    stall = np.zeros(B, dtype=np.int64)

    for it in range(max_iters):
        n = active.size
        if n == 0:
            break
        # Accepted iterates always have slack > 0 (the value is +inf
        # otherwise), so the barrier term divides by it directly.
        grad = ev._gradient(st, None, G[:n])
        # Normalized steps (as in solve_relaxed's mirror rule): bound the
        # multiplicative update per instance regardless of barrier stiffness.
        # They also bound |expo| by lr, so no overflow clamp is needed below.
        scale = np.maximum(
            np.maximum.reduce(np.abs(grad, out=ev.tmp[:n]).reshape(n, -1), 1), 1e-9)
        if tele:
            ls_t0 = time.perf_counter()
        # Two-stage trial cascade.  Stage 1: the first-trial step for
        # every instance — the common accept, evaluated on (b, M, N)
        # only.  Cascade mode always opens at the full step; adaptive
        # mode opens at each instance's remembered level.
        neg_s1 = -steps_arr[k] if adaptive_trials else -steps[0]
        Z = _mirror_step(Xa, grad, neg_s1 / scale, Xs[1][:n])
        f_new, st_new = ev._value(Z, None, None if Ls[1] is None else Ls[1][:n])
        trials += n
        any_ok = f_new <= fa + 1e-12
        lvl = k.copy() if adaptive_trials else None  # accepted level
        # Cascade-mode accepted-level tracking (telemetry only; adaptive
        # mode reuses `lvl`).
        lvl_rec = np.zeros(f_new.size, dtype=np.intp) if tele and lvl is None else None
        if not any_ok.all():
            # Stage 2: halve step by step, each round only for the
            # instances still rejecting — the typical rejector accepts the
            # very next halving, so evaluating all H−1 at once wastes most
            # of the cascade's work.  In cascade mode every rejector is at
            # the same level (semantics unchanged: the first, i.e. largest,
            # feasible improving step wins); in adaptive mode each carries
            # its own next level and drops out once it runs past H−1.
            r = (~any_ok).nonzero()[0]
            lvl_r = (k[r] + 1) if adaptive_trials else None
            for h in range(1, HALVINGS):
                if adaptive_trials:
                    alive = lvl_r < HALVINGS
                    if not alive.all():
                        r, lvl_r = r[alive], lvl_r[alive]
                if r.size == 0:
                    break
                neg_s = -steps_arr[lvl_r] if adaptive_trials else -steps[h]
                gr = _rows(grad, r, R)
                Zr = _mirror_step(_rows(Xa, r, ev.tmp), gr, neg_s / scale[r], gr)
                f_r, st_r = ev._value(Zr, r, None if LR is None else LR[:r.size])
                trials += r.size
                ok = f_r <= fa[r] + 1e-12
                if ok.any():
                    acc, j = r[ok], ok.nonzero()[0]
                    Z[acc] = _rows(Zr, j, ev.tmp)
                    f_new[acc] = f_r[ok]
                    _scatter(st_new, acc, st_r, j, ev.tmp)
                    any_ok[acc] = True
                    if adaptive_trials:
                        lvl[acc] = lvl_r[ok]
                        lvl_r = lvl_r[~ok]
                    elif lvl_rec is not None:
                        lvl_rec[acc] = h
                    r = r[~ok]
                if adaptive_trials:
                    lvl_r = lvl_r + 1
            rem = (~any_ok).nonzero()[0]
            if rem.size:
                # No trial improved: keep the current iterate (frozen below).
                Z[rem] = _rows(Xa, rem, ev.tmp)
                f_new[rem] = fa[rem]
                _scatter(st_new, rem, st, rem, ev.tmp)
        if tele:
            ls_time += time.perf_counter() - ls_t0
            acc_lvls = (lvl if adaptive_trials else lvl_rec)[any_ok]
            if acc_lvls.size:
                for h_lvl, cnt in enumerate(np.bincount(acc_lvls)):
                    if cnt:
                        rec.observe("batch_solve/cascade_level", h_lvl,
                                    n=int(cnt), bounds=LEVEL_BUCKETS)
        if adaptive_trials:
            # Step memory with decrease-on-accept: retry one level larger
            # next iteration so the step size can grow back.
            np.maximum(lvl - 1, 0, out=k, where=any_ok)
        max_it_used = it + 1
        if tol > 0:
            # Scalar stall rule: reset on a >= tol improvement, freeze
            # after `patience` consecutive sub-tol iterations.  (Stall
            # values of no-accept instances are irrelevant — they are
            # frozen and dropped below regardless.)
            stall += 1
            stall[fa - f_new >= tol] = 0
            frozen = stall >= patience
            frozen |= ~any_ok
        else:
            frozen = ~any_ok
        Xa, fa, st = Z, f_new, st_new
        Xs.reverse()
        Ls.reverse()
        if frozen.any():
            done = active[frozen]
            out_X[done] = _rows(Xa, frozen.nonzero()[0], ev.tmp)
            out_f[done] = fa[frozen]
            converged[done] = True
            keep = (~frozen).nonzero()[0]
            active, fa, stall = active[keep], fa[keep], stall[keep]
            Xa = _rows(Xa, keep, Xs[1])
            st = (st[0][keep], st[1][keep], st[2][keep],
                  None if st[3] is None else _rows(st[3], keep, Ls[1]))
            ev = ev.take(keep, consts[1])
            Xs.reverse()
            Ls.reverse()
            consts.reverse()
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
