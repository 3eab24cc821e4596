"""Cluster-specific performance predictors (paper §2.1).

Two heads per cluster, fully connected as in the paper ("we only
utilized fully connected layers"):

- :class:`TimePredictor` — ``t̂ = exp(h_ω(z))``: the network regresses
  log-time, which linearizes the multiplicative structure of execution
  times (roofline ratios, affinity multipliers) and keeps t̂ > 0;
- :class:`ReliabilityPredictor` — ``â = σ(h_φ(z))`` ∈ (0, 1).

Every head is the same fixed function — affine-ReLU-…-affine layers and
a link — held as plain ``float64`` arrays (:attr:`_Head.params`: per
layer its ``(in, out)`` weight and ``(out,)`` bias).  One function,
:func:`repro.nn.network.forward`, computes it: over a head's own 2-D
arrays (:meth:`_Head.predict`), over ``(H, in, out)`` stacks for
inference (:func:`predict_pairs`, round axes included) and into a
:class:`HeadBank`'s workspace for training.  The M clusters' heads of a
kind train as one bank (stacked weights in one flat buffer, one
:class:`~repro.nn.Adam`, the network's VJP
:func:`~repro.nn.network.backward` after the link's, and one minibatch's
workspace, so a training step allocates nothing and one forward is in
flight per bank).  Each operation is the per-head tape's, in the tape's
order, so weights and predictions are bit for bit those of that tape,
which lives on only as the oracle ``tests/test_bank_exact.py`` holds the
heads to.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import flatten, network
from repro.nn.functional import sigmoid_np
from repro.nn.init import he_uniform
from repro.predictors.dataset import Standardizer
from repro.utils.rng import as_generator, spawn

__all__ = [
    "TimePredictor",
    "ReliabilityPredictor",
    "PredictorPair",
    "HeadBank",
    "predict_pairs",
]

#: Clamp on the log-time head: e^{±8} spans ~3e-4 .. 3e3 hours, far beyond
#: any real task, while preventing overflow from an untrained network.
_LOG_T_CLIP = 8.0


class _Head:
    """One scalar predictor: standardize → network → output link → ``(N,)``.

    :attr:`params` holds per layer its weight and its bias, in that
    order.  The weights are He-uniform draws, each from a child generator
    spawned from ``rng`` layer by layer; the biases start at zero.  Their
    checkpoint names (:meth:`state_dict`) are those of the ``Sequential``
    the heads once were, ``net.net.m0.weight`` … ``net.net.m{2k}.bias``, so
    digests and saved checkpoints carry over.

    Each kind adds its link, the network's output included:
    ``_link_np(raw, out, tmp)`` writes into ``out`` with ``tmp`` (both
    shaped like ``raw``) as scratch, and its pullback ``_link_vjp(g, raw,
    out, into, tmp, flag)`` writes into ``into`` (``raw`` itself may be
    it) with ``tmp`` / ``flag`` (float / bool, shaped like ``raw``) as
    scratch."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = (32, 32),
        *,
        standardizer: Standardizer | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        rng = as_generator(rng)
        dims = [in_features, *hidden, 1]
        self.params: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            self.params += [he_uniform((fan_in, fan_out), spawn(rng)), np.zeros(fan_out)]
        self.standardizer = standardizer

    @property
    def layers(self) -> "list[tuple[np.ndarray, np.ndarray]]":
        """``(weight, bias)`` per layer."""
        return list(zip(self.params[::2], self.params[1::2]))

    def _names(self) -> "list[str]":
        return [f"net.net.m{k - k % 2}.{'bias' if k % 2 else 'weight'}"
                for k in range(len(self.params))]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by its checkpoint name."""
        return {name: p.copy() for name, p in zip(self._names(), self.params)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays in place (so into a training bank's
        storage too); names and shapes must match exactly."""
        own = dict(zip(self._names(), self.params))
        missing, unexpected = set(own) - set(state), set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.shape}")
            p[...] = arr

    def copy(self) -> "_Head":
        """A head of the same kind with copies of :attr:`params` and the
        same standardizer (heads after a registry load may each have
        their own)."""
        twin = type(self).__new__(type(self))
        twin.params = [p.copy() for p in self.params]
        twin.standardizer = self.standardizer
        return twin

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params)

    def _prep(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if self.standardizer is not None:
            Z = self.standardizer.transform(Z)
        return Z

    def predict(self, Z: np.ndarray) -> np.ndarray:
        """Prediction for a feature matrix (shape (N,))."""
        return network.forward(self._link_np, self.layers, self._prep(Z)).reshape(-1)


class TimePredictor(_Head):
    """Execution-time head: network in log-time space, exponentiated output."""

    @staticmethod
    def _link_np(raw: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        clipped = raw.clip(-_LOG_T_CLIP, _LOG_T_CLIP, out=out)
        return np.exp(clipped, out=clipped)

    @staticmethod
    def _link_vjp(g: np.ndarray, raw: np.ndarray, out: np.ndarray, into: np.ndarray,
                  tmp: np.ndarray, flag: np.ndarray) -> None:
        # exp's pullback, then clip's: zero outside the closed clamp range,
        # |raw| <= clip being (raw >= -clip) & (raw <= clip).
        np.less_equal(np.abs(raw, out=tmp), _LOG_T_CLIP, out=flag)
        np.copyto(tmp, flag)
        np.multiply(np.multiply(g, out, out=into), tmp, out=into)


class ReliabilityPredictor(_Head):
    """Reliability head: network with a logistic output, â ∈ (0, 1)."""

    @staticmethod
    def _link_np(raw: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        return sigmoid_np(raw, out=out, tmp=tmp)

    @staticmethod
    def _link_vjp(g: np.ndarray, raw: np.ndarray, out: np.ndarray, into: np.ndarray,
                  tmp: np.ndarray, flag: np.ndarray) -> None:
        np.subtract(1.0, out, out=tmp)
        np.multiply(np.multiply(g, out, out=into), tmp, out=into)


def _stack(heads: "Sequence[_Head]") -> "list[np.ndarray]":
    """Copies of the heads' :attr:`~_Head.params`, stacked per position:
    ``(H, in, out)`` weights and ``(H, 1, out)`` biases (so the bias
    gradient sums the sample axis).  ``np.array`` of equal-shape arrays is
    ``np.stack``'s result without its per-array Python checks."""
    stacks = [np.array(ps) for ps in zip(*(h.params for h in heads))]
    stacks[1::2] = [bias[:, None, :] for bias in stacks[1::2]]
    return stacks


def _stacked_features(heads: "Sequence[_Head]", Z: np.ndarray) -> np.ndarray:
    """``(..., H, N, F)`` standardized copies of feature matrices
    ``(..., N, F)``: a single transform broadcast over the heads when they
    share a standardizer object, one transform per head otherwise
    (``registry.load_into`` gives every pair its own)."""
    first = heads[0].standardizer
    if all(h.standardizer is first for h in heads):
        X = heads[0]._prep(Z)
        return np.broadcast_to(X[..., None, :, :],
                               (*X.shape[:-2], len(heads), *X.shape[-2:]))
    return np.stack([h._prep(Z) for h in heads], axis=-3)


class HeadBank:
    """H same-architecture heads trained as one stacked network:
    :func:`~repro.nn.network.forward` over ``(H, in, out)`` stacks, its VJP
    (:meth:`backward`) and a per-head gradient clip, for an
    :class:`~repro.nn.Adam` over :attr:`params`.

    :attr:`params` — per layer position an ``(H, in, out)`` weight and an
    ``(H, 1, out)`` bias stack, in a head's :attr:`~_Head.params` order —
    are consecutive views of one flat buffer (:func:`~repro.nn.flatten`),
    and they *own* the storage: on construction every head's
    :attr:`~_Head.params` entries are replaced by views of its slice, so
    an optimizer step on the bank is at once visible through the heads
    (``state_dict``, ``predict``, the registry) and ``load_state_dict`` on
    a head writes through to the bank.  Per head the arithmetic is that of
    the head's own tape, bit for bit (DESIGN.md §7b;
    ``tests/test_bank_exact.py``).

    A bank must not outlive the training call that built it: the views do
    not survive ``copy.deepcopy``/pickle of the heads, nor a second bank
    over the same heads, after which this one would train storage nobody
    reads.  Inference therefore never keeps one (:func:`predict_pairs`).

    **Workspace.**  :meth:`forward` and :meth:`backward` allocate no array
    after a bank's first minibatch: the forward runs in one minibatch's
    buffers, sized by the most rows seen so far, and the VJP
    overwrites each product with the gradient passed back through it.  A
    pass over fewer rows (a ragged tail minibatch) runs on leading views
    of them, laid out as a fresh array of its shape would be, so the GEMMs
    and ufuncs see the operands they saw when every pass allocated.  The
    price is one forward in flight per bank: the next :meth:`forward`
    overwrites the predictions and what ``saved`` refers to, so a caller
    reads the predictions and runs :meth:`backward` first.
    """

    def __init__(self, heads: "Sequence[_Head]") -> None:
        self.heads = list(heads)
        if not self.heads or len({type(h) for h in self.heads}) != 1:
            raise ValueError("a bank needs one or more heads of a single kind")
        self.params = flatten(_stack(self.heads))
        for h, head in enumerate(self.heads):
            head.params = [stack[h] if k % 2 == 0 else stack[h, 0]
                           for k, stack in enumerate(self.params)]
        #: The flat buffer :attr:`params` are views of.
        self.data = self.params[0].base
        self._layers = list(zip(self.params[::2], self.params[1::2]))
        kind = type(self.heads[0])
        self._link, self._link_vjp = kind._link_np, kind._link_vjp
        self._rows = 0  # rows the workspace holds
        self._views: "dict[int, tuple]" = {}  # row count -> its workspace views

    def _workspace(self, n: int) -> "tuple[list, list]":
        """The forward's workspace for an ``n``-row pass, as views of the
        bank's buffers.  The buffers grow (and the cached views go) only
        past the most rows seen."""
        views = self._views.get(n)
        if views is None:
            H, (floats, flags) = len(self), network.widths(self._layers)
            if n > self._rows:
                self._rows, self._views = n, {}
                self._floats = [np.empty(H * n * w) for w in floats]
                self._flags = [np.empty(H * n * w, dtype=bool) for w in flags]
            views = self._views[n] = tuple(
                [buf[:H * n * w].reshape(H, n, w) for buf, w in zip(bufs, ws)]
                for bufs, ws in ((self._floats, floats), (self._flags, flags)))
        return views

    def drop_workspace(self) -> None:
        """Free the workspace; a later :meth:`forward` builds it again."""
        self._rows, self._views, self._floats, self._flags = 0, {}, [], []

    def __len__(self) -> int:
        return len(self.heads)

    def prepare(self, Z: np.ndarray) -> np.ndarray:
        """``(H, N, F)`` standardized input for features all heads share."""
        return _stacked_features(self.heads, Z)

    def forward(self, X: np.ndarray) -> "tuple[np.ndarray, tuple]":
        """``(H, N)`` predictions for standardized ``(H, N, F)`` features,
        and what :meth:`backward` needs of this pass — both views of the
        workspace, valid until the next :meth:`forward`."""
        ws = self._workspace(X.shape[-2])
        return network.forward(self._link, self._layers, X, ws).reshape(X.shape[:-1]), (X, ws)

    def backward(self, g: np.ndarray, saved: tuple, grads: "Sequence[np.ndarray]") -> None:
        """The VJP of the last :meth:`forward` (``saved`` is its second
        result; once per forward, as each layer's gradient overwrites its
        output): writes into ``grads`` (one array per :attr:`params`
        entry, e.g. an Adam's ``grads``) the gradient of
        ``Σ g ⊙ predictions``, as the tape's backward would compute it."""
        X, ws = saved
        (*_, raw, out, tmp), flags = ws
        self._link_vjp(g.reshape(raw.shape), raw, out, raw, tmp, flags[-1])
        network.backward(self._layers, X, ws, raw, grads)

    def clip_grad_norm(self, max_norm: float, grads: "Sequence[np.ndarray]") -> np.ndarray:
        """Per head, rescale the stacked gradients ``grads`` in place so
        their global L2 norm is at most ``max_norm`` (the per-head tape's
        ``clip_grad_norm``, same sums in ``params`` order; heads under the
        norm are untouched).  Returns the ``(H,)`` pre-clip norms."""
        if max_norm <= 0:
            raise ValueError(f"max_norm must be > 0, got {max_norm}")
        squares = 0.0
        for g in grads:
            squares = squares + (g**2).reshape(len(self), -1).sum(axis=1)
        total = np.sqrt(squares)
        scale = np.where(total > max_norm, max_norm / (total + 1e-12), 1.0)
        for g in grads:
            g *= scale[:, None, None]
        return total


def predict_pairs(
    pairs: "Sequence[PredictorPair]", Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(T̂, Â)``, each ``(M, N)``: every pair's predictions for one feature
    matrix, as one stacked network forward per head kind.  ``R`` rounds at
    once, ``Z`` of shape ``(R, N, F)``, give ``(R, M, N)``: every product
    keeps its per-round shape, so — unlike one call on the concatenated
    rows, where the GEMM's edge handling moves with the row count — each
    round reads bit for bit as if predicted alone.

    Stateless: the heads' *current* weights are stacked on every call and
    nothing is cached, so hot-swapped, reloaded or deep-copied pairs are
    always read as they are now.
    """
    lift = (None,) * (np.ndim(Z) - 2)  # round axes, broadcast over the layers
    out = []
    for heads in ([p.time for p in pairs], [p.reliability for p in pairs]):
        stacks = [a[lift] for a in _stack(heads)]
        X = _stacked_features(heads, Z)
        layers = list(zip(stacks[::2], stacks[1::2]))
        out.append(network.forward(heads[0]._link_np, layers, X).reshape(X.shape[:-1]))
    return out[0], out[1]


class PredictorPair:
    """The (m_ω, m_φ) pair of one cluster, built with independent seeds."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = (32, 32),
        *,
        standardizer: Standardizer | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        rng = as_generator(rng)
        self.time = TimePredictor(in_features, hidden, standardizer=standardizer, rng=rng)
        self.reliability = ReliabilityPredictor(
            in_features, hidden, standardizer=standardizer, rng=rng
        )

    def predict(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t̂, â) for a feature matrix — the per-cluster prediction rows."""
        return self.time.predict(Z), self.reliability.predict(Z)

    # ------------------------------------------------------------------ #
    # Architecture introspection + cloning (online refit support).
    # ------------------------------------------------------------------ #

    @property
    def in_features(self) -> int:
        return self.time.params[0].shape[0]

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        """Hidden layer widths, read back from the time head's weights."""
        return tuple(weight.shape[1] for weight in self.time.params[:-2:2])

    def clone(self) -> "PredictorPair":
        """An independent pair with the same architecture and weights.

        The online refit policy trains *candidate* weights while the live
        pair keeps serving; cloning (copied parameter arrays, the same
        standardizer references) is how an incremental refit warm-starts
        from the live checkpoint without aliasing it.  It draws nothing.
        """
        fresh = PredictorPair.__new__(PredictorPair)
        fresh.time, fresh.reliability = self.time.copy(), self.reliability.copy()
        return fresh
