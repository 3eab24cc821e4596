"""Cluster-specific performance predictors (paper §2.1).

Two MLP heads per cluster, matching the paper's setup ("we only utilized
fully connected layers"):

- :class:`TimePredictor` — ``t̂ = exp(h_ω(z))``: the network regresses
  log-time, which linearizes the multiplicative structure of execution
  times (roofline ratios, affinity multipliers) and keeps t̂ > 0;
- :class:`ReliabilityPredictor` — ``â = σ(h_φ(z))`` ∈ (0, 1).

Every head is the same fixed function — Linear-ReLU-…-Linear and a
link — so training and inference run it without a tape: one hand-written
forward (:func:`_forward`) over 2-D weights (``predict``) or ``(H, in,
out)`` stacks, and its VJP.  The M clusters' heads of a kind train as one
:class:`HeadBank` (stacked weights in one flat buffer, one
:class:`~repro.nn.Adam`, and one minibatch's workspace for its forward
and VJP, so a training step allocates nothing and one forward is in
flight per bank), and :func:`predict_pairs` is the stacked forward
serving uses.  Each operation is the tape's, in the tape's order,
so weights and predictions are bit for bit those of the per-head tape,
which survives only as ``forward``: the oracle ``tests/test_bank_exact.py``
holds the bank to.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import MLP, Tensor, flatten, ops
from repro.nn.functional import sigmoid_np
from repro.nn.layers import Linear, Module
from repro.predictors.dataset import Standardizer
from repro.utils.rng import as_generator

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


class _Head(Module):
    """One scalar predictor: standardize → MLP → output link → ``(N,)``."""

    _output = "identity"  # the MLP's output head

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = (32, 32),
        *,
        standardizer: Standardizer | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.net = MLP(in_features, hidden, 1, activation="relu", output=self._output,
                       rng=as_generator(rng))
        self.standardizer = standardizer

    def _prep(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if self.standardizer is not None:
            Z = self.standardizer.transform(Z)
        return Z

    def _link(self, raw: Tensor) -> Tensor:
        """Map the MLP output to the predicted quantity.  Each kind also
        has it tapeless, the MLP's output module included, as
        ``_link_np(raw, out=None, tmp=None)`` (into ``out`` when given),
        and its pullback ``_link_vjp(g, raw, out, into, tmp, flag)``,
        which writes into ``into`` (``raw`` itself may be it) with ``tmp``
        / ``flag`` (float / bool, shaped like ``raw``) as scratch."""
        return raw

    def forward(self, Z: "np.ndarray | Tensor") -> Tensor:
        """Differentiable prediction on the tape: a length-N tensor.  Only
        the per-head oracle of ``tests/test_bank_exact.py`` builds it;
        training and inference run tapeless (:class:`HeadBank`,
        :meth:`predict`)."""
        if isinstance(Z, Tensor):
            raise TypeError("pass raw features; the predictor standardizes internally")
        return self._link(self.net(Tensor(self._prep(Z)))).reshape(-1)

    def predict(self, Z: np.ndarray) -> np.ndarray:
        """Tapeless prediction (shape (N,))."""
        layers = [(m.weight.data, m.bias.data) for (m,) in _linears([self])]
        return _forward(self._link_np, layers, self._prep(Z)).reshape(-1)


class TimePredictor(_Head):
    """Execution-time head: MLP in log-time space, exponentiated output."""

    def _link(self, raw: Tensor) -> Tensor:
        return ops.exp(ops.clip(raw, -_LOG_T_CLIP, _LOG_T_CLIP))

    @staticmethod
    def _link_np(raw: np.ndarray, out: "np.ndarray | None" = None,
                 tmp: "np.ndarray | None" = None) -> np.ndarray:
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
    """Reliability head: MLP with a logistic output, â ∈ (0, 1)."""

    _output = "sigmoid"

    @staticmethod
    def _link_np(raw: np.ndarray, out: "np.ndarray | None" = None,
                 tmp: "np.ndarray | None" = None) -> np.ndarray:
        return sigmoid_np(raw, out=out, tmp=tmp)

    @staticmethod
    def _link_vjp(g: np.ndarray, raw: np.ndarray, out: np.ndarray, into: np.ndarray,
                  tmp: np.ndarray, flag: np.ndarray) -> None:
        np.subtract(1.0, out, out=tmp)
        np.multiply(np.multiply(g, out, out=into), tmp, out=into)


# --------------------------------------------------------------------- #
# The tapeless network.
# --------------------------------------------------------------------- #


def _linears(heads: "Sequence[_Head]") -> "list[tuple[Linear, ...]]":
    """The heads' Linear layers, one tuple per layer position."""
    return [ls for ls in zip(*(h.net.net for h in heads)) if isinstance(ls[0], Linear)]


def _forward(link, layers: list, X: np.ndarray) -> np.ndarray:
    """The head network on raw arrays: ``x @ weight + bias`` per ``layers``
    entry, ReLU between them, ``link`` on the last output.  The weights are
    2-D for one head, ``(H, in, out)`` / ``(H, 1, out)`` stacks for a bank
    (lifted over round axes by :func:`predict_pairs`).  These are the
    tape's operations in the tape's order — ReLU is ``x * (x > 0)`` — so
    every value is the tape's, bit for bit.  :meth:`HeadBank.forward` is
    the same pass into a workspace."""
    x = X
    for k, (weight, bias) in enumerate(layers):
        if k:
            x = x * (x > 0).astype(np.float64)
        x = x @ weight + bias
    return link(x)


def _stack_linear(layers: "Sequence[Linear]") -> tuple[np.ndarray, np.ndarray]:
    """Copies of one layer position across heads: ``(H, in, out)`` weights
    and ``(H, 1, out)`` biases (so the bias gradient sums the sample axis).
    ``np.array`` of equal-shape arrays is ``np.stack``'s result without its
    per-array Python checks."""
    return (np.array([m.weight.data for m in layers]),
            np.array([m.bias.data for m in layers])[:, None, :])


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
    """H same-architecture heads trained as one stacked network, with no
    tape: a hand-written forward (:func:`_forward`), its VJP
    (:meth:`backward`) and a per-head gradient clip, for an
    :class:`~repro.nn.Adam` over :attr:`params`.

    :attr:`params` — per Linear position an ``(H, in, out)`` weight and an
    ``(H, 1, out)`` bias stack, in a head's ``parameters()`` order — are
    consecutive views of one flat buffer (:func:`~repro.nn.flatten`), and
    they *own* the storage: on construction every head's
    ``Parameter.data`` is re-pointed to a view of its slice, so an
    optimizer step on the bank is at once visible through the per-head
    modules (``state_dict``, ``predict``, the registry) and
    ``load_state_dict`` on a head writes through to the bank.  Per head
    the arithmetic is that of the head's own tape, bit for bit (DESIGN.md
    §7b; ``tests/test_bank_exact.py``).

    A bank must not outlive the training call that built it: the views do
    not survive ``copy.deepcopy``/pickle of the heads, nor a second bank
    over the same heads, after which this one would train storage nobody
    reads.  Inference therefore never keeps one (:func:`predict_pairs`).

    **Workspace.**  :meth:`forward` and :meth:`backward` allocate no array
    after a bank's first minibatch.  One minibatch's buffers, sized by the
    most rows seen so far, hold per layer its product (activated in place,
    later overwritten by the gradient passed back through it) and its
    ReLU mask (first the broadcast bias), and the link's output and
    scratch: what a pass keeps for its VJP anyway.  A pass over fewer rows
    (a ragged tail minibatch) runs on leading views of them, laid out as a
    fresh array of its shape would be, so the GEMMs and ufuncs see the
    operands they saw when every pass allocated; the views of each row
    count are built once.  The price is one forward in flight per bank:
    the next :meth:`forward` overwrites the predictions and what ``saved``
    refers to, so a caller reads the predictions and runs
    :meth:`backward` first.
    """

    def __init__(self, heads: "Sequence[_Head]") -> None:
        self.heads = list(heads)
        if not self.heads or len({type(h) for h in self.heads}) != 1:
            raise ValueError("a bank needs one or more heads of a single kind")
        linears = _linears(self.heads)
        self.params = flatten([a for ls in linears for a in _stack_linear(ls)])
        self._layers = list(zip(self.params[::2], self.params[1::2]))
        for layers, (weight, bias) in zip(linears, self._layers):
            for h, layer in enumerate(layers):
                layer.weight.data = weight[h]
                layer.bias.data = bias[h, 0]
        self._weights_t = [np.swapaxes(weight, -1, -2) for weight, _ in self._layers]
        kind = type(self.heads[0])
        self._link, self._link_vjp = kind._link_np, kind._link_vjp
        self._rows = 0  # rows the workspace holds
        self._views: "dict[int, tuple]" = {}  # row count -> its workspace views

    def _workspace(self, n: int) -> "tuple[list, list]":
        """``(floats, flags)`` for an ``n``-row pass: per layer its output
        and its mask (the last layer's "mask" is the link's output), then
        the link's scratch; and per layer a bool scratch.  The buffers grow
        (and the cached views go) only past the most rows seen."""
        views = self._views.get(n)
        if views is None:
            H, widths = len(self), [weight.shape[-1] for weight, _ in self._layers]
            floats = [w for w in widths for _ in range(2)] + [1]
            if n > self._rows:
                self._rows, self._views = n, {}
                self._floats = [np.empty(H * n * w) for w in floats]
                self._flags = [np.empty(H * n * w, dtype=bool) for w in widths]
            views = self._views[n] = tuple(
                [buf[:H * n * w].reshape(H, n, w) for buf, w in zip(bufs, ws)]
                for bufs, ws in ((self._floats, floats), (self._flags, widths)))
        return views

    def __len__(self) -> int:
        return len(self.heads)

    def prepare(self, Z: np.ndarray) -> np.ndarray:
        """``(H, N, F)`` standardized input for features all heads share."""
        return _stacked_features(self.heads, Z)

    def forward(self, X: np.ndarray) -> "tuple[np.ndarray, tuple]":
        """``(H, N)`` predictions for standardized ``(H, N, F)`` features,
        and what :meth:`backward` needs of this pass — both views of the
        workspace, valid until the next :meth:`forward`.  :func:`_forward`'s
        operations in its order; the bias is added from a broadcast copy
        (in the mask buffer, free until the mask is taken), since a ufunc
        broadcasting it would allocate an iteration buffer."""
        floats, flags = ws = self._workspace(X.shape[-2])
        x, last = X, len(self._layers) - 1
        for k, (weight, bias) in enumerate(self._layers):
            z, mask = floats[2 * k:2 * k + 2]
            np.matmul(x, weight, out=z)
            np.copyto(mask, bias)
            np.add(z, mask, out=z)
            if k < last:
                np.copyto(mask, np.greater(z, 0, out=flags[k]))
                np.multiply(z, mask, out=z)
            x = z
        out = self._link(x, floats[-2], floats[-1])
        return out.reshape(X.shape[:-1]), (X, ws)

    def backward(self, g: np.ndarray, saved: tuple, grads: "Sequence[np.ndarray]") -> None:
        """The VJP of the last :meth:`forward` (``saved`` is its second
        result; once per forward, as each layer's gradient overwrites its
        output): writes into ``grads`` (one array per :attr:`params`
        entry, e.g. an Adam's ``grads``) the gradient of
        ``Σ g ⊙ predictions``, as the tape's backward would compute it."""
        X, (floats, flags) = saved
        last = len(self._layers) - 1
        raw, out = floats[-3:-1]
        self._link_vjp(g.reshape(raw.shape), raw, out, raw, floats[-1], flags[last])
        g = raw
        for k in range(last, -1, -1):
            np.add.reduce(g, axis=1, keepdims=True, out=grads[2 * k + 1])
            x = floats[2 * k - 2] if k else X
            np.matmul(np.swapaxes(x, -1, -2), g, out=grads[2 * k])
            if k:  # x is read: its buffer takes the gradient it passes back
                np.matmul(g, self._weights_t[k], out=x)
                g = np.multiply(x, floats[2 * k - 1], out=x)

    def clip_grad_norm(self, max_norm: float, grads: "Sequence[np.ndarray]") -> np.ndarray:
        """Per-head :func:`repro.nn.clip_grad_norm` of the stacked
        gradients ``grads``, in place (same sums, in ``params`` order; heads
        under the norm are untouched).  Returns the ``(H,)`` pre-clip
        norms."""
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
    matrix, as one stacked tapeless forward per head kind.  ``R`` rounds at
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
        layers = [tuple(a[lift] for a in _stack_linear(ls)) for ls in _linears(heads)]
        X = _stacked_features(heads, Z)
        out.append(_forward(heads[0]._link_np, layers, X).reshape(X.shape[:-1]))
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
        return self.time.net.in_features

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        """Hidden layer widths, read back from the time head's MLP."""
        linears = [m for m in self.time.net.net if isinstance(m, Linear)]
        return tuple(layer.out_features for layer in linears[:-1])

    def clone(self, rng: np.random.Generator | int | None = None) -> "PredictorPair":
        """An independent pair with the same architecture and weights.

        The online refit policy trains *candidate* weights while the live
        pair keeps serving; cloning (same standardizer reference, deep-
        copied parameters) is how an incremental refit warm-starts from
        the live checkpoint without aliasing it.
        """
        fresh = PredictorPair(
            self.in_features, self.hidden_sizes,
            standardizer=self.time.standardizer, rng=rng,
        )
        fresh.time.load_state_dict(
            {k: v.copy() for k, v in self.time.state_dict().items()})
        fresh.reliability.load_state_dict(
            {k: v.copy() for k, v in self.reliability.state_dict().items()})
        # The heads may carry distinct standardizers after a registry load.
        fresh.reliability.standardizer = self.reliability.standardizer
        return fresh
