"""Cluster-specific performance predictors (paper §2.1).

Two MLP heads per cluster, matching the paper's setup ("we only utilized
fully connected layers"):

- :class:`TimePredictor` — ``t̂ = exp(h_ω(z))``: the network regresses
  log-time, which linearizes the multiplicative structure of execution
  times (roofline ratios, affinity multipliers) and keeps t̂ > 0;
- :class:`ReliabilityPredictor` — ``â = σ(h_φ(z))`` ∈ (0, 1).

Both expose a tape-building ``forward`` (for end-to-end regret training)
and a tape-free ``predict``.

The M clusters' heads share one architecture, so everything that touches
all of them runs *stacked*: :class:`HeadBank` holds H heads' layers as
``(H, in, out)`` parameters for training (one tape, one optimizer), and
:func:`predict_pairs` is the tape-free stacked forward serving uses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import MLP, Tensor, no_grad, ops
from repro.nn.layers import Linear, Module, Parameter
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
        """Map the MLP output to the predicted quantity."""
        return raw

    def forward(self, Z: "np.ndarray | Tensor") -> Tensor:
        """Differentiable prediction: a length-N tensor."""
        if isinstance(Z, Tensor):
            raise TypeError("pass raw features; the predictor standardizes internally")
        return self._link(self.net(Tensor(self._prep(Z)))).reshape(-1)

    def predict(self, Z: np.ndarray) -> np.ndarray:
        """Tape-free prediction (shape (N,))."""
        with no_grad():
            return self.forward(Z).data.copy()


class TimePredictor(_Head):
    """Execution-time head: MLP in log-time space, exponentiated output."""

    def _link(self, raw: Tensor) -> Tensor:
        return ops.exp(ops.clip(raw, -_LOG_T_CLIP, _LOG_T_CLIP))


class ReliabilityPredictor(_Head):
    """Reliability head: MLP with a logistic output, â ∈ (0, 1)."""

    _output = "sigmoid"


# --------------------------------------------------------------------- #
# Stacked heads.
# --------------------------------------------------------------------- #


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


def _stacked_forward(head: _Head, layers: list, X: np.ndarray) -> Tensor:
    """``(..., H, N, F)`` standardized features → ``(..., H, N)`` predictions
    through stacked ``layers`` (``(weight, bias)`` per Linear position, the
    first head's stateless module elsewhere)."""
    x = Tensor(X)
    for layer in layers:
        x = x @ layer[0] + layer[1] if isinstance(layer, tuple) else layer(x)
    return head._link(x).reshape(*X.shape[:-1])


class HeadBank:
    """H same-architecture heads trained as one stacked network.

    The bank's ``(H, in, out)`` parameters *own* the storage: on
    construction every head's ``Parameter.data`` is re-pointed to a view of
    its slice, so an optimizer step on the bank is at once visible through
    the per-head modules (``state_dict``, ``predict``, the registry) and
    ``load_state_dict`` on a head writes through to the bank.  Per head the
    arithmetic is that of the head's own tape, bit for bit (DESIGN.md §7b;
    ``tests/test_bank_exact.py``).

    A bank must not outlive the training call that built it: the views do
    not survive ``copy.deepcopy``/pickle of the heads, nor a second bank
    over the same heads, after which this one would train storage nobody
    reads.  Inference therefore never keeps one (:func:`predict_pairs`).
    """

    def __init__(self, heads: "Sequence[_Head]") -> None:
        self.heads = list(heads)
        if not self.heads or len({type(h) for h in self.heads}) != 1:
            raise ValueError("a bank needs one or more heads of a single kind")
        self._layers: list = []
        self.params: list[Parameter] = []
        for layers in zip(*(h.net.net for h in self.heads)):
            if not isinstance(layers[0], Linear):
                self._layers.append(layers[0])
                continue
            weight, bias = (Parameter(a) for a in _stack_linear(layers))
            for h, layer in enumerate(layers):
                layer.weight.data = weight.data[h]
                layer.bias.data = bias.data[h, 0]
            self._layers.append((weight, bias))
            self.params += [weight, bias]  # a head's parameters() order

    def __len__(self) -> int:
        return len(self.heads)

    def prepare(self, Z: np.ndarray) -> np.ndarray:
        """``(H, N, F)`` standardized input for features all heads share."""
        return _stacked_features(self.heads, Z)

    def forward(self, X: np.ndarray) -> Tensor:
        """Differentiable ``(H, N)`` predictions for standardized ``(H, N, F)``."""
        return _stacked_forward(self.heads[0], self._layers, X)

    def clip_grad_norm(self, max_norm: float) -> np.ndarray:
        """Per-head :func:`repro.nn.clip_grad_norm` on the stacked gradients
        (same sums, in ``parameters()`` order; heads under the norm are
        untouched).  Returns the ``(H,)`` pre-clip norms."""
        if max_norm <= 0:
            raise ValueError(f"max_norm must be > 0, got {max_norm}")
        squares = 0.0
        for p in self.params:
            squares = squares + (p.grad**2).reshape(len(self), -1).sum(axis=1)
        total = np.sqrt(squares)
        scale = np.where(total > max_norm, max_norm / (total + 1e-12), 1.0)
        for p in self.params:
            p.grad *= scale[:, None, None]
        return total


def predict_pairs(
    pairs: "Sequence[PredictorPair]", Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(T̂, Â)``, each ``(M, N)``: every pair's predictions for one feature
    matrix, as one stacked tape-free forward per head kind.  ``R`` rounds at
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
    with no_grad():
        for heads in ([p.time for p in pairs], [p.reliability for p in pairs]):
            layers = [
                tuple(a[lift] for a in _stack_linear(ls)) if isinstance(ls[0], Linear)
                else ls[0]
                for ls in zip(*(h.net.net for h in heads))
            ]
            out.append(_stacked_forward(heads[0], layers, _stacked_features(heads, Z)).data)
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
