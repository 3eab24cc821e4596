"""The predictor heads' network, and the probe-shaped calls that run it.

Every head (:mod:`repro.predictors.models`) is one fixed function,
computed by :func:`forward` (its layers' VJP: :func:`backward`) for one
head's 2-D weights or for ``(H, in, out)`` stacks, a bank of H heads.

:class:`MLP`, :class:`Tensor`, :class:`Parameter`, :func:`no_grad` and
:func:`mse_loss` keep the one call shape the platform benchmark's ``nn``
probe makes: build, forward, ``mse_loss(out, y).backward()``, an
:class:`~repro.nn.Adam` step.  An :class:`MLP` is a bank of one head with
the identity link; the only graph is network → reshape → loss.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator, Sequence

import numpy as np

from repro.nn.init import he_uniform
from repro.nn.optim import flatten
from repro.utils.rng import as_generator, spawn

__all__ = ["widths", "forward", "backward", "MLP", "Parameter", "Tensor", "mse_loss", "no_grad"]


def widths(layers: list) -> "tuple[list[int], list[int]]":
    """Last-axis widths of a pass's buffers: float, per layer its product
    and its mask (the last layer's "mask" is the link's output), then the
    link's scratch; bool, per layer a flag."""
    outs = [weight.shape[-1] for weight, _ in layers]
    return [w for w in outs for _ in range(2)] + [1], outs


def workspace(layers: list, shape: "tuple[int, ...]") -> "tuple[list, list]":
    """A fresh :func:`forward` workspace, each buffer ``(*shape, width)``."""
    floats, flags = widths(layers)
    return ([np.empty((*shape, w)) for w in floats],
            [np.empty((*shape, w), dtype=bool) for w in flags])


def forward(link, layers: list, X: np.ndarray, ws: "tuple | None" = None) -> np.ndarray:
    """The head network: ``x @ weight + bias`` per ``layers`` entry, ReLU
    between them, ``link(raw, out, tmp)`` on the last output.  The weights
    are 2-D for one head, ``(H, in, out)`` / ``(H, 1, out)`` stacks for a
    bank (lifted over round axes by ``predict_pairs``), and ``X`` is
    ``(..., N, in)``; the result, ``(..., N, 1)``, is a buffer of the
    workspace ``ws``, fresh when not given.

    ReLU is ``x * (x > 0)`` as float, the per-head tape's operation
    (``tests/test_bank_exact.py`` holds the heads to it bit for bit).  The
    bias is added from a copy broadcast into the mask buffer: a ufunc
    broadcasting it would allocate an iteration buffer the size of the
    product.  So a pass allocates nothing past its workspace but the
    sigmoid link's branch mask."""
    floats, flags = ws or workspace(layers, X.shape[:-1])
    x, last = X, len(layers) - 1
    for k, (weight, bias) in enumerate(layers):
        z, mask = floats[2 * k:2 * k + 2]
        np.matmul(x, weight, out=z)
        np.copyto(mask, bias)
        np.add(z, mask, out=z)
        if k < last:
            np.copyto(mask, np.greater(z, 0, out=flags[k]))
            np.multiply(z, mask, out=z)
        x = z
    return link(x, floats[-2], floats[-1])


def backward(layers: list, X: np.ndarray, ws: tuple, g: np.ndarray,
             grads: "Sequence[np.ndarray]") -> None:
    """The VJP of a bank's :func:`forward` layers (``X`` ``(H, N, in)``,
    ``ws`` that pass's workspace): given ``g``, the gradient at the last
    layer's output, writes the parameters' gradient into ``grads`` (one
    array per parameter).  Each product buffer takes the gradient passed
    back through it, so this runs once per forward."""
    floats = ws[0]
    for k in range(len(layers) - 1, -1, -1):
        np.add.reduce(g, axis=1, keepdims=True, out=grads[2 * k + 1])
        x = floats[2 * k - 2] if k else X
        np.matmul(np.swapaxes(x, -1, -2), g, out=grads[2 * k])
        if k:  # x is read: its buffer takes the gradient it passes back
            np.matmul(g, np.swapaxes(layers[k][0], -1, -2), out=x)
            g = np.multiply(x, floats[2 * k - 1], out=x)


#: The probe's ``with nn.no_grad():``.  There is no tape to switch off: a
#: forward builds only the pullback closure its output carries.
no_grad = nullcontext


class Tensor:
    """An array and, for an :class:`MLP` output (and its reshapes and
    loss), the pullback into that network's parameters."""

    def __init__(self, data, pullback=None) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self._pullback = pullback

    def reshape(self, *shape: int) -> "Tensor":
        pullback, before = self._pullback, self.data.shape
        if pullback is None:
            return Tensor(self.data.reshape(shape))
        return Tensor(self.data.reshape(shape), lambda g: pullback(g.reshape(before)))

    def backward(self) -> None:
        """Set each parameter's ``grad`` to this scalar's gradient."""
        if self._pullback is None or self.data.size != 1:
            raise RuntimeError("backward() needs a scalar built from a network output")
        self._pullback(np.ones_like(self.data))


class Parameter:
    """A weight array and the gradient the last backward left on it."""

    def __init__(self, data: np.ndarray) -> None:
        self.data, self.grad = data, None

    def zero_grad(self) -> None:
        self.grad = None


def _identity(raw: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    return raw


class MLP:
    """A ReLU network ``in → hidden… → out`` with identity output, held as
    a bank of one head: ``(1, in, out)`` weights and ``(1, 1, out)``
    biases, drawn as a head's.  Maps ``(N, in)`` tensors to ``(N, out)``."""

    def __init__(self, in_features: int, hidden: Sequence[int] = (32, 32),
                 out_features: int = 1, *, activation: str = "relu", output: str = "identity",
                 rng: np.random.Generator | int | None = None) -> None:
        if (activation, output) != ("relu", "identity"):
            raise ValueError(f"the network is relu with an identity output, not "
                             f"{activation!r} with {output!r}")
        rng = as_generator(rng)
        dims, arrays = [in_features, *hidden, out_features], []
        for fan_in, fan_out in zip(dims, dims[1:]):
            arrays += [he_uniform((fan_in, fan_out), spawn(rng))[None], np.zeros((1, 1, fan_out))]
        self._params = [Parameter(a) for a in flatten(arrays)]

    def parameters(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __call__(self, x: Tensor) -> Tensor:
        params = self._params
        layers = [(w.data, b.data) for w, b in zip(params[::2], params[1::2])]
        X = x.data[None]
        ws = workspace(layers, X.shape[:-1])
        out = forward(_identity, layers, X, ws)[0]

        def pullback(g: np.ndarray) -> None:
            grads = [np.empty_like(p.data) for p in params]
            backward(layers, X, ws, g[None], grads)
            for p, grad in zip(params, grads):
                p.grad = grad

        return Tensor(out, pullback)


def mse_loss(pred: Tensor, target: "Tensor | np.ndarray") -> Tensor:
    """Eq. (1)'s mean squared error against a target of ``pred``'s shape,
    pulled back as the bank's step forms it: ``g + g``, ``g = diff · (1/n)``."""
    target = target.data if isinstance(target, Tensor) else np.asarray(target, np.float64)
    diff = pred.data - target
    if diff.shape != pred.data.shape:
        raise ValueError(f"target shape {target.shape} does not match {pred.data.shape}")
    scale = 1.0 / diff.size
    value = np.multiply(diff, diff).sum() * scale
    if pred._pullback is None:
        return Tensor(value)

    def pullback(g: np.ndarray) -> None:
        g = np.multiply(diff, g * scale)
        pred._pullback(np.add(g, g, out=g))

    return Tensor(value, pullback)
