"""The Adam optimizer and gradient clipping.

Adam keeps parameters, moments and gradients each in one flat ``float64``
buffer, so a step is a handful of whole-buffer operations however many
arrays it updates.  Its parameters are either

- the tape's :class:`~repro.nn.layers.Parameter` leaves: unless they
  already are, their arrays are re-pointed to consecutive views of one
  buffer on construction, and :meth:`Adam.step` first gathers the
  ``.grad`` each backward pass left on them — safe because each training
  step builds a fresh tape; or
- plain arrays that already are consecutive views of one buffer (a
  :class:`~repro.predictors.models.HeadBank`'s stacks, built by
  :func:`flatten`), whose gradients the caller writes into
  :attr:`Adam.grads` before each step.

Elementwise arithmetic does not depend on layout, so the flat step is,
bit for bit, Adam run array by array.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.layers import Parameter

__all__ = [
    "Adam",
    "clip_grad_norm",
    "flatten",
]

#: Denominator floor of the Adam update.
_EPS = 1e-8

#: Adam's moment decay rates ``(beta1, beta2)``.
BETAS = (0.9, 0.999)


def _views(flat: np.ndarray, shapes: "Sequence[tuple[int, ...]]") -> "list[np.ndarray]":
    """Consecutive views of ``flat``, one per shape, in order."""
    out, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[start:start + size].reshape(shape))
        start += size
    return out


def flatten(arrays: "Sequence[np.ndarray]") -> "list[np.ndarray]":
    """Copies of ``arrays`` as consecutive views of one new flat buffer."""
    return _views(np.concatenate([np.ravel(a) for a in arrays]), [np.shape(a) for a in arrays])


def _flat_base(arrays: "Sequence[np.ndarray]") -> "np.ndarray | None":
    """The one 1-D buffer ``arrays`` tile in order, or None."""
    base = arrays[0].base
    if (base is None or base.ndim != 1 or base.dtype != np.float64
            or base.size != sum(a.size for a in arrays)):
        return None
    start = base.ctypes.data
    for a in arrays:
        if a.base is not base or not a.flags.c_contiguous or a.ctypes.data != start:
            return None
        start += a.nbytes
    return base


class Adam:
    """Adam with bias correction (Kingma & Ba) over one flat buffer."""

    def __init__(
        self,
        params: "Iterable[Parameter] | Iterable[np.ndarray]",
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.steps = 0
        self._tape = [p for p in self.params if isinstance(p, Parameter)]
        if self._tape and len(self._tape) != len(self.params):
            raise ValueError("pass Parameters or arrays, not both")
        arrays = [p.data for p in self._tape] or self.params
        shapes = [a.shape for a in arrays]
        self.data = _flat_base(arrays)
        if self.data is None:
            if not self._tape:
                raise ValueError("arrays must be consecutive views of one buffer (flatten)")
            for p, view in zip(self._tape, flatten(arrays)):
                p.data = view
            self.data = self._tape[0].data.base
        self.grad = np.zeros_like(self.data)
        #: Per-parameter views of :attr:`grad`, in ``params`` order.
        self.grads = _views(self.grad, shapes)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        # Two step-to-step scratch buffers: a step allocates nothing.
        self._s1 = np.empty_like(self.data)
        self._s2 = np.empty_like(self.data)

    def zero_grad(self) -> None:
        """Drop the tape's gradients (a caller writing :attr:`grads`
        overwrites them whole)."""
        for p in self._tape:
            p.zero_grad()

    def step(self) -> None:
        self.steps += 1
        if self._tape:
            if all(p.grad is None for p in self._tape):
                return  # nothing was backpropagated
            if any(p.grad is None for p in self._tape):
                raise ValueError("every parameter needs a gradient")
            for view, p in zip(self.grads, self._tape):
                view[...] = p.grad
        b1, b2 = BETAS
        bc1 = 1.0 - b1**self.steps
        bc2 = 1.0 - b2**self.steps
        # m += (1-b1) g;  v += (1-b2) g²;  data -= lr (m/bc1) / (sqrt(v/bc2) + eps),
        # with g = grad + wd·data: the same ufuncs in the same order as the
        # expressions, written into the two scratch buffers.
        s1, s2 = self._s1, self._s2
        g = self.grad
        if self.weight_decay:
            np.multiply(self.weight_decay, self.data, out=s1)
            g = np.add(g, s1, out=s1)
        self.m *= b1
        self.m += np.multiply(1.0 - b1, g, out=s2)
        self.v *= b2
        np.multiply(g, g, out=s2)
        self.v += np.multiply(1.0 - b2, s2, out=s2)
        step = np.multiply(self.lr, np.divide(self.m, bc1, out=s2), out=s2)
        denom = np.add(np.sqrt(np.divide(self.v, bc2, out=s1), out=s1), _EPS, out=s1)
        self.data -= np.divide(step, denom, out=s2)


def clip_grad_norm(params: "Sequence[Parameter] | Iterable[Parameter]", max_norm: float) -> float:
    """Rescale the tape's gradients so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm.  (The predictor bank clips per
    head with the same sums: :meth:`~repro.predictors.models.HeadBank.clip_grad_norm`.)
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float(np.sum(p.grad**2)) for p in params)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad *= scale
    return total
