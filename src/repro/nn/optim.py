"""The Adam optimizer and gradient clipping.

All optimizers operate on :class:`~repro.nn.layers.Parameter` leaves and
mutate their raw ``.data`` buffers between graph constructions — each
training step builds a fresh tape, so in-place parameter updates are safe.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.layers import Parameter

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
]


class Optimizer:
    """Base optimizer: holds the parameter list and a mutable learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.lr = float(lr)
        self.steps = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


#: Denominator floor of the Adam update.
_EPS = 1e-8


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = (float(b1), float(b2))
        self.weight_decay = float(weight_decay)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.steps += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.steps
        bc2 = 1.0 - b2**self.steps
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


def clip_grad_norm(params: "Sequence[Parameter] | Iterable[Parameter]", max_norm: float) -> float:
    """Rescale gradients so the global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm; used by the MFCP training loop to tame the
    occasional large zeroth-order estimate.
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
