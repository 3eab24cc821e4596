"""Neural-network modules on the tape: parameters, layers and an MLP.

A small ``Module`` hierarchy on top of the autograd
:class:`~repro.nn.tensor.Tensor`: a ReLU MLP of :class:`Linear` layers
with ``Parameter`` leaves.  The predictors do not use it (their heads are
plain arrays, :mod:`repro.predictors.models`); it is what the platform
benchmark's ``nn`` probe trains and what the per-head oracle of
``tests/test_bank_exact.py`` runs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.nn import ops
from repro.nn.init import he_uniform
from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator, spawn

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Sequential",
    "MLP",
]


class Parameter(Tensor):
    """A trainable leaf tensor (``requires_grad=True`` by construction)."""

    def __init__(self, data: np.ndarray, *, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class: parameter and submodule registration."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}

    # -- registration (attribute assignment auto-registers) ------------- #

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth-first, deterministic order."""
        for p in self._parameters.values():
            yield p
        for m in self._modules.values():
            yield from m.parameters()

    # -- forward ------------------------------------------------------------ #

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x W + b``, He-uniform weights and zero bias.

    ``x`` may be a single feature vector (1-D) or a batch (2-D, samples in
    rows) — the matmul handles both.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(he_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for i, m in enumerate(modules):
            name = f"m{i}"
            setattr(self, name, m)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Fully-connected network ``d → hidden… → out``.

    Parameters
    ----------
    in_features:
        Input (task feature) dimension.
    hidden:
        Sizes of hidden layers; may be empty for a linear model.
    out_features:
        Output dimension (1 for the paper's scalar predictors).
    activation:
        Hidden activation name; ``relu`` is the one there is.
    output:
        Output head; ``identity`` (the last Linear's output) is the one
        there is.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int] = (32, 32),
        out_features: int = 1,
        *,
        activation: str = "relu",
        output: str = "identity",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if activation != "relu":
            raise ValueError(f"unknown activation {activation!r}; options: ['relu']")
        if output != "identity":
            raise ValueError(f"unknown output head {output!r}; options: ['identity']")
        rng = as_generator(rng)
        dims = [in_features, *hidden, out_features]
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=spawn(rng)))
            if i < len(dims) - 2:
                layers.append(ReLU())
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
