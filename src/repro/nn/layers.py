"""Neural-network modules: parameters, layers, and the MLP used by MFCP.

The paper's predictors are cluster-specific fully-connected networks mapping
a task feature vector ``z`` to a scalar execution time or reliability
(§4.1.1: "we only utilized fully connected layers for training").  This
module provides a small but complete ``Module`` hierarchy on top of the
autograd :class:`~repro.nn.tensor.Tensor`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.nn import init as initializers
from repro.nn import ops
from repro.nn.tensor import Tensor
from repro.utils.rng import as_generator, spawn

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Softplus",
    "Identity",
    "Sequential",
    "MLP",
]


class Parameter(Tensor):
    """A trainable leaf tensor (``requires_grad=True`` by construction)."""

    def __init__(self, data: np.ndarray, *, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class: parameter registration, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, Module] = {}
        self.training: bool = True

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

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes ----------------------------------------------------------- #

    def train(self) -> "Module":
        self.training = True
        for m in self._modules.values():
            m.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for m in self._modules.values():
            m.eval()
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state ------------------------------------------------------------ #

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter arrays in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data[...] = arr

    # -- forward ------------------------------------------------------------ #

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x W + b`` with He/Xavier initialization.

    ``x`` may be a single feature vector (1-D) or a batch (2-D, samples in
    rows) — the matmul handles both.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        init: str = "he_uniform",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        rng = as_generator(rng)
        init_fn = getattr(initializers, init, None)
        if init_fn is None:
            raise ValueError(f"unknown initializer {init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_fn((in_features, out_features), rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class _Activation(Module):
    """Stateless elementwise activation wrapping an op from :mod:`repro.nn.ops`."""

    _fn: Callable[[Tensor], Tensor]

    def forward(self, x: Tensor) -> Tensor:
        return type(self)._fn(x)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ReLU(_Activation):
    _fn = staticmethod(ops.relu)


class Sigmoid(_Activation):
    _fn = staticmethod(ops.sigmoid)


class Softplus(_Activation):
    _fn = staticmethod(ops.softplus)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


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


_ACTIVATIONS: dict[str, type[Module]] = {
    "relu": ReLU,
    "sigmoid": Sigmoid,
    "softplus": Softplus,
    "identity": Identity,
}

_OUTPUT_HEADS: dict[str, type[Module]] = {
    "identity": Identity,
    "softplus": Softplus,  # strictly positive outputs (execution time)
    "sigmoid": Sigmoid,  # outputs in (0, 1) (reliability)
}


class MLP(Module):
    """Fully-connected network ``d → hidden… → out`` with a typed output head.

    Parameters
    ----------
    in_features:
        Input (task feature) dimension.
    hidden:
        Sizes of hidden layers; may be empty for a linear model.
    out_features:
        Output dimension (1 for the paper's scalar predictors).
    activation:
        Hidden activation name (``relu``/``sigmoid``/``softplus``/``identity``).
    output:
        Output head: ``identity``, ``softplus`` (positive, time predictor)
        or ``sigmoid`` (unit interval, reliability predictor).
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
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; options: {sorted(_ACTIVATIONS)}")
        if output not in _OUTPUT_HEADS:
            raise ValueError(f"unknown output head {output!r}; options: {sorted(_OUTPUT_HEADS)}")
        rng = as_generator(rng)
        init = "he_uniform" if activation == "relu" else "xavier_uniform"
        dims = [in_features, *hidden, out_features]
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], init=init, rng=spawn(rng)))
            if i < len(dims) - 2:
                layers.append(_ACTIVATIONS[activation]())
        layers.append(_OUTPUT_HEADS[output]())
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward pass on raw arrays (squeezes a size-1 head)."""
        from repro.nn.tensor import no_grad

        with no_grad():
            out = self.forward(Tensor(np.asarray(x, dtype=np.float64))).data
        if self.out_features == 1 and out.ndim >= 1 and out.shape[-1] == 1:
            out = out[..., 0]
        return out
