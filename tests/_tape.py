"""The reverse-mode tape the predictor heads are held to, bit for bit.

The heads (``repro.predictors.models``) train and predict through one
hand-written forward and its VJP (``repro.nn.network``).  Before that
they ran on this define-by-run tape — a :class:`Tensor` recording a
backward closure per operation, :mod:`ops`-style elementwise functions,
``Module`` layers, :func:`mse_loss` and :func:`clip_grad_norm` — and it is
kept here, verbatim, as the oracle ``tests/test_bank_exact.py`` compares
them with.  ``tests/test_nn_tensor.py``, ``test_nn_ops.py``,
``test_nn_edge_cases.py`` and ``test_nn_layers.py`` hold it to finite
differences: the first link of the chain "tape ops match finite
differences, and the bank equals the tape".

Parameters train with :class:`repro.nn.Adam`, which takes any leaves with
``.data``, ``.grad`` and ``zero_grad()``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.nn.functional import sigmoid_np
from repro.nn.init import he_uniform
from repro.utils.rng import as_generator, spawn

# --------------------------------------------------------------------- #
# The tensor.
# --------------------------------------------------------------------- #


ArrayLike = "np.ndarray | float | int | Sequence[float] | Tensor"

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape construction (evaluation mode).

    Mirrors the familiar ``torch.no_grad()`` idiom; forward passes inside
    the block produce constant tensors, which keeps inference cheap inside
    the matching solvers.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes.

    NumPy broadcasting aligns trailing dimensions; any leading dimensions
    that were added, and any axes of size 1 that were stretched, must have
    their gradient contributions summed.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that broadcasting prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array contents; coerced to ``float64``.
    requires_grad:
        Whether gradients should flow into this tensor (leaf nodes — model
        parameters — set this; intermediate tensors inherit it from their
        parents).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    #: Opt out of NumPy's ufunc dispatch so expressions like
    #: ``ndarray + Tensor`` defer to our reflected operators instead of
    #: producing an object array element-wise.
    __array_ufunc__ = None

    def __init__(
        self,
        data: "np.ndarray | float | int | Sequence[float]",
        requires_grad: bool = False,
        *,
        name: str | None = None,
    ) -> None:
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ) -> "Tensor":
        """Create a non-leaf tensor recording ``backward`` on the tape."""
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view; do not mutate mid-graph)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's data."""
        out = Tensor(self.data)
        return out

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Accumulate gradients of ``self`` w.r.t. every reachable leaf.

        ``grad`` seeds the output gradient; for scalar tensors it defaults
        to 1.  Gradients *accumulate* into ``.grad`` (callers reset between
        steps via optimizers' ``zero_grad``).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        seed = np.asarray(grad, dtype=np.float64)
        if seed.shape != self.data.shape:
            seed = np.broadcast_to(seed, self.data.shape).copy()

        order = _topo_sort(self)
        grads: dict[int, np.ndarray] = {id(self): seed}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf: accumulate into .grad.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # ------------------------------------------------------------------ #
    # Arithmetic (backward closures defined inline; broadcasting-aware)
    # ------------------------------------------------------------------ #

    def _coerce(self, other: "Tensor | np.ndarray | float | int") -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: "Tensor | np.ndarray | float | int") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return unbroadcast(g, a.shape), unbroadcast(g, b.shape)

        return Tensor._from_op(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other: "Tensor | np.ndarray | float | int") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return unbroadcast(g, a.shape), unbroadcast(-g, b.shape)

        return Tensor._from_op(a.data - b.data, (a, b), backward)

    def __rsub__(self, other: "Tensor | np.ndarray | float | int") -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: "Tensor | np.ndarray | float | int") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        a_data, b_data = a.data, b.data

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return unbroadcast(g * b_data, a.shape), unbroadcast(g * a_data, b.shape)

        return Tensor._from_op(a_data * b_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | np.ndarray | float | int") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        a_data, b_data = a.data, b.data

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            ga = unbroadcast(g / b_data, a.shape)
            gb = unbroadcast(-g * a_data / (b_data * b_data), b.shape)
            return ga, gb

        return Tensor._from_op(a_data / b_data, (a, b), backward)

    def __rtruediv__(self, other: "Tensor | np.ndarray | float | int") -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (-g,)

        return Tensor._from_op(-a.data, (a,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** only supports scalar exponents")
        a = self
        p = float(exponent)
        a_data = a.data

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g * p * np.power(a_data, p - 1.0),)

        return Tensor._from_op(np.power(a_data, p), (a,), backward)

    def __matmul__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        a_data, b_data = a.data, b.data
        if a_data.ndim > 2 or b_data.ndim > 2:
            # Stacked heads run tapeless (repro.predictors.models.HeadBank).
            raise ValueError(
                f"the tape multiplies 1-D and 2-D operands, got "
                f"{a_data.ndim}-D @ {b_data.ndim}-D"
            )

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            # Promote to 2-D, compute, then squeeze back — handles the four
            # (vec/mat) × (vec/mat) cases uniformly.
            a2 = a_data.reshape(1, -1) if a_data.ndim == 1 else a_data
            b2 = b_data.reshape(-1, 1) if b_data.ndim == 1 else b_data
            g2 = g.reshape(a2.shape[0], b2.shape[1])
            ga = g2 @ b2.T
            gb = a2.T @ g2
            return ga.reshape(a_data.shape), gb.reshape(b_data.shape)

        return Tensor._from_op(a_data @ b_data, (a, b), backward)

    def __rmatmul__(self, other: "np.ndarray") -> "Tensor":
        return self._coerce(other).__matmul__(self)

    # ------------------------------------------------------------------ #
    # Shape ops
    # ------------------------------------------------------------------ #

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        orig_shape = a.shape

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g.reshape(orig_shape),)

        return Tensor._from_op(a.data.reshape(shape), (a,), backward)

    def ravel(self) -> "Tensor":
        return self.reshape(-1)

    @property
    def T(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            return (g.T,)

        return Tensor._from_op(a.data.T, (a,), backward)

    def __getitem__(self, idx: object) -> "Tensor":
        a = self
        a_shape = a.shape

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            out = np.zeros(a_shape)
            np.add.at(out, idx, g)  # type: ignore[arg-type]
            return (out,)

        return Tensor._from_op(a.data[idx], (a,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        a_shape = a.shape

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            if axis is None:
                return (np.broadcast_to(g, a_shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, a_shape).copy(),)

        return Tensor._from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([a.data.shape[ax] for ax in axis]))
        else:
            count = a.data.shape[axis]
        return a.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Max reduction; ties split gradient equally among argmax entries."""
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)
        a_data = a.data

        def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
            if axis is None:
                mask = (a_data == out_data).astype(np.float64)
                mask /= mask.sum()
                return (mask * g,)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (a_data == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (mask * g_expanded,)

        return Tensor._from_op(out_data, (a,), backward)


def _topo_sort(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in reverse topological order.

    Iterative DFS (no recursion limit issues on deep MLP graphs).
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def as_tensor(x: "Tensor | np.ndarray | float | Sequence[float]") -> Tensor:
    """Coerce ``x`` to a constant :class:`Tensor` (no copy for Tensors)."""
    return x if isinstance(x, Tensor) else Tensor(x)


# --------------------------------------------------------------------- #
# Elementwise operations (``from tests import _tape as ops``: ``ops.exp``).
# --------------------------------------------------------------------- #


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * out_data,)

    return Tensor._from_op(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    x_data = x.data

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g / x_data,)

    return Tensor._from_op(np.log(x_data), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = as_tensor(x)
    out_data = sigmoid_np(x.data)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * out_data * (1.0 - out_data),)

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    x_data = x.data
    mask = (x_data > 0).astype(np.float64)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * mask,)

    return Tensor._from_op(x_data * mask, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi]."""
    x = as_tensor(x)
    x_data = x.data
    mask = ((x_data >= lo) & (x_data <= hi)).astype(np.float64)

    def backward(g: np.ndarray) -> tuple[np.ndarray | None, ...]:
        return (g * mask,)

    return Tensor._from_op(np.clip(x_data, lo, hi), (x,), backward)


# --------------------------------------------------------------------- #
# Modules: parameters, layers and a ReLU MLP.
# --------------------------------------------------------------------- #


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
        return relu(x)


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


# --------------------------------------------------------------------- #
# The loss of Eq. (1), and the gradient clip of the regret update.
# --------------------------------------------------------------------- #


def mse_loss(pred: Tensor, target: "Tensor | np.ndarray") -> Tensor:
    """Mean squared error, Eq. (1): ``(1/n) ||target − pred||²``."""
    pred = as_tensor(pred)
    target = as_tensor(target)
    diff = pred - target.detach()
    return (diff * diff).mean()


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
