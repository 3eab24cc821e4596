"""From-scratch NumPy autograd + neural-network substrate.

The MFCP paper's predictors are small fully-connected networks trained by
backpropagating a matching-regret loss (Eq. 7).  This package provides the
complete training stack: reverse-mode autodiff tensors, layers, losses,
optimizers, initializers, and checkpointing — with gradients property-tested
against finite differences in ``tests/test_nn_*``.
"""

from repro.nn import functional, init, ops
from repro.nn.layers import (
    MLP,
    Identity,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Softplus,
)
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.nn.serialization import load_module, save_module
from repro.nn.tensor import Tensor, as_tensor, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "ops",
    "functional",
    "init",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Softplus",
    "Identity",
    "Sequential",
    "MLP",
    "mse_loss",
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "save_module",
    "load_module",
]
