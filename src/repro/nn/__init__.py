"""From-scratch NumPy neural-network substrate.

The MFCP paper's predictors are small fully-connected networks trained by
backpropagating a matching-regret loss (Eq. 7).  This package holds their
layers (``MLP``: the per-head ``Parameter`` storage), initializers,
checkpointing and the flat :class:`Adam` every training step uses.

Training and inference do not build a tape: every head is one fixed
Linear-ReLU-…-Linear-link function, and
:class:`~repro.predictors.models.HeadBank` runs it through a hand-written
stacked forward and VJP.  The reverse-mode engine (:class:`Tensor`,
:mod:`~repro.nn.ops`, the layers' ``forward``, :func:`mse_loss`), with
gradients property-tested against finite differences in
``tests/test_nn_*``, remains for two users: the per-head oracle
``_Head.forward`` that ``tests/test_bank_exact.py`` holds the bank to, and
the platform benchmark's ``nn`` probe.
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
from repro.nn.optim import Adam, clip_grad_norm, flatten
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
    "Adam",
    "clip_grad_norm",
    "flatten",
    "save_module",
    "load_module",
]
