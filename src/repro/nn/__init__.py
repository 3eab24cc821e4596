"""From-scratch NumPy neural-network substrate.

The MFCP paper's predictors are small fully-connected networks trained by
backpropagating a matching-regret loss (Eq. 7).  This package holds what
they share with the rest of the code: the He-uniform initializer, the
``.npz`` checkpoint format and the flat :class:`Adam` every training step
uses.

The predictor heads themselves are plain arrays run by one hand-written
forward and its VJP (:mod:`repro.predictors.models`), with no tape.  The
reverse-mode engine (:class:`Tensor`, :mod:`~repro.nn.ops`, the
``Module`` layers and :class:`MLP`, :func:`mse_loss`), with gradients
property-tested against finite differences in ``tests/test_nn_*``,
remains for two users: the platform benchmark's ``nn`` probe
(``probe_nn``) and the per-head tape oracle that ``tests/test_bank_exact.py``
holds the heads to.  It goes once that probe times an H = 1 bank step
instead, a change to the benchmark itself.
"""

from repro.nn import functional, init, ops
from repro.nn.layers import MLP, Linear, Module, Parameter, ReLU, Sequential
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
    "Sequential",
    "MLP",
    "mse_loss",
    "Adam",
    "clip_grad_norm",
    "flatten",
    "save_module",
    "load_module",
]
