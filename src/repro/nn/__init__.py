"""From-scratch NumPy network substrate for the paper's fully-connected
predictors (trained by backpropagating Eq. 7's regret).

- :mod:`~repro.nn.network`: the one network, ``forward`` and its layers'
  VJP ``backward``, which every predictor head and bank runs;
- the He-uniform initializer, the ``.npz`` checkpoint format, the flat
  :class:`Adam` and the plain-NumPy softmax, log-sum-exp and sigmoid.

There is no reverse-mode engine: :class:`MLP`, :class:`Tensor`,
:class:`Parameter`, :func:`no_grad` and :func:`mse_loss` keep only the
call shape of the platform benchmark's ``nn`` probe, run through that
network as a bank of one identity-link head.  The per-head tape the heads
are held to lives with its tests (``tests/_tape.py``).
"""

from repro.nn import functional, init, network
from repro.nn.network import MLP, Parameter, Tensor, mse_loss, no_grad
from repro.nn.optim import Adam, flatten
from repro.nn.serialization import load_module, save_module

__all__ = ["functional", "init", "network", "MLP", "Parameter", "Tensor", "mse_loss",
           "no_grad", "Adam", "flatten", "save_module", "load_module"]
