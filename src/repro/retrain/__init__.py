"""Closed-loop online learning for the serving stack.

The offline pipeline (fit once, serve forever) leaves the predictors
frozen while the workload drifts.  This package closes the loop the paper
leaves open: serving traffic *produces* fresh labels, labels produce
candidate refits, and candidates reach production only through a canary
gate with automatic rollback —

- :mod:`repro.retrain.buffer` — label harvesting: deduplicated,
  causality-safe replay buffer over window snapshots;
- :mod:`repro.retrain.harvest` — :class:`WindowHarvester`: labels,
  canary windows and served error of one dispatcher's windows, shared by
  the single and the fleet controller;
- :mod:`repro.retrain.policy` — :class:`RefitJob`: full or warm-started
  incremental candidate refits, trained a few minibatches per dispatch
  window so the matcher never blocks;
- :mod:`repro.retrain.canary` — :class:`CanaryGate`: time accuracy,
  reliability calibration, and decision-regret shadow evaluation against
  the live model;
- :mod:`repro.retrain.loop` — :class:`RetrainController`: the serve
  callback running trigger → refit → canary → hot-swap → guard/rollback
  against the versioned :class:`~repro.serve.registry.ModelRegistry`;
  :func:`build_refit` arms a refit for it and for the fleet controller.

Build the whole stack with :func:`repro.serve.build_platform` and a
:class:`RetrainConfig`, or wire a controller by hand::

    controller = RetrainController(RetrainConfig(trigger="drift"))
    dispatcher = Dispatcher(..., registry=registry,
                            callbacks=[monitor, controller])
    controller.bind(dispatcher)
    monitor.add_retrain_listener(controller.notify_drift)
"""

from repro.retrain.buffer import Label, LabelDataset, ReplayBuffer
from repro.retrain.canary import CanaryDecision, CanaryGate, CanaryWindow
from repro.retrain.harvest import WindowHarvester
from repro.retrain.loop import RetrainConfig, RetrainController, build_refit
from repro.retrain.policy import RefitJob

__all__ = [
    "Label",
    "LabelDataset",
    "ReplayBuffer",
    "RefitJob",
    "WindowHarvester",
    "build_refit",
    "CanaryWindow",
    "CanaryDecision",
    "CanaryGate",
    "RetrainConfig",
    "RetrainController",
]
