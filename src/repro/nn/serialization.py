"""Saving and loading predictor parameters.

Uses ``numpy.savez`` so checkpoints are portable, dependency-free, and
human-inspectable (``np.load`` shows the dotted parameter names).  A
"module" here is anything with ``state_dict()`` / ``load_state_dict()``:
the predictor heads.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

__all__ = ["save_module", "load_module"]


def save_module(module: Any, path: str | os.PathLike[str]) -> None:
    """Write ``module``'s state dict to ``path`` (``.npz`` appended if absent)."""
    state = module.state_dict()
    if not state:
        raise ValueError("module has no parameters to save")
    np.savez(os.fspath(path), **state)


def load_module(module: Any, path: str | os.PathLike[str]) -> Any:
    """Load a state dict saved by :func:`save_module` into ``module`` in place.

    The module must already have the right architecture; shape mismatches
    raise rather than silently truncating.
    """
    path_str = os.fspath(path)
    if not path_str.endswith(".npz"):
        path_str += ".npz"
    with np.load(path_str) as data:
        state = {name: data[name] for name in data.files}
    module.load_state_dict(state)
    return module
