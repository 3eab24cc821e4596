"""Deep-learning task specifications.

The paper's dataset is measured epoch runtimes of CV models (CIFAR-10,
ImageNet) and NLP models (Europarl) with varied hyperparameters on the
Xirang platform.  We substitute a parametric generator of model
configurations across four families — convolutional, transformer, recurrent
and MLP — each with hyperparameter ranges matching the common architectures
the paper names (ResNet/VGG-class CV nets, translation-class seq models).

A :class:`ModelSpec` carries the *interpretable* workload attributes
(FLOPs, parameter count, activation memory, family mix).  Ground-truth
cluster performance models consume these attributes; predictors only see
the embedded feature vector — mirroring the real platform where predictors
never observe the true response surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["Family", "ModelSpec", "sample_spec", "sample_specs", "FAMILY_LIST"]


class Family(str, Enum):
    """Model family; determines hyperparameter ranges and graph topology."""

    CONV = "conv"
    TRANSFORMER = "transformer"
    RNN = "rnn"
    MLP = "mlp"


FAMILY_LIST: tuple[Family, ...] = (Family.CONV, Family.TRANSFORMER, Family.RNN, Family.MLP)


@dataclass(frozen=True)
class ModelSpec:
    """One deep-learning training task configuration.

    Attributes are per *training epoch* on the task's dataset, matching the
    paper's measurement protocol ("we monitored and recorded the runtimes
    of each epoch during actual execution").
    """

    family: Family
    depth: int  # number of blocks/layers
    width: int  # channels / hidden dim
    batch_size: int
    dataset_samples: int  # samples per epoch
    seq_length: int = 1  # tokens (NLP) or spatial resolution proxy (CV)
    dataset: str = "synthetic"
    train_epochs: int = 200  # full-run length; a "task" is one training run

    # Derived workload attributes, filled in __post_init__ (ground-truth
    # cluster models read them for every (cluster, task) pair of a window).
    flops_per_sample: float = field(default=0.0, compare=False)
    params: float = field(default=0.0, compare=False)
    activation_mem_gb: float = field(default=0.0, compare=False)
    #: FLOPs of the whole training run (all epochs).
    total_flops: float = field(default=0.0, compare=False)
    #: Peak device memory: parameters + optimizer state + activations.
    memory_gb: float = field(default=0.0, compare=False)
    #: FLOPs per parameter byte at the task's batch size.  Weights are
    #: fetched once per step and reused across the batch, so intensity
    #: scales with batch size — the standard roofline argument for why
    #: small-batch training is memory-bound.
    arithmetic_intensity: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.depth <= 0 or self.width <= 0 or self.batch_size <= 0:
            raise ValueError("depth, width and batch_size must be positive")
        if self.dataset_samples <= 0 or self.seq_length <= 0:
            raise ValueError("dataset_samples and seq_length must be positive")
        if self.train_epochs <= 0:
            raise ValueError("train_epochs must be positive")
        flops, params, act = _workload_attributes(self)
        object.__setattr__(self, "flops_per_sample", flops)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "activation_mem_gb", act)
        object.__setattr__(self, "total_flops", self.epoch_flops * self.train_epochs)
        # fp32 weights + Adam moments, plus activations.
        object.__setattr__(self, "memory_gb", params * 4 * 3 / 1e9 + act * self.batch_size)
        object.__setattr__(
            self, "arithmetic_intensity", flops * self.batch_size / max(params * 4.0, 1.0)
        )

    # ------------------------------------------------------------------ #

    @property
    def epoch_flops(self) -> float:
        """Total training FLOPs per epoch (forward + backward ≈ 3× forward)."""
        return 3.0 * self.flops_per_sample * self.dataset_samples

    @property
    def steps_per_epoch(self) -> int:
        return max(1, math.ceil(self.dataset_samples / self.batch_size))

    def describe(self) -> str:
        return (
            f"{self.family.value}(depth={self.depth}, width={self.width}, "
            f"batch={self.batch_size}, seq={self.seq_length}, "
            f"flops/sample={self.flops_per_sample:.3g}, params={self.params:.3g})"
        )


def _workload_attributes(spec: ModelSpec) -> tuple[float, float, float]:
    """Estimate (flops_per_sample, params, activation_mem_gb/sample).

    Uses standard per-family cost models (the same first-order formulas
    Paleo-style predictors use):

    - conv:        flops ≈ depth · width² · k² · H·W,  params ≈ depth · width² · k²
    - transformer: flops ≈ depth · (seq² · width + seq · width²) · c
    - rnn:         flops ≈ depth · seq · width² · gates
    - mlp:         flops ≈ depth · width²
    """
    d, w, s = spec.depth, spec.width, spec.seq_length
    if spec.family is Family.CONV:
        k2 = 9.0  # 3×3 kernels
        spatial = float(s * s)  # seq_length doubles as spatial resolution
        flops = 2.0 * d * (w**2) * k2 * spatial
        params = d * (w**2) * k2
        act = (d * w * spatial * 4.0) / 1e9
    elif spec.family is Family.TRANSFORMER:
        flops = 2.0 * d * (4.0 * s * w**2 + 2.0 * (s**2) * w)
        params = d * 12.0 * (w**2)
        act = (d * s * w * 12.0) / 1e9
    elif spec.family is Family.RNN:
        gates = 4.0  # LSTM
        flops = 2.0 * d * s * gates * (w**2)
        params = d * gates * 2.0 * (w**2)
        act = (d * s * w * 8.0) / 1e9
    elif spec.family is Family.MLP:
        flops = 2.0 * d * (w**2)
        params = d * (w**2)
        act = (d * w * 4.0) / 1e9
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown family {spec.family}")
    return float(flops), float(params), float(act)


# --------------------------------------------------------------------- #
# Random configuration sampling (the "task pool Z" of the paper, §3.1)
# --------------------------------------------------------------------- #

_DATASETS: dict[Family, list[tuple[str, int, int]]] = {
    # (name, samples/epoch, seq_length-or-resolution).  Ranges are chosen so
    # total training FLOPs across all families span roughly [3e14, 4e17] —
    # wide enough that matching matters, narrow enough that no single task
    # dwarfs every other.
    Family.CONV: [("cifar10", 50_000, 32), ("imagenet-100", 30_000, 48)],
    Family.TRANSFORMER: [("europarl", 60_000, 128), ("europarl-long", 30_000, 256)],
    Family.RNN: [("europarl", 200_000, 64), ("europarl-long", 100_000, 128)],
    Family.MLP: [("tabular", 2_000_000, 1)],
}

_RANGES: dict[Family, dict[str, tuple[int, int]]] = {
    Family.CONV: {"depth": (8, 32), "width": (48, 160), "batch": (32, 256)},
    Family.TRANSFORMER: {"depth": (2, 12), "width": (192, 512), "batch": (16, 128)},
    Family.RNN: {"depth": (2, 6), "width": (192, 640), "batch": (16, 128)},
    Family.MLP: {"depth": (4, 12), "width": (512, 2048), "batch": (64, 512)},
}


def sample_spec(
    rng: np.random.Generator | int | None = None,
    *,
    family: Family | None = None,
) -> ModelSpec:
    """Sample one model configuration (log-uniform widths/batches)."""
    rng = as_generator(rng)
    if family is None:
        family = FAMILY_LIST[int(rng.integers(0, len(FAMILY_LIST)))]
    ranges = _RANGES[family]
    dataset, samples, seq = _DATASETS[family][int(rng.integers(0, len(_DATASETS[family])))]

    def log_uniform(lo: int, hi: int) -> int:
        return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))

    return ModelSpec(
        family=family,
        depth=int(rng.integers(ranges["depth"][0], ranges["depth"][1] + 1)),
        width=log_uniform(*ranges["width"]),
        batch_size=log_uniform(*ranges["batch"]),
        dataset_samples=samples,
        seq_length=seq,
        dataset=dataset,
        train_epochs=int(rng.integers(100, 401)),
    )


def sample_specs(
    n: int,
    rng: np.random.Generator | int | None = None,
    *,
    families: Sequence[Family] | None = None,
) -> list[ModelSpec]:
    """Sample ``n`` configurations, cycling through ``families`` if given
    (guarantees family diversity in small pools)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = as_generator(rng)
    if families:
        return [sample_spec(rng, family=families[i % len(families)]) for i in range(n)]
    return [sample_spec(rng) for _ in range(n)]
