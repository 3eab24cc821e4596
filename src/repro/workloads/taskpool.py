"""Task pool: the population of deep-learning jobs the platform allocates.

§3.1 of the paper: "the pipeline first samples N deep learning tasks z from
the task pool Z to simulate the workload the platform must allocate within
a given time period."  A :class:`TaskPool` owns a fixed population of
embedded tasks and supplies the train/test splits; the serving tier's load
generators (:mod:`repro.serve.loadgen`) draw their arrivals from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.utils.rng import as_generator
from repro.workloads.embedding import GraphEmbedder
from repro.workloads.specs import FAMILY_LIST, ModelSpec, sample_specs

__all__ = ["Task", "TaskPool"]


@dataclass(frozen=True)
class Task:
    """One embedded deep-learning job."""

    task_id: int
    spec: ModelSpec
    features: np.ndarray  # the feature vector z the predictors consume

    def __post_init__(self) -> None:
        if self.features.ndim != 1:
            raise ValueError("task features must be a 1-D vector")


class TaskPool:
    """A fixed population of tasks with deterministic sampling.

    Parameters
    ----------
    size:
        Number of tasks in the pool.
    rng:
        Generator (or seed) for configuration sampling.

    Features come from a fresh :class:`GraphEmbedder` with its default
    seed, so pools built with the same arguments are identical.  The pool
    cycles through model families so small pools still contain CV and NLP
    style tasks, matching the paper's mixed workload.
    """

    def __init__(
        self,
        size: int,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        rng = as_generator(rng)
        self.embedder = GraphEmbedder()
        specs = sample_specs(size, rng, families=FAMILY_LIST)
        feats = self.embedder.embed_specs(specs)
        self._tasks: list[Task] = [
            Task(task_id=i, spec=s, features=feats[i]) for i, s in enumerate(specs)
        ]

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, idx: int) -> Task:
        return self._tasks[idx]

    @property
    def tasks(self) -> list[Task]:
        return list(self._tasks)

    @property
    def feature_dim(self) -> int:
        return self.embedder.feature_dim

    def features(self) -> np.ndarray:
        """Feature matrix of the whole pool, shape (size, feature_dim)."""
        return np.stack([t.features for t in self._tasks])

    # ------------------------------------------------------------------ #

    def split(
        self, train_fraction: float, rng: np.random.Generator | int | None = None
    ) -> tuple[list[Task], list[Task]]:
        """Shuffle-split the pool into (train, test) task lists."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = as_generator(rng)
        order = rng.permutation(len(self._tasks))
        cut = max(1, min(len(self._tasks) - 1, int(round(train_fraction * len(self._tasks)))))
        train = [self._tasks[i] for i in order[:cut]]
        test = [self._tasks[i] for i in order[cut:]]
        return train, test
