"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from repro.clusters import make_setting
from repro.matching import MatchingProblem, feasible_gamma
from repro.methods import MFCP
from repro.predictors.models import _Head
from repro.telemetry.recorder import Recorder
from repro.workloads import TaskPool


# Tier-1 is deterministic: every property test replays the same examples
# each run (a failing one is a finding, not a flake), with no wall-clock
# deadline on this shared machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


class IdentityHead(_Head):
    """A head whose link is the identity: what ``repro.nn.MLP`` is, run as
    a :class:`~repro.predictors.HeadBank` of its own."""

    @staticmethod
    def _link_np(raw, out, tmp):
        return raw

    @staticmethod
    def _link_vjp(g, raw, out, into, tmp, flag):
        np.copyto(into, g)


class PerClusterMFCP(MFCP):
    """MFCP held to Algorithm 2's per-cluster round, which the shipped class
    runs only where the batch kernel cannot express the program: the
    reference the fused round is compared against."""

    def _round(self, *args):
        return self._train_round(*args)


@pytest.fixture(scope="session")
def task_pool() -> TaskPool:
    """A small shared task pool (session-scoped: embedding is the slow part)."""
    return TaskPool(24, rng=123)


@pytest.fixture(scope="session")
def setting_a():
    return make_setting("A")


@pytest.fixture(scope="session")
def setting_b():
    return make_setting("B")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


def random_problem(
    rng: np.random.Generator,
    m: int = 3,
    n: int = 5,
    *,
    gamma_quantile: float = 0.4,
    **kwargs,
) -> MatchingProblem:
    """A random well-posed matching instance (helper, not a fixture)."""
    T = rng.uniform(0.2, 3.0, size=(m, n))
    A = rng.uniform(0.6, 0.995, size=(m, n))
    return MatchingProblem(
        T=T, A=A, gamma=feasible_gamma(T, A, quantile=gamma_quantile), **kwargs
    )


@pytest.fixture()
def small_problem(rng: np.random.Generator) -> MatchingProblem:
    return random_problem(rng)


@pytest.fixture(scope="session")
def setting_a_problem(task_pool, setting_a) -> MatchingProblem:
    """A ground-truth problem built from the cluster substrate."""
    tasks = task_pool.tasks[:6]
    T = np.stack([c.true_times(tasks) for c in setting_a])
    A = np.stack([c.true_reliabilities(tasks) for c in setting_a])
    return MatchingProblem(T=T, A=A, gamma=feasible_gamma(T, A, quantile=0.5))


@contextmanager
def journey_log():
    """Make an in-memory JSONL recorder active for the body and yield the
    events it buffers (it is never closed, so nothing is written):
    ``journeys_from_events`` groups the flushed journeys back by trace."""
    rec = Recorder("jsonl")
    with rec.activate():
        yield rec._lines
