"""Seeded random-number utilities.

Every stochastic component in :mod:`repro` draws from an explicitly seeded
:class:`numpy.random.Generator`.  This module centralizes generator
construction so experiments are reproducible bit-for-bit across runs and so
independent subsystems (workload sampling, failure draws, weight init,
zeroth-order perturbations) consume *independent* streams derived from a
single experiment seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_generator",
    "spawn",
]


def as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an ``int`` seed, an existing generator (returned unchanged so
    callers can thread a stream through a pipeline), or ``None`` for an
    OS-entropy-seeded generator (discouraged outside interactive use).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Derive a single independent child generator from ``rng``.

    Uses the generator's bit-generator seed sequence when available, falling
    back to drawing a 64-bit seed.  Children are statistically independent
    of the parent and of each other.
    """
    ss = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
    if isinstance(ss, np.random.SeedSequence):
        (child,) = ss.spawn(1)
        return np.random.default_rng(child)
    return np.random.default_rng(rng.integers(0, 2**63 - 1))
