"""Experiment configuration and the FAST/FULL execution profiles.

Profile selection: ``REPRO_PROFILE=full`` in the environment switches every
harness from the quick benchmark-friendly sizes to the paper-faithful ones
(more seeds, more evaluation rounds, longer MFCP training).  Both profiles
run the identical code paths — FULL only changes counts.

Cross-cutting run knobs travel the same way, so every experiment module
(each of which constructs its config independently) resolves them
identically:

- ``REPRO_TELEMETRY`` ∈ ``{off, summary, jsonl}`` — telemetry mode
  (:func:`active_telemetry`; the CLI's ``--telemetry`` flag sets it);
- ``REPRO_SEEDS`` — comma-separated seed override applied by
  :func:`default_config` (the CLI's ``--seeds`` flag sets it; both read
  through :func:`parse_seeds`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.matching.relaxed import SolverConfig
from repro.methods.base import MatchSpec
from repro.methods.mfcp import MFCPConfig
from repro.predictors.training import TrainConfig
from repro.telemetry import MODES

__all__ = ["ExperimentConfig", "PROFILES", "active_profile", "active_telemetry",
           "default_config", "parse_seeds"]

#: N per allocation round (paper: 5 tasks, 3 clusters).
N_TASKS = 5


#: Execution profiles: quick benchmark-friendly sizes, or the paper's.
PROFILES = ("fast", "full")


def active_profile() -> str:
    """"fast" (default) or "full", from the REPRO_PROFILE env var."""
    profile = os.environ.get("REPRO_PROFILE", "fast").lower()
    if profile not in PROFILES:
        raise ValueError(f"REPRO_PROFILE must be one of {PROFILES}, got {profile!r}")
    return profile


def active_telemetry() -> str:
    """"off" (default), "summary" or "jsonl", from REPRO_TELEMETRY."""
    mode = os.environ.get("REPRO_TELEMETRY", "off").lower()
    if mode not in MODES:
        raise ValueError(f"REPRO_TELEMETRY must be one of {MODES}, got {mode!r}")
    return mode


def parse_seeds(raw: str) -> "tuple[int, ...]":
    """Seeds from a comma-separated list such as ``"0,1,2"`` (blank
    entries skipped); ``ValueError`` unless at least one int is given."""
    try:
        seeds = tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ValueError(f"seeds must be comma-separated ints, got {raw!r}") from exc
    if not seeds:
        raise ValueError(f"at least one seed is required, got {raw!r}")
    return seeds


def _seed_override() -> "tuple[int, ...] | None":
    """Seeds from REPRO_SEEDS, or None when unset."""
    raw = os.environ.get("REPRO_SEEDS", "").strip()
    return parse_seeds(raw) if raw else None


@dataclass(frozen=True)
class ExperimentConfig:
    """Sizes and hyperparameters of one experiment run."""

    pool_size: int = 80
    train_fraction: float = 0.7
    eval_rounds: int = 12  # test rounds per seed
    seeds: tuple[int, ...] = (0, 1, 2)
    spec: MatchSpec = field(default_factory=MatchSpec)
    mfcp: MFCPConfig = field(default_factory=lambda: MFCPConfig(epochs=50))
    supervised: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=200))
    ucb_ensemble: int = 4
    #: Exact-oracle node budget; beyond it the oracle falls back to the
    #: deployment pipeline (documented in EXPERIMENTS.md).
    oracle_node_limit: int = 400_000

    def __post_init__(self) -> None:
        if self.pool_size <= 0 or self.eval_rounds <= 0:
            raise ValueError("pool_size and eval_rounds must be positive")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not self.seeds:
            raise ValueError("at least one seed is required")


def default_config(profile: str | None = None, **overrides: object) -> ExperimentConfig:
    """Build the profile's default configuration (override fields via kwargs)."""
    profile = profile or active_profile()
    if profile == "full":
        cfg = ExperimentConfig(
            pool_size=120,
            eval_rounds=15,
            seeds=(0, 1, 2, 3, 4),
            mfcp=MFCPConfig(epochs=80),
            supervised=TrainConfig(epochs=300),
            ucb_ensemble=5,
        )
    else:
        cfg = ExperimentConfig()
    seeds = _seed_override()
    if seeds is not None:
        cfg = replace(cfg, seeds=seeds)
    if overrides:
        cfg = replace(cfg, **overrides)  # type: ignore[arg-type]
    return cfg
