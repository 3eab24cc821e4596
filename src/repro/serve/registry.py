"""Versioned predictor checkpoint registry with hot-swap support.

A serving platform retrains its predictors periodically (nightly, or on
drift alarms) while the dispatcher keeps matching traffic.  This registry
gives that loop a durable handoff point, layered on
:mod:`repro.nn.serialization`:

- one directory per version (``v0001``, ``v0002``, ...) holding the
  per-cluster time/reliability ``.npz`` state dicts;
- a ``meta.json`` metadata header per version: checkpoint format, git SHA
  and interpreter (via :func:`repro.telemetry.run_metadata`), the training
  config repr, arbitrary metrics, cluster/parameter counts, an optional
  human tag, a deterministic **weights digest** (SHA-256 over parameter
  names and raw array bytes — stable across re-runs, unlike npz file
  bytes, whose zip headers embed timestamps) and an optional **parent**
  version recording retrain lineage;
- a **live pointer** (``live.json``) naming the version production
  traffic should load.  Registering a checkpoint never moves the pointer:
  the canary gate of :mod:`repro.retrain` promotes versions explicitly
  via :meth:`set_live`, and :meth:`rollback` walks the pointer back along
  the lineage chain — so canary-rejected candidates can be kept for audit
  without ever becoming the serving default;
- ``load_into`` restores a version into any trained method *in place*, so
  a running :class:`~repro.serve.dispatcher.Dispatcher` can hot-swap
  models between windows without rebuilding its queue or cache state.

Any object exposing per-cluster :class:`~repro.predictors.models.PredictorPair`
objects works as a source/target: a plain list of pairs, or a method with
a ``pairs`` property (TSM) / ``_pairs`` attribute (MFCP).

Not to be confused with :mod:`repro.clusters.catalog` (formerly
``repro.clusters.registry``), the *cluster archetype catalog* — this
module stores model checkpoints, that one hardware definitions.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.nn.serialization import load_module, save_module
from repro.predictors.dataset import Standardizer
from repro.predictors.models import PredictorPair
from repro.telemetry import run_metadata

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointInfo",
    "ModelRegistry",
    "weights_digest",
]

CHECKPOINT_FORMAT = 1

_VERSION_RE = re.compile(r"^v(\d{4,})$")


@dataclass(frozen=True)
class CheckpointInfo:
    """One registered checkpoint: its version id, directory, and metadata."""

    version: str
    path: Path
    meta: dict

    @property
    def digest(self) -> "str | None":
        return self.meta.get("digest")

    @property
    def parent(self) -> "str | None":
        return self.meta.get("parent")


def _pairs_of(source: Any) -> "list[PredictorPair]":
    """Extract the per-cluster predictor pairs of a method (or pass a list)."""
    if isinstance(source, (list, tuple)):
        pairs = list(source)
    else:
        pairs = None
        for attr in ("pairs", "_pairs"):
            candidate = getattr(source, attr, None)
            if candidate:
                pairs = list(candidate)
                break
        if pairs is None:
            raise TypeError(
                f"{type(source).__name__} exposes no trained predictor pairs "
                "(need a list, a 'pairs' property, or a '_pairs' attribute)"
            )
    if not pairs or not all(isinstance(p, PredictorPair) for p in pairs):
        raise TypeError("source must provide a non-empty list of PredictorPair")
    return pairs


def weights_digest(source: Any) -> str:
    """Deterministic SHA-256 (hex) over a source's predictor weights.

    Hashes parameter names and raw array bytes (plus the fitted
    standardizer), so two runs producing identical weights produce
    identical digests regardless of when the checkpoint files were
    written.  This is the identity carried in ``serve/hot_swap`` replay
    breadcrumbs.
    """
    h = hashlib.sha256()
    for i, pair in enumerate(_pairs_of(source)):
        for head_name, head in (("time", pair.time), ("rel", pair.reliability)):
            h.update(f"{i}/{head_name}".encode())
            for name, arr in sorted(head.state_dict().items()):
                h.update(name.encode())
                h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        std = pair.time.standardizer
        if std is not None:
            h.update(np.ascontiguousarray(std.mean, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(std.std, dtype=np.float64).tobytes())
    return h.hexdigest()


class ModelRegistry:
    """Directory-backed, versioned store of predictor checkpoints."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #

    def versions(self) -> "list[str]":
        """Registered versions, oldest first."""
        found = []
        for p in self.root.iterdir():
            if p.is_dir() and _VERSION_RE.match(p.name) and (p / "meta.json").exists():
                found.append(p.name)
        return sorted(found, key=lambda v: int(v[1:]))

    def latest(self) -> "str | None":
        versions = self.versions()
        return versions[-1] if versions else None

    def __len__(self) -> int:
        return len(self.versions())

    def __contains__(self, version: str) -> bool:
        return version in self.versions()

    def info(self, version: str) -> CheckpointInfo:
        path = self.root / version
        meta_path = path / "meta.json"
        if not meta_path.exists():
            raise KeyError(f"unknown checkpoint version {version!r} in {self.root}")
        with open(meta_path) as fh:
            meta = json.load(fh)
        return CheckpointInfo(version=version, path=path, meta=meta)

    # ------------------------------------------------------------------ #
    # Live pointer + lineage.
    # ------------------------------------------------------------------ #

    @property
    def _live_path(self) -> Path:
        return self.root / "live.json"

    def live(self) -> "str | None":
        """Version the live pointer names, or ``None`` when never set."""
        if not self._live_path.exists():
            return None
        with open(self._live_path) as fh:
            return json.load(fh)["version"]

    def set_live(self, version: str) -> CheckpointInfo:
        """Promote ``version`` to live (it must exist); returns its info."""
        info = self.info(version)  # raises KeyError for unknown versions
        with open(self._live_path, "w") as fh:
            json.dump({"version": version}, fh)
        return info

    def rollback(self) -> CheckpointInfo:
        """Move the live pointer to the live version's parent.

        Raises ``KeyError`` when no live version is set and ``ValueError``
        when the live version records no parent (nothing to roll back to).
        """
        live = self.live()
        if live is None:
            raise KeyError(f"registry {self.root} has no live version to roll back")
        parent = self.info(live).parent
        if parent is None:
            raise ValueError(f"live version {live} has no parent to roll back to")
        return self.set_live(parent)

    def lineage(self) -> "list[str]":
        """Parent chain starting at the live version, oldest last."""
        v = self.live()
        chain: "list[str]" = []
        while v is not None and v not in chain:
            chain.append(v)
            v = self.info(v).parent
        return chain

    # ------------------------------------------------------------------ #
    # Save / load.
    # ------------------------------------------------------------------ #

    def save(
        self,
        source: Any,
        *,
        config: Any = None,
        metrics: "dict[str, float] | None" = None,
        tag: "str | None" = None,
        parent: "str | None" = None,
    ) -> CheckpointInfo:
        """Register the source's current weights as the next version.

        ``config`` is stored as its repr (training configs are dataclasses
        with informative reprs); ``metrics`` is an arbitrary scalar dict
        (validation regret, final loss, ...); ``tag`` is a free-form label
        (e.g. ``"nightly-retrain"``); ``parent`` records the version this
        checkpoint was refit from (retrain lineage — consumed by
        :meth:`rollback`).  Saving never moves the live pointer.
        """
        pairs = _pairs_of(source)
        if parent is not None and parent not in self:
            raise KeyError(f"parent version {parent!r} is not registered")
        latest = self.latest()
        version = f"v{(int(latest[1:]) + 1) if latest else 1:04d}"
        path = self.root / version
        path.mkdir()
        for i, pair in enumerate(pairs):
            save_module(pair.time, path / f"cluster{i:03d}_time.npz")
            save_module(pair.reliability, path / f"cluster{i:03d}_reliability.npz")
            # The feature standardizer is fitted on the *training set*, not
            # part of the module state dict — without it a restored
            # checkpoint would run the right weights on the wrong feature
            # scale (both predictors of a pair share one standardizer).
            std = pair.time.standardizer
            if std is not None:
                np.savez(path / f"cluster{i:03d}_standardizer.npz",
                         mean=std.mean, std=std.std)
        meta = {
            "format": CHECKPOINT_FORMAT,
            "version": version,
            "n_clusters": len(pairs),
            "n_parameters": sum(
                p.time.num_parameters() + p.reliability.num_parameters() for p in pairs
            ),
            "metrics": dict(metrics or {}),
            "tag": tag,
            "parent": parent,
            "digest": weights_digest(pairs),
            **run_metadata(config=config),
        }
        with open(path / "meta.json", "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
        return CheckpointInfo(version=version, path=path, meta=meta)

    def load_into(self, target: Any, version: "str | None" = None) -> CheckpointInfo:
        """Restore a version's weights into ``target`` in place.

        ``version=None`` loads the live version when the pointer is set,
        else the latest.  The target must already have the matching
        architecture (cluster count is validated here; layer shapes by
        :meth:`Module.load_state_dict`).
        """
        if version is None:
            version = self.live() or self.latest()
            if version is None:
                raise KeyError(f"registry {self.root} has no checkpoints")
        info = self.info(version)
        pairs = _pairs_of(target)
        n = info.meta["n_clusters"]
        if len(pairs) != n:
            raise ValueError(
                f"checkpoint {version} holds {n} cluster pairs, target has {len(pairs)}"
            )
        if info.meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint {version} has format {info.meta.get('format')!r}, "
                f"this build reads format {CHECKPOINT_FORMAT}"
            )
        for i, pair in enumerate(pairs):
            load_module(pair.time, info.path / f"cluster{i:03d}_time.npz")
            load_module(pair.reliability, info.path / f"cluster{i:03d}_reliability.npz")
            std_path = info.path / f"cluster{i:03d}_standardizer.npz"
            if std_path.exists():
                with np.load(std_path) as data:
                    std = Standardizer(mean=data["mean"], std=data["std"])
                pair.time.standardizer = std
                pair.reliability.standardizer = std
            else:
                pair.time.standardizer = None
                pair.reliability.standardizer = None
        return info
