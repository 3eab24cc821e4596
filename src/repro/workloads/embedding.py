"""Task-to-feature embedding (the paper's GNN front end, §4.1.1).

The paper embeds tasks with a graph neural network, then trains only
fully-connected predictor heads on the resulting features; the embedding is
treated as a fixed, given transformation ("we omit the distinction between
tasks and features").  We therefore implement a *deterministic, untrained*
message-passing encoder — exactly the role the frozen GNN plays:

1. per-node features: one-hot operator type ⊕ log-scaled flops/params/mem;
2. ``rounds`` of mean-aggregation message passing with fixed random
   projection weights (seeded, so the embedding is a pure function);
3. graph readout: mean ⊕ max pooling over node states;
4. a fixed random projection to ``out_dim`` plus standardized scalar
   workload attributes appended, giving the final feature vector ``z``.

The appended attributes keep the map information-rich enough for MLP heads
to learn performance, while the random-projection part carries topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.workloads.graphs import OP_TYPES, OpGraph, build_graph, node_feature_matrix
from repro.workloads.specs import ModelSpec

__all__ = ["GraphEmbedder", "DEFAULT_FEATURE_DIM"]

#: Dimension of the structural (message-passing) part of the embedding.
_STRUCT_DIM = 10
#: Number of propagation rounds (receptive field radius).
_ROUNDS = 3
#: Number of scalar workload attributes appended to the structural part.
_NUM_ATTRS = 6
#: Default total feature dimension exposed to predictors.
DEFAULT_FEATURE_DIM = _STRUCT_DIM + _NUM_ATTRS
#: Node state width during message passing.
HIDDEN_DIM = 32
#: Seed of the fixed projection weights: every embedder computes the same
#: features.
SEED = 7


@dataclass
class _MPWeights:
    """Fixed (untrained) projection weights of the message-passing encoder."""

    w_self: np.ndarray
    w_neigh: np.ndarray
    w_readout: np.ndarray


class GraphEmbedder:
    """Deterministic message-passing graph encoder producing feature vectors
    (width :data:`HIDDEN_DIM`, projection weights drawn from :data:`SEED`)."""

    def __init__(self) -> None:
        rng = as_generator(SEED)
        in_dim = len(OP_TYPES) + 3
        scale_in = 1.0 / np.sqrt(in_dim)
        scale_h = 1.0 / np.sqrt(HIDDEN_DIM)
        self._weights = _MPWeights(
            w_self=rng.normal(0.0, scale_in, size=(in_dim, HIDDEN_DIM)),
            w_neigh=rng.normal(0.0, scale_h, size=(HIDDEN_DIM, HIDDEN_DIM)),
            w_readout=rng.normal(0.0, scale_h, size=(2 * HIDDEN_DIM, _STRUCT_DIM)),
        )

    # ------------------------------------------------------------------ #

    @property
    def feature_dim(self) -> int:
        return DEFAULT_FEATURE_DIM

    def embed_graph(self, g: OpGraph) -> np.ndarray:
        """Structural embedding of an operator graph (no attributes)."""
        x = node_feature_matrix(g)
        # Symmetric normalized adjacency (undirected view) for propagation.
        adj = g.adjacency()
        adj = adj + adj.T
        deg = adj.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))
        norm_adj = adj * inv_sqrt[:, None] * inv_sqrt[None, :]

        h = np.tanh(x @ self._weights.w_self)
        for _ in range(_ROUNDS):
            h = np.tanh(0.5 * h + 0.5 * (norm_adj @ h) @ self._weights.w_neigh)
        pooled = np.concatenate([h.mean(axis=0), h.max(axis=0)])
        return np.tanh(pooled @ self._weights.w_readout)

    def embed_spec(self, spec: ModelSpec) -> np.ndarray:
        """Full feature vector ``z``: structural readout ⊕ workload attributes.

        The scalar attributes are log-scaled and normalized to roughly
        [-1, 1] using fixed constants so features are comparable across the
        configuration ranges of :mod:`repro.workloads.specs`.
        """
        g = build_graph(spec)
        struct = self.embed_graph(g)
        attrs = np.array(
            [
                _norm_log(spec.flops_per_sample, 6.0, 13.0),
                _norm_log(spec.params, 4.0, 10.0),
                _norm_log(spec.memory_gb + 1e-9, -4.0, 2.5),
                _norm_log(spec.batch_size, 1.0, 3.0),
                _norm_log(spec.seq_length, 0.0, 2.6),
                _norm_log(spec.epoch_flops, 12.0, 19.0),
            ]
        )
        return np.concatenate([struct, attrs])

    def embed_specs(self, specs: "list[ModelSpec] | tuple[ModelSpec, ...]") -> np.ndarray:
        """Stack embeddings for a task list: shape (N, feature_dim)."""
        if not specs:
            raise ValueError("specs must be non-empty")
        return np.stack([self.embed_spec(s) for s in specs])


def _norm_log(value: float, lo_log10: float, hi_log10: float) -> float:
    """Map log10(value) from [lo, hi] to roughly [-1, 1] (not clipped)."""
    logv = np.log10(max(value, 1e-12))
    return float(2.0 * (logv - lo_log10) / (hi_log10 - lo_log10) - 1.0)
