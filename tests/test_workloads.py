"""Tests for the workload substrate: specs, graphs, embeddings, pools."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    DEFAULT_FEATURE_DIM,
    FAMILY_LIST,
    Family,
    GraphEmbedder,
    ModelSpec,
    TaskPool,
    build_graph,
    sample_spec,
    sample_specs,
)
from repro.workloads.graphs import OP_TYPES, OpGraph, node_feature_matrix


def spec_strategy():
    return st.builds(
        ModelSpec,
        family=st.sampled_from(list(FAMILY_LIST)),
        depth=st.integers(1, 40),
        width=st.integers(16, 512),
        batch_size=st.integers(8, 256),
        dataset_samples=st.integers(1000, 200_000),
        seq_length=st.integers(1, 256),
        train_epochs=st.integers(10, 300),
    )


class TestModelSpec:
    def test_derived_attributes_positive(self):
        s = ModelSpec(Family.CONV, depth=10, width=64, batch_size=64,
                      dataset_samples=50_000, seq_length=32)
        assert s.flops_per_sample > 0
        assert s.params > 0
        assert s.memory_gb > 0
        assert s.total_flops == pytest.approx(s.epoch_flops * s.train_epochs)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(Family.MLP, depth=0, width=10, batch_size=1, dataset_samples=10)
        with pytest.raises(ValueError):
            ModelSpec(Family.MLP, depth=1, width=10, batch_size=1,
                      dataset_samples=10, train_epochs=0)

    def test_flops_monotone_in_width(self):
        base = dict(family=Family.TRANSFORMER, depth=4, batch_size=32,
                    dataset_samples=10_000, seq_length=64)
        narrow = ModelSpec(width=128, **base)
        wide = ModelSpec(width=512, **base)
        assert wide.flops_per_sample > narrow.flops_per_sample

    def test_describe_mentions_family(self):
        s = sample_spec(0)
        assert s.family.value in s.describe()

    @settings(max_examples=40)
    @given(spec_strategy())
    def test_property_attributes_finite_positive(self, spec):
        assert np.isfinite(spec.flops_per_sample) and spec.flops_per_sample > 0
        assert np.isfinite(spec.params) and spec.params > 0
        assert spec.arithmetic_intensity > 0
        assert spec.steps_per_epoch >= 1


class TestSampling:
    def test_sample_specs_count_and_balance(self):
        specs = sample_specs(8, rng=1, families=FAMILY_LIST)
        assert len(specs) == 8
        families = {s.family for s in specs}
        assert families == set(FAMILY_LIST)

    def test_sample_specs_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sample_specs(0, rng=1)

    def test_deterministic_given_seed(self):
        a = sample_specs(5, rng=42)
        b = sample_specs(5, rng=42)
        assert a == b

    def test_ranges_respected(self):
        for s in sample_specs(40, rng=3):
            assert s.depth >= 1 and s.width >= 16
            assert 100 <= s.train_epochs <= 400


def _networkx(g: OpGraph):
    """``g`` rebuilt as a ``networkx.DiGraph`` (networkx is a test-only
    dependency: the package never imports it)."""
    import networkx as nx

    out = nx.DiGraph()
    for idx, data in g.nodes.items():
        out.add_node(idx, **data)
    out.add_edges_from(g.edges)
    return out


class TestGraphs:
    @pytest.mark.parametrize("family", list(FAMILY_LIST))
    def test_graph_is_dag_with_io(self, family):
        import networkx as nx

        spec = sample_spec(5, family=family)
        g = build_graph(spec)
        assert nx.is_directed_acyclic_graph(_networkx(g))
        assert nx.is_weakly_connected(_networkx(g))
        ops = [d["op"] for d in g.nodes.values()]
        assert ops.count("input") == 1
        assert ops.count("output") == 1

    @pytest.mark.parametrize("family", list(FAMILY_LIST))
    @pytest.mark.parametrize("depth", [1, 2, 5, 12])
    def test_adjacency_matches_networkx(self, family, depth):
        import networkx as nx

        spec = ModelSpec(family, depth=depth, width=64, batch_size=32,
                         dataset_samples=1000, seq_length=16)
        g = build_graph(spec)
        adj, want = g.adjacency(), nx.to_numpy_array(_networkx(g))
        assert adj.dtype == want.dtype and adj.tobytes() == want.tobytes()

    def test_op_graph_rejects_non_forward_edges(self):
        g = OpGraph()
        g.add_node(0, op="input")
        g.add_node(1, op="output")
        with pytest.raises(ValueError, match="lower id"):
            g.add_edge(1, 0)
        with pytest.raises(ValueError, match="lower id"):
            g.add_edge(1, 1)
        with pytest.raises(ValueError, match="missing node"):
            g.add_edge(0, 2)
        with pytest.raises(ValueError, match="already exists"):
            g.add_node(1, op="output")
        g.add_edge(0, 1)
        assert g.edges == [(0, 1)]

    @pytest.mark.parametrize("family", list(FAMILY_LIST))
    def test_graph_flops_consistent_with_spec(self, family):
        spec = sample_spec(7, family=family)
        flops = sum(data["flops"] for data in build_graph(spec).nodes.values())
        # Node FLOPs should be the same order as the spec's per-sample FLOPs.
        assert flops == pytest.approx(spec.flops_per_sample, rel=0.35)

    def test_node_feature_matrix_shape(self):
        g = build_graph(sample_spec(2))
        feats = node_feature_matrix(g)
        assert feats.shape == (len(g.nodes), len(OP_TYPES) + 3)
        # one-hot block: exactly one 1 per row
        np.testing.assert_allclose(feats[:, : len(OP_TYPES)].sum(axis=1), 1.0)

    def test_conv_has_residual_adds(self):
        spec = ModelSpec(Family.CONV, depth=8, width=32, batch_size=32,
                         dataset_samples=1000, seq_length=32)
        g = build_graph(spec)
        assert any(d["op"] == "add" for d in g.nodes.values())


class TestEmbedding:
    def test_dimension_and_determinism(self):
        emb = GraphEmbedder()
        spec = sample_spec(9)
        z1, z2 = emb.embed_spec(spec), emb.embed_spec(spec)
        assert z1.shape == (DEFAULT_FEATURE_DIM,)
        np.testing.assert_allclose(z1, z2)

    def test_same_seed_same_embedder(self):
        spec = sample_spec(9)
        np.testing.assert_allclose(
            GraphEmbedder(seed=7).embed_spec(spec), GraphEmbedder(seed=7).embed_spec(spec)
        )

    def test_different_specs_different_embeddings(self):
        emb = GraphEmbedder()
        specs = sample_specs(6, rng=10)
        Z = emb.embed_specs(specs)
        dists = [np.linalg.norm(Z[i] - Z[j]) for i in range(6) for j in range(i + 1, 6)]
        assert min(dists) > 1e-6

    def test_embedding_informative_about_scale(self):
        """Bigger workloads must map to measurably different features."""
        emb = GraphEmbedder()
        small = ModelSpec(Family.MLP, depth=4, width=128, batch_size=64,
                          dataset_samples=10_000)
        big = ModelSpec(Family.MLP, depth=12, width=2048, batch_size=64,
                        dataset_samples=2_000_000)
        assert np.linalg.norm(emb.embed_spec(big) - emb.embed_spec(small)) > 0.1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GraphEmbedder().embed_specs([])
        with pytest.raises(ValueError):
            GraphEmbedder(hidden_dim=0)


class TestTaskPool:
    def test_pool_basics(self, task_pool):
        assert len(task_pool) == 24
        assert task_pool.features().shape == (24, task_pool.feature_dim)
        assert task_pool[0].task_id == 0

    def test_split_partition(self, task_pool):
        train, test = task_pool.split(0.75, rng=0)
        assert len(train) + len(test) == len(task_pool)
        ids = {t.task_id for t in train} | {t.task_id for t in test}
        assert ids == set(range(len(task_pool)))

    def test_split_validates(self, task_pool):
        with pytest.raises(ValueError):
            task_pool.split(1.5)

    @pytest.mark.parametrize("size,digest", [
        (64, "c9f97f5d32def5d79b7902e6cd24319d1502eefc0917c79b25fa275b9c06738d"),
        (160, "3d44caaedef8700cf4bdaa55a232e394d6d2eaa42601d9308b274953da0012f9"),
        (256, "7b6d4a95e843e199a11deed5dfa8ca9388b34d949b5dab6fcc26a7d37ad1e6d2"),
    ])
    def test_features_frozen(self, size, digest):
        # Recorded with the networkx-built graphs: the operator DAG and its
        # NumPy adjacency reproduce every feature byte for byte.
        features = TaskPool(size, rng=0).features()
        assert hashlib.sha256(features.tobytes()).hexdigest() == digest

    def test_pool_determinism(self):
        p1, p2 = TaskPool(8, rng=5), TaskPool(8, rng=5)
        np.testing.assert_allclose(p1.features(), p2.features())
