"""Operator-graph construction for model specs.

The paper cites graph-based task embeddings (BRP-NAS, Liang et al.) and
"used a Graph Neural Network to transform these deep learning tasks into
features".  This module builds the computational graph a GNN would consume:
an :class:`OpGraph` whose nodes are operators annotated with FLOPs,
parameter counts and output memory, and whose edges are data dependencies.
Every builder numbers nodes in topological order, so "each edge goes from a
lower id to a higher one" is the graph's own invariant and makes it a DAG.

Topologies per family:

- **conv**: a chain of stages with residual skip connections every other
  block (ResNet motif) ending in pool + classifier;
- **transformer**: per-layer attention → add&norm → FFN → add&norm blocks
  with residual edges;
- **rnn**: stacked recurrent cells (unrolled logically, one node per layer)
  plus embedding/projection;
- **mlp**: a simple linear chain.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.specs import Family, ModelSpec

__all__ = ["OP_TYPES", "OpGraph", "build_graph"]

#: Operator vocabulary — index order defines the one-hot layout used by the
#: feature embedding, so it must stay stable.
OP_TYPES: tuple[str, ...] = (
    "input",
    "conv",
    "bn",
    "relu",
    "pool",
    "add",
    "attention",
    "layernorm",
    "ffn",
    "rnn_cell",
    "embedding",
    "linear",
    "softmax",
    "output",
)

_OP_INDEX = {name: i for i, name in enumerate(OP_TYPES)}


class OpGraph:
    """A small operator DAG.

    ``nodes`` maps node id to its attribute dict in insertion order;
    ``edges`` lists ``(src, dst)`` pairs, each from a lower id to a higher
    one (so no cycle can form).
    """

    def __init__(self) -> None:
        self.nodes: "dict[int, dict[str, object]]" = {}
        self.edges: "list[tuple[int, int]]" = []

    def add_node(self, idx: int, **attrs: object) -> None:
        if idx in self.nodes:
            raise ValueError(f"node {idx} already exists")
        self.nodes[idx] = attrs

    def add_edge(self, src: int, dst: int) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError(f"edge ({src}, {dst}) names a missing node")
        if src >= dst:
            raise ValueError(f"edge ({src}, {dst}) must go from a lower id to a higher one")
        self.edges.append((src, dst))

    def adjacency(self) -> np.ndarray:
        """Directed 0/1 adjacency matrix, rows and columns in node order."""
        row = {idx: i for i, idx in enumerate(self.nodes)}
        adj = np.zeros((len(row), len(row)))
        for src, dst in self.edges:
            adj[row[src], row[dst]] = 1.0
        return adj


def _node(
    g: OpGraph,
    idx: int,
    op: str,
    *,
    flops: float = 0.0,
    params: float = 0.0,
    mem: float = 0.0,
) -> int:
    if op not in _OP_INDEX:
        raise ValueError(f"unknown op type {op!r}")
    g.add_node(idx, op=op, flops=float(flops), params=float(params), mem=float(mem))
    return idx


def build_graph(spec: ModelSpec) -> OpGraph:
    """Build the operator graph for ``spec``.

    Node FLOPs sum (approximately) to ``spec.flops_per_sample`` and node
    params to ``spec.params`` so graph-level readouts are consistent with
    the scalar workload attributes.
    """
    builders = {
        Family.CONV: _build_conv,
        Family.TRANSFORMER: _build_transformer,
        Family.RNN: _build_rnn,
        Family.MLP: _build_mlp,
    }
    return builders[spec.family](spec)


def _build_conv(spec: ModelSpec) -> OpGraph:
    g = OpGraph()
    per_block_flops = spec.flops_per_sample / max(spec.depth, 1)
    per_block_params = spec.params / max(spec.depth, 1)
    act_mem = spec.activation_mem_gb / max(spec.depth, 1)

    i = _node(g, 0, "input")
    prev = i
    skip_src = i
    next_id = 1
    for block in range(spec.depth):
        conv = _node(g, next_id, "conv", flops=per_block_flops * 0.94,
                     params=per_block_params, mem=act_mem)
        g.add_edge(prev, conv)
        bn = _node(g, next_id + 1, "bn", flops=per_block_flops * 0.03, mem=act_mem)
        g.add_edge(conv, bn)
        act = _node(g, next_id + 2, "relu", flops=per_block_flops * 0.03, mem=act_mem)
        g.add_edge(bn, act)
        next_id += 3
        prev = act
        if block % 2 == 1:  # residual join every second block
            add = _node(g, next_id, "add", mem=act_mem)
            g.add_edge(prev, add)
            g.add_edge(skip_src, add)
            next_id += 1
            prev = add
            skip_src = add
    pool = _node(g, next_id, "pool", flops=spec.flops_per_sample * 1e-4)
    g.add_edge(prev, pool)
    fc = _node(g, next_id + 1, "linear", flops=2.0 * spec.width * 10,
               params=spec.width * 10)
    g.add_edge(pool, fc)
    out = _node(g, next_id + 2, "output")
    g.add_edge(fc, out)
    return g


def _build_transformer(spec: ModelSpec) -> OpGraph:
    g = OpGraph()
    d = max(spec.depth, 1)
    attn_flops = 2.0 * spec.depth * 2.0 * (spec.seq_length**2) * spec.width / d
    ffn_flops = 2.0 * spec.depth * 4.0 * spec.seq_length * spec.width**2 / d
    layer_params = spec.params / d
    act_mem = spec.activation_mem_gb / d

    i = _node(g, 0, "input")
    emb = _node(g, 1, "embedding", flops=spec.flops_per_sample * 0.005,
                params=spec.params * 0.02)
    g.add_edge(i, emb)
    prev = emb
    next_id = 2
    for _ in range(spec.depth):
        attn = _node(g, next_id, "attention", flops=attn_flops,
                     params=layer_params / 3.0, mem=act_mem / 2)
        g.add_edge(prev, attn)
        add1 = _node(g, next_id + 1, "add", mem=act_mem / 4)
        g.add_edge(attn, add1)
        g.add_edge(prev, add1)  # residual
        ln1 = _node(g, next_id + 2, "layernorm", flops=attn_flops * 0.01)
        g.add_edge(add1, ln1)
        ffn = _node(g, next_id + 3, "ffn", flops=ffn_flops,
                    params=layer_params * 2.0 / 3.0, mem=act_mem / 2)
        g.add_edge(ln1, ffn)
        add2 = _node(g, next_id + 4, "add", mem=act_mem / 4)
        g.add_edge(ffn, add2)
        g.add_edge(ln1, add2)  # residual
        ln2 = _node(g, next_id + 5, "layernorm", flops=ffn_flops * 0.01)
        g.add_edge(add2, ln2)
        next_id += 6
        prev = ln2
    proj = _node(g, next_id, "linear", flops=spec.flops_per_sample * 0.01,
                 params=spec.params * 0.02)
    g.add_edge(prev, proj)
    sm = _node(g, next_id + 1, "softmax", flops=spec.flops_per_sample * 1e-4)
    g.add_edge(proj, sm)
    out = _node(g, next_id + 2, "output")
    g.add_edge(sm, out)
    return g


def _build_rnn(spec: ModelSpec) -> OpGraph:
    g = OpGraph()
    d = max(spec.depth, 1)
    per_layer_flops = spec.flops_per_sample / d
    per_layer_params = spec.params / d
    act_mem = spec.activation_mem_gb / d

    i = _node(g, 0, "input")
    emb = _node(g, 1, "embedding", flops=spec.flops_per_sample * 0.005,
                params=spec.params * 0.02)
    g.add_edge(i, emb)
    prev = emb
    next_id = 2
    for _ in range(spec.depth):
        cell = _node(g, next_id, "rnn_cell", flops=per_layer_flops,
                     params=per_layer_params, mem=act_mem)
        g.add_edge(prev, cell)
        next_id += 1
        prev = cell
    proj = _node(g, next_id, "linear", flops=spec.flops_per_sample * 0.01,
                 params=spec.params * 0.02)
    g.add_edge(prev, proj)
    out = _node(g, next_id + 1, "output")
    g.add_edge(proj, out)
    return g


def _build_mlp(spec: ModelSpec) -> OpGraph:
    g = OpGraph()
    d = max(spec.depth, 1)
    per_layer_flops = spec.flops_per_sample / d
    per_layer_params = spec.params / d

    i = _node(g, 0, "input")
    prev = i
    next_id = 1
    for layer in range(spec.depth):
        lin = _node(g, next_id, "linear", flops=per_layer_flops,
                    params=per_layer_params, mem=spec.activation_mem_gb / d)
        g.add_edge(prev, lin)
        next_id += 1
        prev = lin
        if layer < spec.depth - 1:
            act = _node(g, next_id, "relu", flops=per_layer_flops * 0.01)
            g.add_edge(prev, act)
            next_id += 1
            prev = act
    out = _node(g, next_id, "output")
    g.add_edge(prev, out)
    return g


def node_feature_matrix(g: OpGraph) -> np.ndarray:
    """Per-node features: one-hot op type ⊕ log1p(flops, params, mem).

    Rows follow the graph's node insertion order (stable for our builders).
    Shape: (num_nodes, len(OP_TYPES) + 3).
    """
    feats = np.zeros((len(g.nodes), len(OP_TYPES) + 3))
    for row, data in enumerate(g.nodes.values()):
        feats[row, _OP_INDEX[data["op"]]] = 1.0
        feats[row, len(OP_TYPES) + 0] = np.log1p(data["flops"])
        feats[row, len(OP_TYPES) + 1] = np.log1p(data["params"])
        feats[row, len(OP_TYPES) + 2] = np.log1p(data["mem"] * 1e9)
    return feats
