"""Workload substrate: DL task specs, operator graphs, embeddings, pools.

Substitutes the paper's proprietary Xirang workload traces with a
parametric generator of CV/NLP-style training jobs; see DESIGN.md §2.
"""

from repro.workloads.embedding import DEFAULT_FEATURE_DIM, GraphEmbedder
from repro.workloads.graphs import OP_TYPES, build_graph
from repro.workloads.io import Trace, export_trace, load_trace, trace_to_datasets
from repro.workloads.specs import FAMILY_LIST, Family, ModelSpec, sample_spec, sample_specs
from repro.workloads.taskpool import Task, TaskPool

__all__ = [
    "Family",
    "FAMILY_LIST",
    "ModelSpec",
    "sample_spec",
    "sample_specs",
    "OP_TYPES",
    "build_graph",
    "GraphEmbedder",
    "DEFAULT_FEATURE_DIM",
    "Task",
    "TaskPool",
    "Trace",
    "export_trace",
    "load_trace",
    "trace_to_datasets",
]
