"""Balance-aware embeddings for signed networks.

The package splits into a data layer (:mod:`sgcn.graph`), balance-theory
primitives (:mod:`sgcn.balance`), the spectral baseline
(:mod:`sgcn.spectral`), the two-track convolution model (:mod:`sgcn.model`),
its training loop (:mod:`sgcn.training`), and the link-sign prediction
harness (:mod:`sgcn.evaluation`). The most common entry points are
re-exported here.
"""

from .balance import PathClass, ReachSets, classify_triangle, path_class, reach_sets, triangle_census
from .evaluation import EvalReport, auc, build_pairs, f1, fit_logreg, run_experiment
from .graph import (
    EdgeSplit,
    SignedEdge,
    SignedGraph,
    load_edge_list,
    split_train_test,
    to_undirected,
)
from .model import SgcnConfig, SgcnParams, embed_all, init_params
from .spectral import signed_laplacian, spectral_embedding
from .training import FitResult, MlgParams, TrainConfig, fit, sample_batch

__all__ = [
    "PathClass",
    "ReachSets",
    "classify_triangle",
    "path_class",
    "reach_sets",
    "triangle_census",
    "EvalReport",
    "auc",
    "build_pairs",
    "f1",
    "fit_logreg",
    "run_experiment",
    "EdgeSplit",
    "SignedEdge",
    "SignedGraph",
    "load_edge_list",
    "split_train_test",
    "to_undirected",
    "SgcnConfig",
    "SgcnParams",
    "embed_all",
    "init_params",
    "signed_laplacian",
    "spectral_embedding",
    "FitResult",
    "MlgParams",
    "TrainConfig",
    "fit",
    "sample_batch",
]

__version__ = "0.1.0"
