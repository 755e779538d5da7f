"""Link-sign prediction harness.

Held-out edges are scored by a binary logistic regression over the
concatenated endpoint embeddings, fit on the training edges only. Quality
is summarized by AUC (probability a random positive test edge outranks a
random negative one, ties counted half) and by F1 of the positive-link
class at a fixed 0.5 threshold. :func:`run_experiment` wires the whole
protocol together: ingest, split, embed from the train side only, fit,
score. The CLI's ``train`` and ``eval`` run the same steps through its helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    EdgeSplit,
    SignedGraph,
    load_edge_list,
    split_train_test,
    to_undirected,
)
from .model import SgcnConfig
from .spectral import spectral_embedding
from .training import TrainConfig, fit

__all__ = [
    "PairDataset",
    "LogisticModel",
    "EvalReport",
    "DegenerateDataError",
    "UndefinedMetricError",
    "METHODS",
    "MODEL_METHODS",
    "build_pairs",
    "fit_logreg",
    "auc",
    "f1",
    "score_embeddings",
    "run_experiment",
    "split_and_features",
    "model_input",
]

# The methods that train the two-track model, and every method the
# protocol runs: those and the spectral baseline.
MODEL_METHODS = ("sgcn-1", "sgcn-1+", "sgcn-2")
METHODS = ("sse", *MODEL_METHODS)

# The protocol's defaults, which run_experiment and the CLI share: the
# edge-list format of the bundled data, the spectral feature width, and
# the held-out share of the edges, 20% as in Derr et al. (section V).
DEFAULT_FORMAT = "weighted-csv"
DEFAULT_DIM = 64
DEFAULT_TEST_FRACTION = 0.2

# Probability above which the probe predicts a positive link, for F1.
_THRESHOLD = 0.5
# The probe's L2 penalty and its cap on Newton steps, see fit_logreg.
_L2, _MAX_ITER = 1.0, 500


class DegenerateDataError(ValueError):
    """Classifier input that cannot be fit, e.g. a single class."""


class UndefinedMetricError(ValueError):
    """Metric undefined for the given labels, e.g. AUC without both classes."""


@dataclass(frozen=True)
class PairDataset:
    """Edge-level features and labels: row = [z_u, z_v], label 1=positive link."""

    features: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    intercept: float

    def decision(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.intercept

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.decision(features)))


@dataclass(frozen=True)
class EvalReport:
    """Held-out scores: AUC, and F1 of the probe's predictions at ``_THRESHOLD``."""

    auc: float
    f1: float
    n_test_pos: int
    n_test_neg: int


def build_pairs(z: np.ndarray, edges) -> PairDataset:
    """Concatenate endpoint embeddings per ``(u, v, sign)`` row, oriented (min id, max id)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    ends = np.sort(edges[:, :2], axis=1)
    unknown = np.flatnonzero((ends[:, 0] < 0) | (ends[:, 1] >= z.shape[0]))
    if len(unknown):
        u, v, _ = edges[unknown[0]]
        raise ValueError(f"edge ({u}, {v}) references unknown node")
    features = z[ends].reshape(len(ends), 2 * z.shape[1])  # one copy, no concatenation
    labels = (edges[:, 2] > 0).astype(np.intp)
    return PairDataset(features=features, labels=labels)


def fit_logreg(train: PairDataset) -> LogisticModel:
    """Newton's method on the L2-regularized logistic loss.

    The penalty enters as ``_L2 * ||w||^2 / m`` (intercept unpenalized).
    Iterates until the gradient sup-norm drops below 1e-6 or ``_MAX_ITER``
    steps; fully deterministic. Requires both classes in the labels.
    """
    y = train.labels.astype(np.float64)
    if y.min() == y.max():
        raise DegenerateDataError("training pairs contain a single class")
    x = train.features
    m, d = x.shape
    beta = np.zeros(d + 1)  # [w, intercept]

    def decision(b):
        return x @ b[:d] + b[d]

    def objective(b):
        margins = decision(b)
        nll = np.mean(np.logaddexp(0.0, margins) - y * margins)
        return nll + _L2 * np.dot(b[:d], b[:d]) / m

    obj = objective(beta)
    for _ in range(_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-decision(beta)))
        residual = p - y
        grad = np.empty(d + 1)
        grad[:d] = x.T @ residual / m + 2.0 * _L2 * beta[:d] / m
        grad[d] = residual.mean()
        if np.abs(grad).max() <= 1e-6:
            break
        s = p * (1.0 - p)
        xs = x * s[:, None]
        hess = np.empty((d + 1, d + 1))
        hess[:d, :d] = x.T @ xs / m
        hess[:d, :d][np.diag_indices(d)] += 2.0 * _L2 / m
        hess[:d, d] = hess[d, :d] = xs.sum(axis=0) / m
        hess[d, d] = s.sum() / m
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
        # Backtrack if a full Newton step overshoots (near-separable data).
        t = 1.0
        for _ in range(30):
            candidate = beta - t * step
            new_obj = objective(candidate)
            if new_obj <= obj:
                beta, obj = candidate, new_obj
                break
            t *= 0.5
        else:
            break
    return LogisticModel(weights=beta[:d], intercept=float(beta[d]))


def auc(scores, labels) -> float:
    """Exact rank-based AUC: P(pos scores above neg) + half the tie mass."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both a positive and a negative example")
    # 1-based ranks; tied scores share the mean of the ranks they span.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1(predictions, labels) -> float:
    """Harmonic mean of precision and recall for the positive-link class 1; 0 if empty."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) == 0 or len(predictions) != len(labels):
        raise ValueError("predictions and labels must be same nonzero length")
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels != 1)))
    fn = int(np.sum((predictions != 1) & (labels == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def score_embeddings(z: np.ndarray, split: EdgeSplit) -> EvalReport:
    """Fit the logistic probe on the train edges and score the held-out ones."""
    train_pairs = build_pairs(z, split.train.edge_array())
    test_pairs = build_pairs(z, split.test)
    model = fit_logreg(train_pairs)
    probs = model.predict_proba(test_pairs.features)
    n_test_pos = int(test_pairs.labels.sum())
    return EvalReport(
        auc=auc(probs, test_pairs.labels),
        f1=f1((probs >= _THRESHOLD).astype(int), test_pairs.labels),
        n_test_pos=n_test_pos,
        n_test_neg=len(test_pairs.labels) - n_test_pos,
    )


def run_experiment(
    source,
    method: str,
    seed: int,
    *,
    format: str = DEFAULT_FORMAT,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    embedding_dim: int = DEFAULT_DIM,
    hidden_dim: int = SgcnConfig.d_hidden,
    train_cfg: TrainConfig | None = None,
    feature_cache: dict | None = None,
) -> EvalReport:
    """One full link-sign prediction run, leak-free by construction.

    ``source`` is an edge-list path (parsed per ``format``) or an
    already-built :class:`SignedGraph`. The held-out test edges never touch
    feature construction, embedding training, or the classifier; the split
    and every downstream stage are deterministic in ``seed``. ``method`` is
    one of ``sse``, ``sgcn-1``, ``sgcn-1+``, ``sgcn-2``.

    ``feature_cache`` is passed to :func:`split_and_features`; it spares
    several methods sharing a seed the recomputation of the features.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if isinstance(source, SignedGraph):
        graph = source
    else:
        graph = to_undirected(load_edge_list(source, format))

    split, x = split_and_features(graph, test_fraction, seed, embedding_dim, feature_cache)
    if method == "sse":
        z = x
    else:
        sgcn_cfg = sgcn_config_for(method, d_in=x.shape[1], d_hidden=hidden_dim)
        cfg = train_cfg if train_cfg is not None else TrainConfig(seed=seed)
        z = fit(split.train, model_input(x), cfg, sgcn_cfg).embeddings
    return score_embeddings(z, split)


def feature_dim(graph: SignedGraph, dim: int) -> int:
    """The spectral feature width for a requested ``dim``: at most one column per node."""
    return min(dim, graph.n)


def split_and_features(
    graph: SignedGraph, test_fraction: float, seed: int, dim: int, feature_cache: dict | None = None
) -> tuple[EdgeSplit, np.ndarray]:
    """The held-out split and the unit-norm spectral features of its train side.

    ``feature_cache`` (a dict scoped to one graph) memoizes both per
    ``(seed, test_fraction, feature_dim(graph, dim))``.
    """
    dim = feature_dim(graph, dim)
    cache_key = (seed, test_fraction, dim)
    if feature_cache is not None and cache_key in feature_cache:
        return feature_cache[cache_key]
    split = split_train_test(graph, test_fraction, seed)
    x = spectral_embedding(split.train, dim)
    if feature_cache is not None:
        feature_cache[cache_key] = (split, x)
    return split, x


def model_input(x: np.ndarray) -> np.ndarray:
    """Spectral features rescaled to unit RMS, the two-track model's input.

    Unit-norm eigenvector columns have O(1/sqrt(n)) entries; rescaled, they
    start the layers in their design regime.
    """
    return x * np.sqrt(x.shape[0])


def sgcn_config_for(method: str, d_in: int, d_hidden: int) -> SgcnConfig:
    """Model shape implied by a method name."""
    if method == "sgcn-1":
        return SgcnConfig(d_in=d_in, d_hidden=d_hidden, layers=1)
    if method == "sgcn-1+":
        return SgcnConfig(d_in=d_in, d_hidden=d_hidden, layers=2, variant="plus")
    if method == "sgcn-2":
        return SgcnConfig(d_in=d_in, d_hidden=d_hidden, layers=2)
    raise ValueError(f"method {method!r} does not use the two-track model")
