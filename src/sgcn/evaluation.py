"""Link-sign prediction harness.

Held-out edges are scored by a binary logistic regression over the
concatenated endpoint embeddings, fit on the training edges only, without
building those concatenated rows. Quality is summarized by AUC (probability
a random positive test edge outranks a random negative one, ties counted
half) and by F1 of the positive-link class at a fixed 0.5 threshold.
:func:`run_experiment` wires the whole protocol together on a graph the
caller has built, typically with ``to_undirected(load_edge_list(path,
format))``: split, embed from the train side only, fit, score. The CLI's
``train`` runs the same steps through its helpers, and its ``eval`` scores
the embeddings ``train`` stored on the same split.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .graph import EdgeSplit, SignedGraph, _signed_rows, split_train_test
from .model import SgcnConfig
from .spectral import spectral_embedding
from .training import _TRAIN_DTYPE, TrainConfig, _one_blas_thread, fit

__all__ = [
    "LogisticModel",
    "EvalReport",
    "DegenerateDataError",
    "UndefinedMetricError",
    "METHODS",
    "build_pairs",
    "fit_logreg",
    "auc",
    "f1",
    "score_embeddings",
    "run_experiment",
    "split_and_features",
    "model_input",
]

# Layer count and variant of each two-track method; METHODS adds the spectral baseline.
_MODELS = {"sgcn-1": (1, "standard"), "sgcn-1+": (2, "plus"), "sgcn-2": (2, "standard")}
METHODS = ("sse", *_MODELS)

# The protocol's defaults, which run_experiment and the CLI share: the
# spectral feature width, and the held-out share of the edges, 20% as in
# Derr et al. (section V).
DEFAULT_DIM = 64
DEFAULT_TEST_FRACTION = 0.2

# Probability above which the probe predicts a positive link, for F1.
_THRESHOLD = 0.5
# The probe's L2 penalty and its cap on Newton steps, see fit_logreg.
_L2, _MAX_ITER = 1.0, 500

# glibc's malloc_trim, which hands freed heap pages back to the OS; None on
# a C library without it.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


class DegenerateDataError(ValueError):
    """Classifier input that cannot be fit, e.g. a single class."""


class UndefinedMetricError(ValueError):
    """Metric undefined for the given labels, e.g. AUC without both classes."""


@dataclass(frozen=True)
class LogisticModel:
    """The probe: pair ``(u, v)`` scores ``z_u @ w_u + z_v @ w_v + intercept``, and its sigmoid."""

    weights: np.ndarray  # [w_u, w_v]
    intercept: float
    steps: int = 0  # the Newton steps of the fit

    def decision(self, z: np.ndarray, ends: np.ndarray) -> np.ndarray:
        node = z @ self.weights.reshape(2, -1).T  # each node's score as lower and as higher end
        return node[ends[:, 0], 0] + node[ends[:, 1], 1] + self.intercept

    def predict_proba(self, z: np.ndarray, ends: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.decision(z, ends)))


@dataclass(frozen=True)
class EvalReport:
    """Held-out scores: AUC, and F1 of the probe's predictions at ``_THRESHOLD``."""

    auc: float
    f1: float
    n_test_pos: int
    n_test_neg: int


def build_pairs(z: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """``(ends, labels)`` per ``(u, v, sign)``: the ids into ``z``, lower first; 1 if positive.

    ``edges`` is read as :func:`~sgcn.graph.to_undirected` reads its records.
    """
    edges = _signed_rows(edges, "edge")
    ends = np.sort(edges[:, :2], axis=1)
    unknown = np.flatnonzero((ends[:, 0] < 0) | (ends[:, 1] >= z.shape[0]))
    if len(unknown):
        u, v, _ = edges[unknown[0]]
        raise ValueError(f"edge ({u}, {v}) references unknown node")
    return ends, (edges[:, 2] > 0).astype(np.intp)


@_one_blas_thread()
def fit_logreg(z: np.ndarray, ends: np.ndarray, labels) -> LogisticModel:
    """Newton's method on the L2-regularized logistic loss of pair features ``[z_u, z_v]``.

    Gradient and Hessian are products of ``z`` with per-node sums over the
    pairs; no pair's features are built. The penalty is ``_L2 * ||w||^2 / m``
    (intercept unpenalized). Stops at a gradient sup-norm of 1e-6 or after
    ``_MAX_ITER`` steps; fully deterministic. Requires both classes. Like
    :func:`~sgcn.training.fit`, it runs numpy's OpenBLAS at one thread, so
    its weights do not depend on the thread count where that BLAS is found.
    """
    y = labels.astype(np.float64)
    if y.min() == y.max():
        raise DegenerateDataError("training pairs contain a single class")
    (n, d), m = z.shape, len(y)
    u, v = ends.T
    beta = np.zeros(2 * d + 1)  # [w_u, w_v, intercept]

    def node_sums(w):  # (n, 2): w summed over each node's pairs as lower and as higher end
        return np.column_stack([np.bincount(u, w, n), np.bincount(v, w, n)])

    def model(b, steps=0):
        return LogisticModel(weights=b[:-1], intercept=float(b[-1]), steps=steps)

    def objective(b):
        margins = model(b).decision(z, ends)
        nll = np.mean(np.logaddexp(0.0, margins) - y * margins)
        return nll + _L2 * np.dot(b[:-1], b[:-1]) / m

    obj, steps = objective(beta), 0
    for _ in range(_MAX_ITER):
        p = model(beta).predict_proba(z, ends)
        residual = p - y
        grad = np.empty(2 * d + 1)
        grad[:-1] = (z.T @ node_sums(residual)).T.ravel() / m + 2.0 * _L2 * beta[:-1] / m
        grad[-1] = residual.mean()
        if np.abs(grad).max() <= 1e-6:
            break
        s = p * (1.0 - p)
        # Per-node curvature sums, and the pairs' curvatures as an n x n matrix (repeats sum).
        a = node_sums(s)
        cross = z.T @ (scipy.sparse.csr_matrix((s, (u, v)), shape=(n, n)) @ z)
        hess = np.empty((2 * d + 1, 2 * d + 1))
        hess[:-1, :-1] = np.block([[z.T @ (a[:, :1] * z), cross],
                                   [cross.T, z.T @ (a[:, 1:] * z)]]) / m
        hess[:-1, :-1][np.diag_indices(2 * d)] += 2.0 * _L2 / m
        hess[:, -1] = hess[-1] = np.append((z.T @ a).T.ravel(), s.sum()) / m
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
                beta, obj, steps = candidate, new_obj, steps + 1
                break
            t *= 0.5
        else:
            break
    return model(beta, steps)


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
    """Fit the logistic probe on the train edges and score the held-out ones.

    The probe runs in float64 on an exact copy of float32 embeddings, and
    reads both edge sets as endpoint ids into it.
    """
    z = np.asarray(z, dtype=np.float64)
    model = fit_logreg(z, *build_pairs(z, split.train.edge_array()))
    ends, labels = build_pairs(z, split.test)
    probs = model.predict_proba(z, ends)
    return EvalReport(
        auc=auc(probs, labels),
        f1=f1((probs >= _THRESHOLD).astype(int), labels),
        n_test_pos=int(labels.sum()),
        n_test_neg=int((labels == 0).sum()),
    )


def run_experiment(
    graph: SignedGraph,
    method: str,
    seed: int,
    *,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    embedding_dim: int = DEFAULT_DIM,
    hidden_dim: int = SgcnConfig.d_hidden,
    train_cfg: TrainConfig | None = None,
    feature_cache: dict | None = None,
) -> EvalReport:
    """One full link-sign prediction run on ``graph``, leak-free by construction.

    The held-out test edges never touch feature construction, embedding
    training, or the classifier; the split and every downstream stage are
    deterministic in ``seed``. ``method`` is one of ``sse``, ``sgcn-1``,
    ``sgcn-1+``, ``sgcn-2``.

    ``feature_cache`` is passed to :func:`split_and_features`; it spares
    several methods sharing a seed the recomputation of the features.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    split, x = split_and_features(graph, test_fraction, seed, embedding_dim, feature_cache)
    if method == "sse":
        z = x
    else:
        sgcn_cfg = sgcn_config_for(method, d_in=x.shape[1], d_hidden=hidden_dim)
        cfg = train_cfg if train_cfg is not None else TrainConfig(seed=seed)
        z = fit(split.train, model_input(x), cfg, sgcn_cfg).embeddings
        # Training leaves freed scratch arrays on the C heap. Unreturned,
        # the float64 copy below and the probe's arrays reuse that space or
        # not, depending on how it fragmented. Over seeds 1-20 of the
        # benchmark's alpha-sgcn2 workload, trimming here rather than after
        # the copy lowers the median peak RSS from 78.43 to 78.32 MB.
        if _malloc_trim is not None:
            _malloc_trim(0)
        # The probe reads an exact float64 copy of the float32 embeddings.
        z = z.astype(np.float64)
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
    start the layers in their design regime. The result is in float32, the
    precision :func:`~sgcn.training.fit` runs its passes in, so ``fit``
    uses it without a copy: each entry is the product taken in the
    precision of ``x`` and ``sqrt(n)``, rounded once to float32. No
    full-size array of that precision outlives the call.
    """
    return (x * np.sqrt(x.shape[0])).astype(_TRAIN_DTYPE)


def sgcn_config_for(method: str, d_in: int, d_hidden: int) -> SgcnConfig:
    """Model shape implied by a method name, from ``_MODELS``."""
    if method not in _MODELS:
        raise ValueError(f"method {method!r} does not use the two-track model")
    layers, variant = _MODELS[method]
    return SgcnConfig(d_in=d_in, d_hidden=d_hidden, layers=layers, variant=variant)
