"""Objective, pair sampling, hand-derived gradients, and Adam training.

The objective has three pieces: a class-weighted 3-way softmax classifier
deciding whether a node pair is positively linked, negatively linked, or
unlinked; a pair of hinge terms pulling positively linked nodes closer than
unlinked ones and pushing negatively linked nodes farther than unlinked
ones; and an L2 penalty on all weights. One pass over a batch gives the
three values and the gradient together, whatever the terms' weights: the
gradient is computed in closed form by reverse mode from the same logits
and hinge slack, down to the last layer's states here, one array per
track, and then through the layers by :func:`sgcn.model.backward_pass`,
with the hinge subgradient taken as zero exactly at the kink. A hinge's
slack is a difference of squared distances, a quadratic form in the
embedding, so the gradient at the embedding is two sparse products: the
classifier's per-node sums through its weights, and one sparse symmetric
matrix of the active hinges times the embedding. A zero weight is not a
skipped term: it scales the term's value and gradient to exact zeros.

Training steps with Adam (Kingma & Ba, arXiv:1412.6980). The hinge terms
carry no margin constant, so they scale with the square of the embedding
scale and start more than an order of magnitude above the classifier term;
a plain gradient step lets them set the step size, and the run is spent
shrinking the embeddings instead of separating the classes. Adam's
per-coordinate normalization keeps every step near the learning rate,
whatever the gradient's scale.

Training is mixed-precision (Micikevicius et al., arXiv:1710.03740): each
epoch's forward pass, objective and backward pass run in float32, on the
features and neighbor-mean operators cast once, while the layer weights,
the pair classifier and Adam's moments stay float64 master copies. Each
pass reads the weights cast to float32, and the weight gradients come back
as float64 for the Adam step. The objective, like the passes of
:mod:`sgcn.model`, computes in the dtype of the embedding it is given, so
a float64 call is float64 arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .graph import SignedGraph
from .model import (
    LayerState,
    SgcnConfig,
    SgcnParams,
    backward_pass,
    forward_pass,
    init_params,
    neighbor_mean_ops,
)

__all__ = [
    "TrainConfig",
    "MlgParams",
    "TrainBatch",
    "LossParts",
    "FitResult",
    "SamplingError",
    "DivergenceError",
    "sample_batch",
    "loss_parts",
    "fit",
]

# Class index of a pair label s in {+1, -1, 0}: positive link 0, negative
# link 1, no link 2. Indexed by s itself, so s = -1 reads the last entry.
_CLASS_OF_SIGN = np.array([2, 0, 1], dtype=np.intp)

# Adam's moment decay rates and denominator guard, as in Kingma & Ba.
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8

# The precision of fit's per-node passes; its master weights are float64.
_TRAIN_DTYPE = np.float32


class SamplingError(RuntimeError):
    """Could not assemble a batch, e.g. no unlinked partners exist."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, or a weight past the passes' precision."""

    def __init__(self, epoch: int, what: str):
        super().__init__(f"{what} at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.

    ``margin_weight`` scales the two hinge terms against the classifier
    term; ``pairs_per_class`` caps how many pairs of each label one anchor
    contributes to a batch. ``learning_rate`` is Adam's step size. The pair
    classifier's per-class bias is always trained. ``margin_weight``,
    ``reg_coeff`` and ``learning_rate`` must be finite, so a bad setting is
    refused here rather than read as divergence later. The training flags of
    ``sgcn train`` and ``sgcn sweep-lambda`` take their defaults from these
    fields.
    """

    margin_weight: float = 5.0
    reg_coeff: float = 1e-4
    learning_rate: float = 0.01
    batch_nodes: int = 500
    pairs_per_class: int = 5
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("margin_weight", "reg_coeff", "learning_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.margin_weight < 0 or self.reg_coeff < 0:
            raise ValueError("margin_weight and reg_coeff must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_nodes < 1 or self.pairs_per_class < 1 or self.epochs < 0:
            raise ValueError("batch_nodes, pairs_per_class >= 1 and epochs >= 0")


@dataclass
class MlgParams:
    """Pair-classifier parameters: one weight row and bias per class.

    Rows follow the class order (positive, negative, none); each row acts on
    the concatenation of the two node embeddings.
    """

    theta: np.ndarray
    bias: np.ndarray

    @staticmethod
    def zeros(embedding_dim: int) -> "MlgParams":
        return MlgParams(
            theta=np.zeros((3, 2 * embedding_dim)), bias=np.zeros(3)
        )


@dataclass(frozen=True, eq=False)
class TrainBatch:
    """One sampled batch, as ``(rows, 3)`` integer arrays.

    ``pairs`` rows are ``(i, j, s)`` with ``s`` in {+1, -1, 0}; the triplet
    rows are ``(i, j, k)`` where ``j`` is a linked neighbor of ``i`` of
    the respective sign and ``k`` has no train edge to ``i``.
    ``class_weights`` maps each label present in the batch to its
    inverse-frequency weight.
    """

    pairs: np.ndarray
    pos_triplets: np.ndarray
    neg_triplets: np.ndarray
    class_weights: dict[int, float]


@dataclass(frozen=True)
class LossParts:
    classifier: float
    margin: float
    regularizer: float

    @property
    def total(self) -> float:
        return self.classifier + self.margin + self.regularizer


@dataclass
class FitResult:
    """The float64 master weights, the float32 final embeddings and the loss history."""

    params: SgcnParams
    mlg: MlgParams
    embeddings: np.ndarray
    history: list[LossParts]


def sample_batch(train: SignedGraph, cfg: TrainConfig, epoch: int) -> TrainBatch:
    """Draw anchors and per-anchor pairs; deterministic for (seed, epoch).

    Each anchor contributes up to ``pairs_per_class`` positive, negative,
    and no-link pairs; every linked pair additionally gets a fresh unlinked
    partner for the hinge terms. Class weights are set to
    ``total / (3 * count)`` so rarer labels weigh more.

    The draws are made for all anchors at once: the anchors, then one random
    key per neighbor entry (the lowest keys of each anchor and sign are
    kept), then the unlinked partners, redrawn where they hit the anchor or
    one of its neighbors. This is the structured negative sampling of
    PyTorch Geometric's ``SignedGCN``.
    """
    n = train.n
    if n < 2:
        raise SamplingError("graph too small to sample pairs from")
    rng = np.random.default_rng([cfg.seed % 2**32, epoch % 2**32])
    anchors = rng.choice(n, size=min(cfg.batch_nodes, n), replace=False)

    # Every adjacency entry of every anchor, grouped by anchor.
    adj = train.adj
    degrees = np.diff(adj.indptr)[anchors]
    slot = np.repeat(np.arange(len(anchors)), degrees)
    first = np.cumsum(degrees) - degrees
    entry = np.arange(len(slot)) + np.repeat(adj.indptr[anchors] - first, degrees)
    owner, nbr = anchors[slot], adj.indices[entry]
    sign = adj.data[entry].astype(np.intp)
    # Within each (anchor, sign) group, keep the pairs_per_class lowest keys.
    order = np.lexsort((rng.random(len(entry)), -sign, slot))
    group = 2 * slot[order] + (sign[order] < 0)
    rank = np.arange(len(order)) - np.searchsorted(group, group)
    kept = order[rank < cfg.pairs_per_class]

    i, j, s_ij = owner[kept], nbr[kept], sign[kept]
    # One unlinked partner per kept linked pair, then pairs_per_class no-link
    # pairs per anchor.
    i_none = np.repeat(anchors, cfg.pairs_per_class)
    partners = _draw_unlinked(adj, np.concatenate([i, i_none]), rng)
    k, j_none = partners[: len(i)], partners[len(i) :]
    triplets = np.column_stack([i, j, k])
    pairs = np.vstack([
        np.column_stack([i, j, s_ij]),
        np.column_stack([i_none, j_none, np.zeros_like(j_none)]),
    ])
    pairs, pos_triplets, neg_triplets = (
        rows.astype(np.intp, copy=False)
        for rows in (pairs, triplets[s_ij > 0], triplets[s_ij < 0])
    )
    signs, counts = np.unique(pairs[:, 2], return_counts=True)
    weights = {int(s): len(pairs) / (3.0 * int(c)) for s, c in zip(signs, counts)}
    return TrainBatch(pairs, pos_triplets, neg_triplets, class_weights=weights)


def _draw_unlinked(adj: scipy.sparse.csr_matrix, anchors: np.ndarray, rng) -> np.ndarray:
    """One uniform partner per entry of ``anchors``, never the anchor or linked to it.

    Rejected partners are redrawn, up to 200 draws per entry. Membership is
    a binary search of the sorted keys ``row * n + col`` of ``adj``.
    """
    n = adj.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
    # CSR order with sorted indices is sorted by key; n * n is a sentinel
    # above every key, so a search never runs off the end.
    keys = np.append(rows * n + adj.indices, n * n)
    partners = np.empty(len(anchors), dtype=np.intp)
    todo = np.arange(len(anchors))
    for _ in range(200):
        partners[todo] = rng.integers(n, size=len(todo))
        mine, theirs = anchors[todo], partners[todo]
        wanted = mine.astype(np.int64) * n + theirs
        todo = todo[(theirs == mine) | (keys[np.searchsorted(keys, wanted)] == wanted)]
        if len(todo) == 0:
            return partners
    raise SamplingError(
        f"no unlinked partner found for node {anchors[todo[0]]} after 200 draws"
    )


def loss_parts(
    z: np.ndarray,
    mlg: MlgParams,
    batch: TrainBatch,
    params: SgcnParams,
    cfg: TrainConfig,
) -> LossParts:
    """Evaluate the three objective components at the given embeddings.

    The parts of the same pass that :func:`_backward` makes for training,
    so both read the same numbers; ``z``'s halves are read as the friend
    and enemy tracks, and the gradient the pass builds is dropped. Raises
    ``ValueError`` on a batch without pairs.
    """
    h = z.shape[1] // 2
    return _objective(LayerState(z[:, :h], z[:, h:]), mlg, batch, params, cfg)[0]


def _pair_columns(batch: TrainBatch):
    """Endpoints, class indices and class weights of the batch's pairs.

    Both lookups are indexed by the pair's sign, as ``_CLASS_OF_SIGN`` is.
    """
    signs = batch.pairs[:, 2]
    weight_of_sign = np.array([batch.class_weights.get(s, 0.0) for s in (0, 1, -1)])
    return batch.pairs[:, 0], batch.pairs[:, 1], _CLASS_OF_SIGN[signs], weight_of_sign[signs]


def _margin_slack(z, triplets, sign):
    """Hinge slack per triplet, positive when the ordering is violated.

    ``sign`` is +1 where ``j`` should be closer to ``i`` than ``k`` is and
    -1 where it should be farther.
    """
    diff_j = z[triplets[:, 0]] - z[triplets[:, 1]]
    diff_k = z[triplets[:, 0]] - z[triplets[:, 2]]
    return sign * (np.sum(diff_j**2, axis=1) - np.sum(diff_k**2, axis=1))


def fit(
    train: SignedGraph,
    x: np.ndarray,
    cfg: TrainConfig,
    sgcn_cfg: SgcnConfig,
) -> FitResult:
    """Mini-batch Adam: sample, embed, differentiate, step, for each epoch.

    Each step is bias-corrected Adam on the full objective, L2 term
    included, with moment decay rates 0.9 and 0.999 and denominator guard
    1e-8. A weight moves by about ``cfg.learning_rate`` per epoch, and by
    at most ``(1 - 0.9) / sqrt(1 - 0.999)``, about 3.2, times it (Kingma &
    Ba, section 2.1). Deterministic for a fixed ``cfg.seed``. The history
    holds each epoch's loss parts before its step, as :func:`_backward`
    read them off the pass that gives the gradient, and the embeddings are
    the last layer's :meth:`~sgcn.model.LayerState.embedding` after the
    last step.

    The forward pass, the objective and the backward pass run in float32
    on ``x`` and the neighbor-mean operators, each cast once; the weights,
    the pair classifier and Adam's moments are float64, and so are the
    returned ``params`` and ``mlg``. The embeddings are the float32 output
    of the final forward pass. A float32 ``x``, as
    :func:`sgcn.evaluation.model_input` returns, is used as is, not copied.
    Across the run ``fit`` keeps ``x`` and the operators. Each epoch's
    layer states are used up by the backward pass, which pops them off
    their list layer by layer, so none is left when the next forward pass
    builds their successors.

    Raises :class:`DivergenceError` if the loss stops being finite, or once
    a weight is past float32's range, before a pass would cast it to inf.
    """
    params = init_params(sgcn_cfg, cfg.seed)
    mlg = MlgParams.zeros(sgcn_cfg.embedding_dim)
    x = np.asarray(x, dtype=_TRAIN_DTYPE)
    ops = neighbor_mean_ops(train, x.dtype)
    history: list[LossParts] = []
    trained = params.all_weights() + [mlg.theta, mlg.bias]
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in trained]
    limit = float(np.finfo(x.dtype).max)
    for epoch in range(cfg.epochs + 1):
        top = max(float(np.abs(w).max()) for w in trained)
        if not top <= limit:
            raise DivergenceError(epoch, f"weight magnitude {top!r} past the {x.dtype} range")
        states = forward_pass(train, x, params, sgcn_cfg, ops=ops)
        if epoch == cfg.epochs:
            break  # the states after the last step, which give the embeddings
        batch = sample_batch(train, cfg, epoch)
        parts, grad_w, grad_mlg = _backward(states, x, params, mlg, batch, cfg, sgcn_cfg, ops)
        del states  # emptied by the backward pass, unless the loss was not finite
        if not np.isfinite(parts.total):
            raise DivergenceError(epoch, f"non-finite loss {parts.total!r}")
        history.append(parts)
        grads = grad_w.all_weights() + [grad_mlg.theta, grad_mlg.bias]
        for w, g, (m, v) in zip(trained, grads, moments):
            _adam_step(w, g, m, v, epoch + 1, cfg.learning_rate)
    return FitResult(params=params, mlg=mlg, embeddings=states[-1].embedding(), history=history)


def _adam_step(w, g, m, v, t: int, learning_rate: float) -> None:
    """One bias-corrected Adam step ``t`` of ``w``, with its moments ``m`` and ``v``, in place."""
    beta1, beta2 = _ADAM_BETAS
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    w -= learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _backward(
    states: list[LayerState],
    x: np.ndarray,
    params: SgcnParams,
    mlg: MlgParams,
    batch: TrainBatch,
    cfg: TrainConfig,
    sgcn_cfg: SgcnConfig,
    ops,
) -> tuple[LossParts, SgcnParams | None, MlgParams | None]:
    """The objective's parts and its gradient, at the embedding and then through the model.

    One pass: the loss parts are read off the logits, exp-sums and hinge
    slack that the gradient is built from. A non-finite loss stops the pass
    before it goes through the model, where it would only overflow, and both
    gradients are then ``None``. ``states``, ``x`` and ``ops`` are those
    the forward pass returned and read; :func:`~sgcn.model.backward_pass`
    uses up ``states``, popping each layer's state as it goes, so the list
    comes back empty once the gradient is taken. Raises ``ValueError`` on a
    batch without pairs.
    """
    parts, dz, grad_mlg = _objective(states[-1], mlg, batch, params, cfg)
    if not np.isfinite(parts.total):
        return parts, None, None
    grad_w = backward_pass(states, x, params, sgcn_cfg, dz, ops)
    for gw, w in zip(grad_w.all_weights(), params.all_weights()):
        gw += 2.0 * cfg.reg_coeff * w
    return parts, grad_w, grad_mlg


def _objective(top, mlg, batch, params, cfg):
    """The loss parts at the last layer's states ``top``, and the gradient there and at ``mlg``.

    Returns ``(parts, dz, grad_mlg)`` from one pass, in the dtype of
    ``top``. ``dz`` is a :class:`~sgcn.model.LayerState`, the gradient at
    each track's states as one contiguous n x d_hidden array, ready for
    :func:`~sgcn.model.backward_pass` to use up. The embedding ``z =
    top.embedding()`` is built for the scores, the hinge slack and
    ``grad_theta``, and dropped before ``dz`` is. ``mlg`` is read cast to
    the pass's dtype; the L2 term and ``grad_mlg`` are in ``mlg``'s own.
    The classifier's share of ``dz`` is the per-node sums of ``dlogits`` at
    each endpoint (n x 3 each) through that endpoint's half of ``theta``. A
    hinge's slack ``||z_i - z_j||^2 - ||z_i - z_k||^2`` is a quadratic form
    in ``z``, so the hinges' share of a track is one sparse symmetric n x n
    matrix times that track: each active triplet adds ``+c`` at (j, j),
    (i, k) and (k, i) and ``-c`` at (k, k), (i, j) and (j, i), with ``c =
    2 * sign * margin_weight / |T|``. Each column of ``dz`` is, bit for
    bit, the column of the n x 2*d_hidden gradient at ``z`` that the same
    products give. Each term runs whatever its weight, and a zero weight
    adds exact zeros. The weights' L2 gradient is left to the caller, which
    holds the weight gradients.
    """
    if len(batch.pairs) == 0:
        raise ValueError("batch has no labeled pairs")
    z = top.embedding()
    dtype = z.dtype
    idx_i, idx_j, labels, omega = _pair_columns(batch)
    omega = omega.astype(dtype, copy=False)
    m, n = len(labels), len(z)

    # Classifier term: class-weighted softmax cross-entropy. Each half of
    # theta acts on one endpoint, so the logits are gathered from per-node
    # scores and the pair features are never built.
    theta_i, theta_j = np.split(mlg.theta.astype(dtype, copy=False), 2, axis=1)
    logits = (z @ theta_i.T)[idx_i]
    logits += (z @ theta_j.T)[idx_j]
    logits += mlg.bias.astype(dtype, copy=False)
    logits -= logits.max(axis=1, keepdims=True)
    exp_logits = np.exp(logits)
    exp_sums = exp_logits.sum(axis=1)
    log_prob = logits[np.arange(m), labels] - np.log(exp_sums)
    classifier = float(np.mean(omega * -log_prob))

    # Hinge terms, and the entries of their quadratic form for the gradient.
    margin, rows, cols, coefs = 0.0, [], [], []
    for triplets, sign in ((batch.pos_triplets, 1.0), (batch.neg_triplets, -1.0)):
        if len(triplets) == 0:
            continue  # its mean is NaN, and it adds no gradient
        slack = _margin_slack(z, triplets, sign)
        margin += float(np.maximum(0.0, slack).mean())
        i, j, k = triplets[slack > 0].T
        c = 2.0 * sign * cfg.margin_weight / len(triplets)
        rows += [j, i, k, k, i, j]
        cols += [j, k, i, k, j, i]
        coefs.append(np.repeat(np.array([c, -c], dtype=dtype), 3 * len(i)))
    margin *= cfg.margin_weight

    # L2 term.
    reg = cfg.reg_coeff * (
        sum(float(np.sum(w * w)) for w in params.all_weights())
        + float(np.sum(mlg.theta * mlg.theta))
    )
    parts = LossParts(classifier=classifier, margin=margin, regularizer=reg)

    dlogits = exp_logits / exp_sums[:, None]
    dlogits[np.arange(m), labels] -= 1.0
    dlogits *= (omega / m)[:, None]
    # Per-node sums of dlogits: rows 0..n-1 at endpoint i, n..2n-1 at j.
    ends = scipy.sparse.csr_matrix(
        (
            np.ones(2 * m, dtype=dtype),
            (np.concatenate([idx_i, n + idx_j]), np.tile(np.arange(m), 2)),
        ),
        shape=(2 * n, m),
    )
    sums_i, sums_j = np.split(ends @ dlogits, 2)
    grad_theta = np.hstack([sums_i.T @ z, sums_j.T @ z]).astype(mlg.theta.dtype, copy=False)
    grad_theta += 2.0 * cfg.reg_coeff * mlg.theta
    del z
    form = None
    if rows:
        form = scipy.sparse.csr_matrix(
            (np.concatenate(coefs), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
    # The classifier's share is taken at full width and then split, since a
    # one-column half would be a matrix-vector product, which rounds
    # differently. The hinges' share of a track is added to its half, not
    # the other way round: addition commutes, so the bits are the same.
    shared = sums_i @ theta_i
    shared += sums_j @ theta_j
    dz = []
    for state, half in zip(top, np.split(shared, 2, axis=1)):
        if form is None:
            dz.append(half.copy())
        else:
            dz.append(form @ state)
            dz[-1] += half
    grad_mlg = MlgParams(theta=grad_theta, bias=dlogits.sum(axis=0, dtype=mlg.bias.dtype))
    return parts, LayerState(*dz), grad_mlg
