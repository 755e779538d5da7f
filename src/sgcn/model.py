"""Two-track graph convolution for signed networks.

Every node carries two hidden vectors per layer: a "friend" representation
aggregated along even-negative (balanced) walk structure and an "enemy"
representation for the odd-negative (unbalanced) side. The first layer
splits by direct edge sign; deeper layers cross the tracks over negative
edges, mirroring the reach-set recursion in :mod:`sgcn.balance`: friends of
friends and enemies of enemies feed the friend track, while friends'
enemies and enemies' friends feed the enemy track.

Each layer is a table of the blocks each track's weights act on, one
block per slot. A block applies the positive-neighbor mean ``P``, the
negative-neighbor mean ``N`` or nothing (the node's own state) to the
friend state ``F`` or the enemy state ``E``; ``0`` is a zero slot:

    layer                friend input      enemy input
    first, on (x, x)     [P.F, F]          [N.E, E]
    later, standard      [P.F, N.E, F]     [P.E, N.F, E]
    later, plus          [P.F, 0, F]       [0, N.E, E]

A track's weight matrix is read as column blocks, one per slot, so a
layer computes ``tanh(sum_b block_b @ W_b.T)`` over its non-zero slots,
which is ``tanh([blocks] @ W.T)`` without building the concatenation. The
zero slots keep the plus variant's weight shapes equal to the standard
ones, so the first layer maps ``2*d_in -> d_hidden`` per track and every
later layer maps ``3*d_hidden -> d_hidden``. The final embedding is the
concatenation of both tracks' last-layer states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .graph import SignedGraph

__all__ = [
    "SgcnConfig",
    "SgcnParams",
    "LayerState",
    "init_params",
    "neighbor_mean_ops",
    "first_layer_inputs",
    "forward_pass",
    "backward_pass",
    "embed_all",
]

# The table above, one tuple of blocks per track (friend, enemy). A block is
# (operator, source track): _P and _N index the neighbor_mean_ops pair and
# _OWN reads the state as is; None is a zero slot. backward_pass relies on
# every track listing its blocks in the slot order P, N, own.
_P, _N, _OWN = 0, 1, None
_F, _E = 0, 1
_FIRST_LAYER = (((_P, _F), (_OWN, _F)), ((_N, _E), (_OWN, _E)))
_LATER_LAYERS = {
    "standard": (((_P, _F), (_N, _E), (_OWN, _F)), ((_P, _E), (_N, _F), (_OWN, _E))),
    "plus": (((_P, _F), None, (_OWN, _F)), (None, (_N, _E), (_OWN, _E))),
}


@dataclass(frozen=True)
class SgcnConfig:
    """Model shape: input width, per-track hidden width, depth, and variant.

    ``variant="plus"`` is the ablation that repeats the first layer's
    sign-separated aggregation instead of crossing tracks; it is only
    defined at depth 2.
    """

    d_in: int
    d_hidden: int = 32
    layers: int = 2
    variant: str = "standard"

    def __post_init__(self):
        if self.d_in < 1 or self.d_hidden < 1:
            raise ValueError("d_in and d_hidden must be >= 1")
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if self.variant not in _LATER_LAYERS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "plus" and self.layers != 2:
            raise ValueError("the plus variant is defined only for layers=2")

    @property
    def embedding_dim(self) -> int:
        return 2 * self.d_hidden


@dataclass
class SgcnParams:
    """Per-layer weight matrices for the friend and enemy tracks.

    ``w_friend[0]`` and ``w_enemy[0]`` are ``d_hidden x 2*d_in``; all later
    entries are ``d_hidden x 3*d_hidden``.
    """

    w_friend: list[np.ndarray]
    w_enemy: list[np.ndarray]

    def all_weights(self) -> list[np.ndarray]:
        return list(self.w_friend) + list(self.w_enemy)


class LayerState(NamedTuple):
    """Hidden matrices (n x d_hidden) of both tracks at one layer.

    ``inputs`` holds the friend and enemy input blocks the weights acted on,
    one per table slot and ``None`` for a zero slot, which
    :func:`backward_pass` reads; it is ``None`` for the features.
    :meth:`embedding` is the one place that lays the tracks side by side.
    """

    friend: np.ndarray
    enemy: np.ndarray
    inputs: tuple[tuple[np.ndarray | None, ...], tuple[np.ndarray | None, ...]] | None = None

    def embedding(self) -> np.ndarray:
        """The ``n x 2*d_hidden`` embedding ``[friend | enemy]`` of this layer."""
        return np.hstack([self.friend, self.enemy])


def init_params(cfg: SgcnConfig, seed: int) -> SgcnParams:
    """Draw each weight uniformly on [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(seed)
    w_friend, w_enemy = [], []
    for layer in range(cfg.layers):
        fan_in = 2 * cfg.d_in if layer == 0 else 3 * cfg.d_hidden
        scale = np.sqrt(6.0 / (fan_in + cfg.d_hidden))
        w_friend.append(rng.uniform(-scale, scale, size=(cfg.d_hidden, fan_in)))
        w_enemy.append(rng.uniform(-scale, scale, size=(cfg.d_hidden, fan_in)))
    return SgcnParams(w_friend=w_friend, w_enemy=w_enemy)


def neighbor_mean_ops(
    g: SignedGraph,
) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """Sparse operators taking node features to positive/negative neighbor means.

    They are the masks ``g.adj > 0`` and ``g.adj < 0`` with each row scaled
    to sum to one; a node with no neighbors of that sign gets an all-zero
    row, so an empty neighborhood contributes the zero vector.
    """
    return _row_normalized(g.adj > 0), _row_normalized(g.adj < 0)


def _row_normalized(mask: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    counts = np.diff(mask.indptr)
    weights = np.repeat(1.0 / np.maximum(counts, 1), counts)
    return scipy.sparse.csr_matrix((weights, mask.indices, mask.indptr), shape=mask.shape)


def first_layer_inputs(
    x: np.ndarray, ops: tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The first layer's friend and enemy input blocks ``(P.x, x)`` and ``(N.x, x)``."""
    x = np.asarray(x, dtype=np.float64)
    features = LayerState(friend=x, enemy=x)
    return tuple(_input_blocks(blocks, features, ops) for blocks in _FIRST_LAYER)


def forward_pass(
    g: SignedGraph,
    x: np.ndarray,
    params: SgcnParams,
    cfg: SgcnConfig,
    ops: tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix] | None = None,
    first_inputs: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[LayerState]:
    """Run all layers and return every intermediate :class:`LayerState`.

    Each track's pre-activation sums ``block @ W_b.T`` over the non-zero
    blocks of its table row, ``W_b`` being the slot's columns of the weights.
    ``ops`` may carry the pair from :func:`neighbor_mean_ops` and
    ``first_inputs`` the blocks from :func:`first_layer_inputs` of ``x`` to
    skip rebuilding them, e.g. across training epochs on a fixed graph.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"feature matrix must be ({g.n}, d_in), got {x.shape}")
    if len(params.w_friend) != cfg.layers or len(params.w_enemy) != cfg.layers:
        raise ValueError(
            f"params carry {len(params.w_friend)} layers, config asks for {cfg.layers}"
        )
    if params.w_friend[0].shape[1] != 2 * x.shape[1]:
        raise ValueError(
            f"layer-1 weights expect input width {params.w_friend[0].shape[1] // 2}, "
            f"got {x.shape[1]}"
        )
    ops = ops if ops is not None else neighbor_mean_ops(g)
    inputs = first_inputs if first_inputs is not None else first_layer_inputs(x, ops)
    states = []
    for layer in range(cfg.layers):
        if layer:
            inputs = tuple(
                _input_blocks(blocks, states[-1], ops) for blocks in _LATER_LAYERS[cfg.variant]
            )
        friend, enemy = (
            _activate(blocks, w[layer])
            for blocks, w in zip(inputs, (params.w_friend, params.w_enemy))
        )
        states.append(LayerState(friend=friend, enemy=enemy, inputs=inputs))
    return states


def backward_pass(
    states: list[LayerState],
    params: SgcnParams,
    cfg: SgcnConfig,
    dz: np.ndarray,
    ops: tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix],
) -> SgcnParams:
    """Gradient of an objective with respect to every weight matrix.

    ``states`` and ``ops`` are those :func:`forward_pass` returned and used,
    and ``dz`` is the objective's gradient at the last layer's
    :meth:`LayerState.embedding`. Reverse mode through the same
    layer tables: slot ``b`` of a weight gradient is ``d_pre.T @ block_b``
    (zero for a zero slot), and each block's gradient ``d_pre @ W_b`` goes
    back through the transpose of its operator to the track it was read
    from.
    """
    h = cfg.d_hidden
    weights = (params.w_friend, params.w_enemy)
    grads = ([None] * cfg.layers, [None] * cfg.layers)
    g_state = [dz[:, :h], dz[:, h:]]
    for layer in range(cfg.layers - 1, -1, -1):
        # tanh' = 1 - tanh^2, read off the layer's output.
        d_pre = [g_state[track] * (1.0 - states[layer][track] ** 2) for track in (_F, _E)]
        for track in (_F, _E):
            grad = grads[track][layer] = np.zeros_like(weights[track][layer])
            blocks = states[layer].inputs[track]
            for block, columns in zip(blocks, np.split(grad, len(blocks), axis=1)):
                if block is not None:
                    columns[...] = d_pre[track].T @ block
        if layer == 0:
            break  # the features x are not trained
        table = _LATER_LAYERS[cfg.variant]
        slots = [np.split(weights[track][layer], len(table[track]), axis=1) for track in (_F, _E)]
        # Slot by slot, so each track sums its P, N and own parts in that order.
        g_state = [None, None]
        for slot, column in enumerate(zip(*table)):
            for track, block in enumerate(column):
                if block is None:
                    continue
                op, source = block
                part = d_pre[track] @ slots[track][slot]
                if op is not _OWN:
                    part = ops[op].T @ part
                g_state[source] = part if g_state[source] is None else g_state[source] + part
    return SgcnParams(w_friend=grads[_F], w_enemy=grads[_E])


def embed_all(g: SignedGraph, x: np.ndarray, params: SgcnParams, cfg: SgcnConfig) -> np.ndarray:
    """Node embeddings: the last layer's :meth:`LayerState.embedding`."""
    return forward_pass(g, x, params, cfg)[-1].embedding()


def _input_blocks(blocks, state: LayerState, ops) -> tuple[np.ndarray | None, ...]:
    """One track's input blocks read off ``state``, in slot order; ``None`` for a zero slot."""
    read = []
    for block in blocks:
        if block is None:
            read.append(None)
            continue
        op, source = block
        read.append(state[source] if op is _OWN else ops[op] @ state[source])
    return tuple(read)


def _activate(blocks, w: np.ndarray) -> np.ndarray:
    """``tanh([blocks] @ w.T)``, summed slot by slot over the non-zero blocks."""
    pre = None
    for block, columns in zip(blocks, np.split(w, len(blocks), axis=1)):
        if block is None:
            continue
        part = block @ columns.T
        if pre is None:
            pre = part
        else:
            pre += part
    return np.tanh(pre, out=pre)

