"""Two-track graph convolution for signed networks.

Every node carries two hidden vectors per layer: a "friend" representation
aggregated along even-negative (balanced) walk structure and an "enemy"
representation for the odd-negative (unbalanced) side. The first layer
splits by direct edge sign; deeper layers cross the tracks over negative
edges, mirroring the reach-set recursion in :mod:`sgcn.balance`: friends of
friends and enemies of enemies feed the friend track, while friends'
enemies and enemies' friends feed the enemy track.

Each layer reads a table of the blocks each track's weights act on, one
block per slot. A block applies the positive-neighbor mean ``P``, the
negative-neighbor mean ``N`` or nothing (the node's own state) to the
friend state ``F`` or the enemy state ``E``:

    table                friend input      enemy input
    sign-separated       [P.F, F]          [N.E, E]
    crossing             [P.F, N.E, F]     [P.E, N.F, E]

The first layer reads the sign-separated table on ``(x, x)``. Later
standard layers read the crossing table; the plus variant is the first
layer's table repeated. A track's weight matrix is read as column blocks,
one per slot and each as wide as the layer's input, so a layer computes
``tanh(sum_b block_b @ W_b.T)``, which is ``tanh([blocks] @ W.T)`` without
building the concatenation, and keeps no block once it is summed. The
backward pass reassociates instead of reading blocks: slot ``b``'s weight
gradient ``d_pre.T @ (op_b @ source_b)`` is taken as
``(op_b.T @ d_pre).T @ source_b``, so it needs only the states, ``x`` and
the operators. It takes the gradient at the last layer's states one array
per track, and uses up its inputs as it goes down: each layer's states are
popped off their list once read for the last time, and the gradient's
arrays are overwritten with every layer's ``d_pre``. The final embedding
is the concatenation of both tracks' last-layer states.

A pass computes in the precision of its node arrays: ``x`` for
:func:`forward_pass`, ``dz`` for :func:`backward_pass`. Float32 stays
float32 and any other input is read as float64, so a float64 call is the
float64 arithmetic it always was. Operators, features and states of
another precision are refused, never cast. The weights are read cast to
that precision, and the weight gradients come back in the weights' own dtype.
Training keeps float64 master weights and runs its passes in float32 (see
:func:`sgcn.training.fit`).
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
    "forward_pass",
    "backward_pass",
    "embed_all",
]

# The tables above, one tuple of blocks per track (friend, enemy). A block is
# (operator, source track): _P and _N index the neighbor_mean_ops pair and
# _OWN reads the state as is. backward_pass relies on both tracks of a table
# having as many slots, and on each listing its blocks in the order P, N, own.
_P, _N, _OWN = 0, 1, 2
_F, _E = 0, 1
_SPLIT = (((_P, _F), (_OWN, _F)), ((_N, _E), (_OWN, _E)))
_CROSS = (((_P, _F), (_N, _E), (_OWN, _F)), ((_P, _E), (_N, _F), (_OWN, _E)))
_LATER_TABLE = {"standard": _CROSS, "plus": _SPLIT}


@dataclass(frozen=True)
class SgcnConfig:
    """Model shape: input width, per-track hidden width, depth, and variant.

    ``variant="plus"`` is the ablation that repeats the first layer's
    sign-separated table instead of crossing tracks; it is only defined at
    depth 2.
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
        if self.variant not in _LATER_TABLE:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "plus" and self.layers != 2:
            raise ValueError("the plus variant is defined only for layers=2")

    @property
    def embedding_dim(self) -> int:
        return 2 * self.d_hidden


@dataclass
class SgcnParams:
    """Per-layer weight matrices for the friend and enemy tracks.

    Each is ``d_hidden`` rows by one column block per slot of its layer's
    table, each block as wide as the layer's input: ``w_friend[0]`` and
    ``w_enemy[0]`` are ``d_hidden x 2*d_in``, later entries ``d_hidden x
    3*d_hidden`` (standard) or ``d_hidden x 2*d_hidden`` (plus).
    """

    w_friend: list[np.ndarray]
    w_enemy: list[np.ndarray]

    def all_weights(self) -> list[np.ndarray]:
        return list(self.w_friend) + list(self.w_enemy)


class LayerState(NamedTuple):
    """Hidden matrices (n x d_hidden) of both tracks at one layer.

    The states are all that :func:`backward_pass` reads of a forward pass,
    besides ``x``. The same pair carries a gradient at one layer's states,
    one array per track, as :func:`backward_pass` takes it. :meth:`embedding`
    is the one place that lays the tracks side by side.
    """

    friend: np.ndarray
    enemy: np.ndarray

    def embedding(self) -> np.ndarray:
        """The ``n x 2*d_hidden`` embedding ``[friend | enemy]`` of this layer."""
        return np.hstack([self.friend, self.enemy])


def init_params(cfg: SgcnConfig, seed: int) -> SgcnParams:
    """Draw each weight uniformly on [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(seed)
    params = SgcnParams(w_friend=[], w_enemy=[])
    tracks = (params.w_friend, params.w_enemy)
    for _, track, (fan_out, fan_in) in _weight_shapes(cfg, cfg.d_in):
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        tracks[track].append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
    return params


def neighbor_mean_ops(
    g: SignedGraph, dtype=np.float64
) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """Sparse operators taking node features to positive/negative neighbor means.

    They are the masks ``g.adj > 0`` and ``g.adj < 0`` with each row scaled
    to sum to one; a node with no neighbors of that sign gets an all-zero
    row, so an empty neighborhood contributes the zero vector. Their entries
    are the float64 ``1 / degree`` rounded to ``dtype``.
    """
    return _row_normalized(g.adj > 0, dtype), _row_normalized(g.adj < 0, dtype)


def _row_normalized(mask: scipy.sparse.csr_matrix, dtype) -> scipy.sparse.csr_matrix:
    counts = np.diff(mask.indptr)
    weights = np.repeat((1.0 / np.maximum(counts, 1)).astype(dtype, copy=False), counts)
    return scipy.sparse.csr_matrix((weights, mask.indices, mask.indptr), shape=mask.shape)


def forward_pass(
    g: SignedGraph,
    x: np.ndarray,
    params: SgcnParams,
    cfg: SgcnConfig,
    ops: tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix] | None = None,
) -> list[LayerState]:
    """Run all layers and return every intermediate :class:`LayerState`.

    Each track's pre-activation sums ``block @ W_b.T`` over the blocks of
    its table row, ``W_b`` being the slot's columns of the weights; each
    block is built, used and dropped in turn. ``ops`` may carry the pair
    from :func:`neighbor_mean_ops` to skip rebuilding it, e.g. across
    training epochs on a fixed graph. The states are in the precision of
    ``x``. Raises ``ValueError`` unless ``ops`` share that precision, and
    unless every weight has the shape its layer's table gives it for an
    input as wide as ``x``.
    """
    x = _float_array(x)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise ValueError(f"feature matrix must be ({g.n}, d_in), got {x.shape}")
    if len(params.w_friend) != cfg.layers or len(params.w_enemy) != cfg.layers:
        raise ValueError(
            f"params carry {len(params.w_friend)} layers, config asks for {cfg.layers}"
        )
    for layer, track, shape in _weight_shapes(cfg, x.shape[1]):
        w = (params.w_friend, params.w_enemy)[track][layer]
        if w.shape != shape:
            raise ValueError(
                f"layer-{layer + 1} {('friend', 'enemy')[track]} weights are {w.shape}, "
                f"expected {shape} for input width {x.shape[1]}"
            )
    ops = ops if ops is not None else neighbor_mean_ops(g, x.dtype)
    _check_precision(x.dtype, "x", ops=ops)
    states = [LayerState(friend=x, enemy=x)]
    for layer in range(cfg.layers):
        friend, enemy = (
            _activate(row, states[-1], ops, w[layer].astype(x.dtype, copy=False))
            for row, w in zip(_table(cfg, layer), (params.w_friend, params.w_enemy))
        )
        states.append(LayerState(friend=friend, enemy=enemy))
    return states[1:]


def backward_pass(
    states: list[LayerState],
    x: np.ndarray,
    params: SgcnParams,
    cfg: SgcnConfig,
    dz: LayerState,
    ops: tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix],
) -> SgcnParams:
    """Gradient of an objective with respect to every weight matrix.

    ``states``, ``x`` and ``ops`` are those :func:`forward_pass` returned
    and read, and ``dz`` is the objective's gradient at the last layer's
    states, one n x d_hidden array per track. Reverse mode through the
    same layer tables, reading each block's source state instead of the
    block: a slot's operator image ``q = op_b.T @ d_pre`` (``d_pre`` itself
    for an own-state slot) is taken once, its weight gradient columns are
    ``(op_b.T @ d_pre).T @ source_b`` and its share of the source track's
    gradient is ``q @ W_b``. The source is ``x`` at the first layer and
    the layer below's state above it. The pass runs in the precision of
    ``dz``; it raises ``ValueError`` unless both tracks of ``dz``,
    ``states``, ``x`` and ``ops`` share it. Each weight gradient is written
    into an array of its weight's dtype.

    The pass uses up ``states`` and ``dz``: it pops each layer's state off
    the list once the layer's ``tanh'`` and its use as a source are done,
    so the list comes back empty, and it overwrites ``dz``'s arrays with
    every layer's ``d_pre`` in turn. ``x`` and ``ops``, and the state
    arrays themselves, are only read. The gradient reaching a layer's
    states goes into two n x d_hidden buffers that every layer reuses: a
    track's first part is written into its buffer and each later part is
    formed in one scratch array and added in place. So besides ``dz`` the
    pass holds three such arrays and one slot's operator image at a time.
    """
    dz = LayerState(*(_float_array(g) for g in dz))
    x, dtype = _float_array(x), dz.friend.dtype
    if dz.enemy.dtype != dtype:
        raise ValueError(
            f"dz's tracks are {dtype} and {dz.enemy.dtype}: a pass computes in one precision"
        )
    _check_precision(dtype, "dz", ops=ops, features=[x],
                     states=[a for state in states for a in state])
    masters = (params.w_friend, params.w_enemy)
    grads = ([None] * cfg.layers, [None] * cfg.layers)
    # dz's arrays hold the top layer's state gradient and then every layer's
    # d_pre; the gradients reaching lower layers' states get two buffers.
    d_pre, g_state, scratch = list(dz), dz, np.empty_like(dz.friend)
    for layer in range(cfg.layers - 1, -1, -1):
        state = states.pop()  # read here for tanh', and as a source one layer up
        for track in (_F, _E):
            # tanh' = 1 - tanh^2, read off the layer's output; d_pre = g * tanh'.
            np.square(state[track], out=scratch)
            np.subtract(1.0, scratch, out=scratch)
            np.multiply(g_state[track], scratch, out=d_pre[track])
            grads[track][layer] = np.zeros_like(masters[track][layer])
        del state
        if g_state is dz and layer > 0:
            g_state = [np.empty_like(scratch), np.empty_like(scratch)]
        source = (x, x) if layer == 0 else states[-1]
        table = _table(cfg, layer)
        columns = [np.split(grads[track][layer], len(table[track]), axis=1) for track in (_F, _E)]
        slots = [np.split(w[layer].astype(dtype, copy=False), len(table[track]), axis=1)
                 for track, w in enumerate(masters)]
        # Slot by slot, so each track sums its P, N and own parts in that order.
        started = [False, False]
        for slot, column in enumerate(zip(*table)):
            for track, (op, src) in enumerate(column):
                q = d_pre[track] if op == _OWN else ops[op].T @ d_pre[track]
                columns[track][slot][...] = q.T @ source[src]
                if layer == 0:
                    continue  # the features x are not trained
                if started[src]:
                    g_state[src] += np.matmul(q, slots[track][slot], out=scratch)
                else:
                    np.matmul(q, slots[track][slot], out=g_state[src])
                    started[src] = True
    return SgcnParams(w_friend=grads[_F], w_enemy=grads[_E])


def embed_all(g: SignedGraph, x: np.ndarray, params: SgcnParams, cfg: SgcnConfig) -> np.ndarray:
    """Node embeddings: the last layer's :meth:`LayerState.embedding`."""
    return forward_pass(g, x, params, cfg)[-1].embedding()


def _float_array(a) -> np.ndarray:
    """``a`` in the precision a pass computes in: float32 stays, all else is read as float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def _check_precision(dtype, of: str, **operands) -> None:
    """Raise ``ValueError`` unless every array of each named operand is in ``dtype``, ``of``'s."""
    for name, arrays in operands.items():
        for a in arrays:
            if a.dtype != dtype:
                raise ValueError(
                    f"{name} are {a.dtype} but {of} is {dtype}: "
                    f"a pass computes in the precision of {of}"
                )


def _table(cfg: SgcnConfig, layer: int):
    """The table ``layer`` reads: the sign-separated one first, then the variant's."""
    return _SPLIT if layer == 0 else _LATER_TABLE[cfg.variant]


def _weight_shapes(cfg: SgcnConfig, d_in: int):
    """``(layer, track, shape)`` of every weight in draw order, for an input ``d_in`` wide."""
    for layer in range(cfg.layers):
        width = d_in if layer == 0 else cfg.d_hidden
        for track, row in enumerate(_table(cfg, layer)):
            yield layer, track, (cfg.d_hidden, len(row) * width)


def _activate(row, state: LayerState, ops, w: np.ndarray) -> np.ndarray:
    """``tanh([blocks] @ w.T)`` of one track's table row on ``state``, summed slot by slot."""
    pre = None
    for (op, source), columns in zip(row, np.split(w, len(row), axis=1)):
        block = state[source] if op == _OWN else ops[op] @ state[source]
        if pre is None:
            pre = block @ columns.T
        else:
            pre += block @ columns.T
    return np.tanh(pre, out=pre)
