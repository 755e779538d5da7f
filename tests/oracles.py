"""Independent brute-force oracles the test suite checks the library against.

Everything here is written for transparency over speed: neighbour lookups
and invariant checks read entry by entry off the adjacency, a dict fold of
raw records, exhaustive walk enumeration, exhaustive 2-coloring, a stack
walk that 2-colours each component, pairwise AUC counting, a logistic
probe fit on explicit pair features, a forward and a backward pass that
build every input block as its own array, an allocating backward pass in
the library's association, an objective whose gradient is one n x 2h array
at the embedding, and central finite differences. None of it shares code
with the implementations under test, except :func:`gradients`: it runs the
library's own forward and backward pass for one batch, so that the tests
can hold that gradient against central differences. The probe oracle reads
only the library's penalty and step cap, the model oracles only the layer
tables, and the objective oracle the library's pair columns and hinge
slack.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse

from sgcn.evaluation import _L2, _MAX_ITER
from sgcn.graph import SignedGraph
from sgcn.model import _E, _F, _OWN, SgcnParams, _table, forward_pass, neighbor_mean_ops
from sgcn.training import LossParts, MlgParams, _backward, _margin_slack, _pair_columns


def random_signed_graph(rng, n, edge_prob=0.4, neg_frac=0.3) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                sign = -1 if rng.random() < neg_frac else 1
                edges.append((u, v, sign))
    return SignedGraph.from_edges(n, edges)


def _check_node(g: SignedGraph, i: int) -> None:
    """Refuse a node id outside ``0..n-1``, which indexing would wrap or overrun."""
    if not 0 <= i < g.n:
        raise ValueError(f"node id {i} out of range for n={g.n}")


def _row(g: SignedGraph, i: int) -> list[tuple[int, float]]:
    """The ``(column, value)`` entries stored in row ``i`` of ``g.adj``, in storage order."""
    _check_node(g, i)
    start, stop = int(g.adj.indptr[i]), int(g.adj.indptr[i + 1])
    return list(zip(g.adj.indices[start:stop].tolist(), g.adj.data[start:stop].tolist()))


def neighbor_sets(g: SignedGraph, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Node ``i``'s positive and negative neighbours, each sorted."""
    row = _row(g, i)
    return tuple(sorted(v for v, s in row if s > 0)), tuple(sorted(v for v, s in row if s < 0))


def has_edge(g: SignedGraph, u: int, v: int) -> bool:
    """Whether ``u`` and ``v`` share an edge; a node id outside ``0..n-1`` is refused."""
    _check_node(g, v)
    return any(w == v for w, _ in _row(g, u))


def validate(g: SignedGraph) -> None:
    """Raise ``ValueError`` unless ``g.adj`` is a simple, symmetric, signed CSR adjacency.

    Each row must hold its columns in ascending order, each at most once,
    never its own, and only the values +1 and -1; the entry ``(u, v)`` must
    equal ``(v, u)``.
    """
    not_canonical = "adjacency is not a symmetric CSR matrix with sorted indices"
    if g.adj.format != "csr" or g.adj.shape != (g.n, g.n):
        raise ValueError(not_canonical)
    entries, unsorted = {}, False
    for u in range(g.n):
        row = _row(g, u)
        unsorted |= [v for v, _ in row] != sorted(v for v, _ in row)
        for v, s in row:
            if (u, v) in entries:
                raise ValueError(f"pair ({min(u, v)}, {max(u, v)}) listed more than once")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if s not in (1.0, -1.0):
                raise ValueError(f"edge ({u}, {v}) has invalid sign {s}")
            entries[u, v] = s
    if unsorted or any(entries.get((v, u)) != s for (u, v), s in entries.items()):
        raise ValueError(not_canonical)


def fold_records(records) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """Fold directed ``(u, v, sign)`` records one by one through a dict.

    Returns the raw ids in ascending order and the undirected edges over
    their positions, as ``u < v`` rows ordered by ``u``, positive before
    negative, then ``v``. A pair's sign is that of its summed record signs;
    a pair whose signs cancel is dropped, a self-loop record is skipped,
    and every id of a record stays a node.
    """
    records = [tuple(int(x) for x in record) for record in records]
    raw_ids = tuple(sorted({u for u, _, _ in records} | {v for _, v, _ in records}))
    index = {raw: i for i, raw in enumerate(raw_ids)}
    sign_sum: dict[tuple[int, int], int] = {}
    for u, v, sign in records:
        if u == v:
            continue
        key = tuple(sorted((index[u], index[v])))
        sign_sum[key] = sign_sum.get(key, 0) + sign
    edges = [(u, v, 1 if s > 0 else -1) for (u, v), s in sign_sum.items() if s != 0]
    return raw_ids, sorted(edges, key=lambda e: (e[0], -e[2], e[1]))


def signed_neighbors(g: SignedGraph, u: int):
    pos, neg = neighbor_sets(g, u)
    for v in pos:
        yield v, 1
    for v in neg:
        yield v, -1


def walk_reach_by_parity(g: SignedGraph, origin: int, max_length: int):
    """All walks of each exact length from origin, split by sign parity.

    Returns two lists of sets, index l-1 for length l: nodes reachable along
    a walk with an even / odd number of negative edges. Walks may revisit
    nodes, including the origin.
    """
    balanced, unbalanced = [], []
    # frontier holds (node, parity) states reachable in exactly `length` steps
    frontier = {(origin, 0)}
    for _ in range(max_length):
        nxt = set()
        for node, parity in frontier:
            for nbr, sign in signed_neighbors(g, node):
                nxt.add((nbr, parity ^ (sign < 0)))
        balanced.append(frozenset(v for v, p in nxt if p == 0))
        unbalanced.append(frozenset(v for v, p in nxt if p == 1))
        frontier = nxt
    return balanced, unbalanced


def components(g: SignedGraph):
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        comp, stack = [], [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, _ in signed_neighbors(g, u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        yield sorted(comp)


def is_two_colorable(g: SignedGraph, nodes=None) -> bool:
    """Exhaustively search for a cut placing every negative edge across it.

    A side assignment is valid when positive edges stay within a side and
    negative edges cross. Exponential in the node count by design; tests
    keep n small.
    """
    nodes = list(range(g.n)) if nodes is None else list(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    edges = []
    for u in nodes:
        for v, sign in signed_neighbors(g, u):
            if v in index and u < v:
                edges.append((index[u], index[v], sign))
    for bits in itertools.product((0, 1), repeat=len(nodes)):
        ok = True
        for a, b, sign in edges:
            if sign == 1 and bits[a] != bits[b]:
                ok = False
                break
            if sign == -1 and bits[a] == bits[b]:
                ok = False
                break
        if ok:
            return True
    return False


def null_space_basis_by_walk(adj) -> np.ndarray:
    """The embedding's canonical null-space basis, found by a stack walk.

    The walk 2-colours each connected component from its smallest node,
    which gets +1, and marks the component unbalanced on the first edge
    whose colours disagree with its sign. Each balanced component of two or
    more nodes gives the column ``D^{1/2} c`` scaled to unit norm, in order
    of the component's smallest node.
    """
    n = adj.shape[0]
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    signs = adj.data.astype(int).tolist()
    degrees = np.diff(adj.indptr)
    colour = [0] * n
    columns = []
    for start in range(n):
        if colour[start]:
            continue
        colour[start] = 1
        members, stack, balanced = [start], [start], True
        while stack:
            u = stack.pop()
            for k in range(indptr[u], indptr[u + 1]):
                v, want = indices[k], colour[u] * signs[k]
                if not colour[v]:
                    colour[v] = want
                    members.append(v)
                    stack.append(v)
                elif colour[v] != want:
                    balanced = False
        if not balanced or len(members) == 1:
            continue
        col = np.zeros(n)
        col[members] = [colour[v] for v in members]
        col[members] *= np.sqrt(degrees[members])
        columns.append(col / np.linalg.norm(col))
    return np.column_stack(columns) if columns else np.zeros((n, 0))


def auc_by_enumeration(scores, labels) -> float:
    """AUC as the literal average over all positive-negative score pairs."""
    scores = list(map(float, scores))
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def pair_features(z: np.ndarray, ends) -> np.ndarray:
    """The m x 2d matrix of rows ``[z_u, z_v]``, one per ``(u, v)`` in ``ends``."""
    ends = np.asarray(ends)
    return np.hstack([z[ends[:, 0]], z[ends[:, 1]]])


def logreg_on_pair_features(features: np.ndarray, labels) -> tuple[np.ndarray, float, int]:
    """``(weights, intercept, steps)`` of the link-sign probe, fit on explicit pair features.

    The same Newton iteration as :func:`sgcn.evaluation.fit_logreg`, on the
    m x 2d feature matrix row by row: loss ``mean(log(1 + e^t) - y t) +
    _L2 * ||w||^2 / m``, Hessian ``x.T @ (s x) / m`` with the curvature ``s``
    scaled into a buffer, a full step halved up to 30 times until the loss
    does not rise, and a stop at a gradient sup-norm of 1e-6 or after
    ``_MAX_ITER`` steps. ``steps`` counts the accepted steps.
    """
    x, y = features, np.asarray(labels, dtype=np.float64)
    m, d = x.shape
    beta = np.zeros(d + 1)  # [w, intercept]
    xs = np.empty((m, d))

    def objective(b):
        margins = x @ b[:d] + b[d]
        return np.mean(np.logaddexp(0.0, margins) - y * margins) + _L2 * np.dot(b[:d], b[:d]) / m

    obj, steps = objective(beta), 0
    for _ in range(_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-(x @ beta[:d] + beta[d])))
        residual = p - y
        grad = np.empty(d + 1)
        grad[:d] = x.T @ residual / m + 2.0 * _L2 * beta[:d] / m
        grad[d] = residual.mean()
        if np.abs(grad).max() <= 1e-6:
            break
        s = p * (1.0 - p)
        np.multiply(x, s[:, None], out=xs)
        hess = np.empty((d + 1, d + 1))
        hess[:d, :d] = x.T @ xs / m
        hess[:d, :d][np.diag_indices(d)] += 2.0 * _L2 / m
        hess[:d, d] = hess[d, :d] = xs.sum(axis=0) / m
        hess[d, d] = s.sum() / m
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad
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
    return beta[:d], float(beta[d]), steps


def central_difference(fn, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        up = fn()
        flat[idx] = orig - step
        down = fn()
        flat[idx] = orig
        gflat[idx] = (up - down) / (2.0 * step)
    return grad


def block_forward_pass(g, x, params, sgcn_cfg, ops) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every layer's ``(friend, enemy)`` states, each input block built as its own array.

    A track's pre-activation is the slot-by-slot sum of ``block @ W_b.T``,
    each sum a new array, and the state is its ``tanh``; ``ops`` must be
    in the precision of ``x``.
    """
    x = np.asarray(x)
    states, source = [], (x, x)
    for layer in range(sgcn_cfg.layers):
        tracks = []
        for row, ws in zip(_table(sgcn_cfg, layer), (params.w_friend, params.w_enemy)):
            blocks = [source[s] if op == _OWN else ops[op] @ source[s] for op, s in row]
            slots = np.split(ws[layer].astype(x.dtype), len(row), axis=1)
            pre = blocks[0] @ slots[0].T
            for block, columns in zip(blocks[1:], slots[1:]):
                pre = pre + block @ columns.T
            tracks.append(np.tanh(pre))
        states.append(source := tuple(tracks))
    return states


def _backward_oracle(states, x, params, sgcn_cfg, dz, ops, slot_grads) -> SgcnParams:
    """Reverse mode through the layer tables as plain expressions, each result a new array.

    ``dz`` is the gradient at the last layer's states, one array per track;
    it is only read, and so are the other arguments.

    ``slot_grads(d_pre, op, source, w_b)`` gives one slot's weight gradient
    columns and its part of the source track's gradient. Every ``d_pre`` is
    ``g * (1 - s**2)`` and every state gradient the sum ``g + part``, run
    slot by slot in the tables' P, N, own order, as the library's are.
    """
    masters = (params.w_friend, params.w_enemy)
    grads = ([None] * sgcn_cfg.layers, [None] * sgcn_cfg.layers)
    g_state = list(dz)
    for layer in range(sgcn_cfg.layers - 1, -1, -1):
        d_pre = [g_state[track] * (1.0 - states[layer][track] ** 2) for track in (_F, _E)]
        source = (x, x) if layer == 0 else states[layer - 1]
        table = _table(sgcn_cfg, layer)
        slots = [np.split(masters[track][layer].astype(dz[_F].dtype), len(table[track]), axis=1)
                 for track in (_F, _E)]
        columns = [[], []]
        g_state = [None, None]
        for slot, column in enumerate(zip(*table)):
            for track, (op, s) in enumerate(column):
                w_grad, part = slot_grads(d_pre[track], ops[op] if op != _OWN else None,
                                          source[s], slots[track][slot])
                columns[track].append(w_grad)
                g_state[s] = part if g_state[s] is None else g_state[s] + part
        for track in (_F, _E):
            grads[track][layer] = np.hstack(columns[track]).astype(masters[track][layer].dtype)
    return SgcnParams(w_friend=grads[_F], w_enemy=grads[_E])


def allocating_backward_pass(states, x, params, sgcn_cfg, dz, ops) -> SgcnParams:
    """:func:`sgcn.model.backward_pass` as plain expressions, in its association.

    A slot's operator image ``q = op.T @ d_pre`` (``d_pre`` for an own
    slot) gives its weight gradient ``q.T @ source`` and its state part
    ``q @ W_b``.
    """
    def slot_grads(d_pre, op, source, w_b):
        q = d_pre if op is None else op.T @ d_pre
        return q.T @ source, q @ w_b

    return _backward_oracle(states, x, params, sgcn_cfg, dz, ops, slot_grads)


def block_backward_pass(states, x, params, sgcn_cfg, dz, ops) -> SgcnParams:
    """Reverse mode in the association that reads each input block.

    A slot's block ``op @ source`` is built as its own array, its weight
    gradient is ``d_pre.T @ block`` and its state part ``op.T @ (d_pre @ W_b)``.
    """
    def slot_grads(d_pre, op, source, w_b):
        block = source if op is None else op @ source
        part = d_pre @ w_b
        return d_pre.T @ block, part if op is None else op.T @ part

    return _backward_oracle(states, x, params, sgcn_cfg, dz, ops, slot_grads)


def gradients(train, x, params, mlg, batch, cfg, sgcn_cfg):
    """The library's gradient of the objective with respect to every parameter.

    One forward pass and :func:`sgcn.training._backward`, the pass that
    :func:`sgcn.training.fit` steps with. Returns gradient containers
    shaped like ``params`` and ``mlg``; raises ``ValueError`` on a batch
    without pairs, as ``loss_parts`` does.
    """
    ops = neighbor_mean_ops(train)
    states = forward_pass(train, x, params, sgcn_cfg, ops=ops)
    return _backward(states, x, params, mlg, batch, cfg, sgcn_cfg, ops)[1:]


def dense_objective(z, mlg, batch, params, cfg):
    """``(parts, dz, grad_mlg)`` of the objective, its gradient one n x 2h array at ``z``.

    The one-pass objective with the gradient at the whole embedding: the
    classifier's per-node sums through both halves of ``theta``, then the
    hinges' sparse symmetric form times ``z``, each added into one array.
    Computed in the dtype of ``z``.
    """
    dtype = z.dtype
    idx_i, idx_j, labels, omega = _pair_columns(batch)
    omega = omega.astype(dtype, copy=False)
    m, n = len(labels), len(z)
    theta_i, theta_j = np.split(mlg.theta.astype(dtype, copy=False), 2, axis=1)
    logits = (z @ theta_i.T)[idx_i]
    logits += (z @ theta_j.T)[idx_j]
    logits += mlg.bias.astype(dtype, copy=False)
    logits -= logits.max(axis=1, keepdims=True)
    exp_logits = np.exp(logits)
    exp_sums = exp_logits.sum(axis=1)
    log_prob = logits[np.arange(m), labels] - np.log(exp_sums)
    classifier = float(np.mean(omega * -log_prob))
    margin, rows, cols, coefs = 0.0, [], [], []
    for triplets, sign in ((batch.pos_triplets, 1.0), (batch.neg_triplets, -1.0)):
        if len(triplets) == 0:
            continue
        slack = _margin_slack(z, triplets, sign)
        margin += float(np.maximum(0.0, slack).mean())
        i, j, k = triplets[slack > 0].T
        c = 2.0 * sign * cfg.margin_weight / len(triplets)
        rows += [j, i, k, k, i, j]
        cols += [j, k, i, k, j, i]
        coefs.append(np.repeat(np.array([c, -c], dtype=dtype), 3 * len(i)))
    margin *= cfg.margin_weight
    reg = cfg.reg_coeff * (
        sum(float(np.sum(w * w)) for w in params.all_weights())
        + float(np.sum(mlg.theta * mlg.theta))
    )
    dlogits = exp_logits / exp_sums[:, None]
    dlogits[np.arange(m), labels] -= 1.0
    dlogits *= (omega / m)[:, None]
    ends = scipy.sparse.csr_matrix(
        (np.ones(2 * m, dtype=dtype), (np.concatenate([idx_i, n + idx_j]), np.tile(np.arange(m), 2))),
        shape=(2 * n, m),
    )
    sums_i, sums_j = np.split(ends @ dlogits, 2)
    grad_theta = np.hstack([sums_i.T @ z, sums_j.T @ z]).astype(mlg.theta.dtype, copy=False)
    grad_theta += 2.0 * cfg.reg_coeff * mlg.theta
    dz = sums_i @ theta_i
    dz += sums_j @ theta_j
    if rows:
        form = scipy.sparse.csr_matrix(
            (np.concatenate(coefs), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
        dz += form @ z
    parts = LossParts(classifier=classifier, margin=margin, regularizer=reg)
    return parts, dz, MlgParams(theta=grad_theta, bias=dlogits.sum(axis=0, dtype=mlg.bias.dtype))
