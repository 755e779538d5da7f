"""Independent brute-force oracles the test suite checks the library against.

Everything here is written for transparency over speed: exhaustive walk
enumeration, exhaustive 2-coloring, pairwise AUC counting, and central
finite differences. None of it shares code with the implementations under
test.
"""

from __future__ import annotations

import itertools

import numpy as np

from sgcn.graph import SignedGraph, neighbor_sets


def random_signed_graph(rng, n, edge_prob=0.4, neg_frac=0.3) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                sign = -1 if rng.random() < neg_frac else 1
                edges.append((u, v, sign))
    return SignedGraph.from_edges(n, edges)


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
