"""Balance-theory primitives over signed graphs.

A path (or cycle) is balanced when it carries an even number of negative
edges -- the "enemy of my enemy is my friend" rule. This module classifies
triangles and paths, and computes, for a chosen origin node, the sets of
nodes reachable along balanced and unbalanced walks of each length. Those
sets are the semantic ground truth that the two-track aggregation layers in
:mod:`sgcn.model` are built to follow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
import scipy.sparse

from .graph import SignedGraph

__all__ = [
    "PathClass",
    "ReachSets",
    "TriangleCensus",
    "classify_triangle",
    "path_class",
    "reach_sets",
    "triangle_census",
]


class PathClass(enum.Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"


def classify_triangle(s1: int, s2: int, s3: int) -> PathClass:
    """Classify a signed triangle: balanced iff the sign product is +1."""
    for s in (s1, s2, s3):
        if s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s}")
    return PathClass.BALANCED if s1 * s2 * s3 == 1 else PathClass.UNBALANCED


def path_class(signs: Iterable[int]) -> PathClass:
    """Classify a path by its edge signs: balanced iff negatives are even."""
    negatives = 0
    count = 0
    for s in signs:
        if s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s}")
        count += 1
        if s == -1:
            negatives += 1
    if count == 0:
        raise ValueError("empty sign sequence has no class")
    return PathClass.BALANCED if negatives % 2 == 0 else PathClass.UNBALANCED


@dataclass(frozen=True)
class ReachSets:
    """Nodes reachable from ``origin`` along balanced/unbalanced walks.

    ``balanced[l-1]`` / ``unbalanced[l-1]`` hold the nodes at walk length
    ``l`` (1-based, up to the requested maximum). Walks may revisit nodes,
    so a node can appear in both sets at the same length, and the origin can
    appear in its own sets.
    """

    origin: int
    balanced: tuple[frozenset[int], ...]
    unbalanced: tuple[frozenset[int], ...]

    def balanced_at(self, length: int) -> frozenset[int]:
        return self.balanced[length - 1]

    def unbalanced_at(self, length: int) -> frozenset[int]:
        return self.unbalanced[length - 1]


def reach_sets(g: SignedGraph, i: int, max_length: int) -> ReachSets:
    """Compute balanced/unbalanced reach sets for walk lengths ``1..max_length``.

    Length 1 is the positive/negative neighborhood of ``i``. Each longer
    balanced set extends the shorter balanced sets across positive edges and
    the unbalanced sets across negative edges; the unbalanced recursion is
    the mirror image. Sets are plain memberships, not multiplicity counts.
    """
    if not 0 <= i < g.n:
        raise ValueError(f"node id {i} out of range for n={g.n}")
    if max_length < 1:
        raise ValueError(f"walk length must be >= 1, got {max_length}")
    pos, neg = g.adj > 0, g.adj < 0
    # Node masks at the current walk length, starting from the empty walk.
    at_balanced, at_unbalanced = np.arange(g.n) == i, np.zeros(g.n, dtype=bool)
    balanced: list[frozenset[int]] = []
    unbalanced: list[frozenset[int]] = []
    for _ in range(max_length):
        at_balanced, at_unbalanced = (
            (pos @ at_balanced) | (neg @ at_unbalanced),
            (pos @ at_unbalanced) | (neg @ at_balanced),
        )
        balanced.append(frozenset(np.flatnonzero(at_balanced).tolist()))
        unbalanced.append(frozenset(np.flatnonzero(at_unbalanced).tolist()))
    return ReachSets(origin=i, balanced=tuple(balanced), unbalanced=tuple(unbalanced))


class TriangleCensus(NamedTuple):
    """Triangle counts grouped by how many edges are negative."""

    all_positive: int
    one_negative: int
    two_negative: int
    all_negative: int

    @property
    def balanced(self) -> int:
        return self.all_positive + self.two_negative

    @property
    def unbalanced(self) -> int:
        return self.one_negative + self.all_negative

    @property
    def total(self) -> int:
        return self.balanced + self.unbalanced


def triangle_census(g: SignedGraph) -> TriangleCensus:
    """Count each undirected triangle once, bucketed by negative-edge count."""
    upper = scipy.sparse.triu(g.adj, k=1, format="csr")
    by_sign = ((upper > 0).astype(np.int64), (upper < 0).astype(np.int64))  # by negative count
    counts = [0, 0, 0, 0]
    # Each triangle u < v < w is counted once, as the path u-v-w closed by u-w.
    for a, first in enumerate(by_sign):
        for b, second in enumerate(by_sign):
            paths = first @ second
            for c, closing in enumerate(by_sign):
                counts[a + b + c] += int(paths.multiply(closing).sum())
    return TriangleCensus(*counts)
