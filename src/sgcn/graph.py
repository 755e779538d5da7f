"""Signed-graph data model, edge-list ingestion, and train/test splitting.

A signed network is stored as per-node adjacency lists split by edge sign.
Graphs are undirected, simple (no self-loops, no parallel edges), and a node
pair carries at most one sign. Raw datasets are directed rating streams; they
are folded into this undirected form by :func:`to_undirected`.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "SignedGraph",
    "SignedEdge",
    "EdgeSplit",
    "ParseError",
    "InvalidRatingError",
    "load_edge_list",
    "to_undirected",
    "split_train_test",
    "neighbor_sets",
]


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidRatingError(ParseError):
    """A rating of zero, which has no sign."""


class SignedEdge(NamedTuple):
    u: int
    v: int
    sign: int


@dataclass(frozen=True)
class SignedGraph:
    """Immutable undirected signed graph on nodes ``0..n-1``.

    ``pos_adj[i]`` / ``neg_adj[i]`` are sorted tuples of the neighbors of
    ``i`` across positive / negative edges. ``raw_ids``, when present, maps
    each internal node id back to the id used in the source data.
    """

    n: int
    pos_adj: tuple[tuple[int, ...], ...]
    neg_adj: tuple[tuple[int, ...], ...]
    raw_ids: tuple[int, ...] | None = field(default=None, compare=False)

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int, int]],
        raw_ids: tuple[int, ...] | None = None,
    ) -> "SignedGraph":
        """Build a graph from undirected ``(u, v, sign)`` triples.

        Each unordered pair may appear once. Self-loops, repeated pairs, and
        signs outside {+1, -1} are rejected.
        """
        pos: list[set[int]] = [set() for _ in range(n)]
        neg: list[set[int]] = [set() for _ in range(n)]
        for u, v, sign in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if sign not in (1, -1):
                raise ValueError(f"edge ({u}, {v}) has invalid sign {sign}")
            if v in pos[u] or v in neg[u]:
                raise ValueError(f"pair ({u}, {v}) listed more than once")
            side = pos if sign == 1 else neg
            side[u].add(v)
            side[v].add(u)
        return SignedGraph(
            n=n,
            pos_adj=tuple(tuple(sorted(s)) for s in pos),
            neg_adj=tuple(tuple(sorted(s)) for s in neg),
            raw_ids=raw_ids,
        )

    def validate(self) -> None:
        """Re-check the structural invariants; raises ``ValueError`` on any hole."""
        if len(self.pos_adj) != self.n or len(self.neg_adj) != self.n:
            raise ValueError("adjacency length does not match node count")
        for adj in (self.pos_adj, self.neg_adj):
            for i, nbrs in enumerate(adj):
                if list(nbrs) != sorted(set(nbrs)):
                    raise ValueError(f"adjacency of node {i} not sorted/unique")
                if i in nbrs:
                    raise ValueError(f"self-loop at node {i}")
                for j in nbrs:
                    if not 0 <= j < self.n:
                        raise ValueError(f"neighbor {j} of node {i} out of range")
                    if i not in adj[j]:
                        raise ValueError(f"asymmetric edge ({i}, {j})")
        for i in range(self.n):
            overlap = set(self.pos_adj[i]) & set(self.neg_adj[i])
            if overlap:
                raise ValueError(f"pair ({i}, {overlap.pop()}) is both positive and negative")

    def edges(self) -> Iterator[SignedEdge]:
        """Yield each undirected edge once, oriented ``u < v``, sorted."""
        for u in range(self.n):
            for v in self.pos_adj[u]:
                if u < v:
                    yield SignedEdge(u, v, 1)
            for v in self.neg_adj[u]:
                if u < v:
                    yield SignedEdge(u, v, -1)

    @property
    def num_pos_edges(self) -> int:
        return sum(len(a) for a in self.pos_adj) // 2

    @property
    def num_neg_edges(self) -> int:
        return sum(len(a) for a in self.neg_adj) // 2

    @property
    def num_edges(self) -> int:
        return self.num_pos_edges + self.num_neg_edges

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.pos_adj[u] or v in self.neg_adj[u]


@dataclass(frozen=True)
class EdgeSplit:
    """A held-out edge sample: ``train`` keeps all nodes, ``test`` the removed edges."""

    train: SignedGraph
    test: tuple[SignedEdge, ...]
    seed: int


def load_edge_list(source, format: str) -> list[tuple[int, int, int]]:
    """Parse a directed signed edge stream into ``(u, v, sign)`` records.

    ``source`` may be a filesystem path, bytes, or a binary or text file
    object; a file object stays open.
    Two formats are supported:

    * ``weighted-csv`` -- comma-separated ``SOURCE,TARGET,RATING[,TIME,...]``
      lines (the Bitcoin trust-network export format). The rating's sign
      becomes the record sign; a zero rating is rejected because it carries
      no sign. Any columns after the rating are ignored.
    * ``signed-tsv`` -- tab-separated ``u<TAB>v<TAB>sign`` with sign in
      {1, -1}; lines starting with ``#`` are skipped.
    """
    if format not in ("weighted-csv", "signed-tsv"):
        raise ValueError(f"unknown format {format!r}")
    records: list[tuple[int, int, int]] = []
    with _as_text(source) as text:
        for line_no, raw_line in enumerate(text, start=1):
            line = raw_line.strip()
            if not line:
                continue
            if format == "signed-tsv":
                if line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ParseError(line_no, f"expected 3 tab-separated fields, got {len(parts)}")
                try:
                    u, v, sign = (int(p) for p in parts)
                except ValueError:
                    raise ParseError(line_no, f"non-integer field in {line!r}") from None
                if sign not in (1, -1):
                    raise ParseError(line_no, f"sign must be 1 or -1, got {sign}")
            else:
                parts = line.split(",")
                if len(parts) < 3:
                    raise ParseError(line_no, f"expected SOURCE,TARGET,RATING[,...], got {line!r}")
                try:
                    u = int(parts[0])
                    v = int(parts[1])
                    rating = float(parts[2])
                except ValueError:
                    raise ParseError(line_no, f"non-numeric field in {line!r}") from None
                if rating == 0:
                    raise InvalidRatingError(line_no, "rating 0 has no sign")
                sign = 1 if rating > 0 else -1
            records.append((u, v, sign))
    return records


def to_undirected(
    records: list[tuple[int, int, int]], policy: str = "sum-sign"
) -> SignedGraph:
    """Fold directed signed records into an undirected :class:`SignedGraph`.

    Node ids are compacted to ``0..n-1`` in ascending raw-id order; the raw
    ids survive on ``SignedGraph.raw_ids``. Under the ``sum-sign`` policy the
    sign of an unordered pair is the sign of the summed record signs, and
    pairs whose signs cancel are dropped (their endpoints stay as nodes).
    Self-loop records are ignored.
    """
    if policy != "sum-sign":
        raise ValueError(f"unknown conflict policy {policy!r}")
    if not records:
        raise ValueError("no records to convert")
    raw_ids = tuple(sorted({u for u, _, _ in records} | {v for _, v, _ in records}))
    index = {raw: i for i, raw in enumerate(raw_ids)}
    sign_sum: dict[tuple[int, int], int] = {}
    for u, v, sign in records:
        if u == v:
            continue
        a, b = index[u], index[v]
        key = (a, b) if a < b else (b, a)
        sign_sum[key] = sign_sum.get(key, 0) + sign
    edges = [(u, v, 1 if s > 0 else -1) for (u, v), s in sign_sum.items() if s != 0]
    return SignedGraph.from_edges(len(raw_ids), edges, raw_ids=raw_ids)


def split_train_test(g: SignedGraph, test_fraction: float, seed: int) -> EdgeSplit:
    """Hold out a uniform random edge sample without replacement.

    The train graph keeps all ``n`` nodes (edges removed only); the split is
    deterministic for a fixed seed, with ``|test| = round(test_fraction * |E|)``.
    """
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    edges = list(g.edges())
    if len(edges) < 5:
        raise ValueError(f"graph has {len(edges)} edges; need at least 5 to split")
    n_test = int(round(test_fraction * len(edges)))
    rng = np.random.default_rng(seed)
    test_idx = set(rng.choice(len(edges), size=n_test, replace=False).tolist())
    test = tuple(e for i, e in enumerate(edges) if i in test_idx)
    train_edges = [e for i, e in enumerate(edges) if i not in test_idx]
    train = SignedGraph.from_edges(g.n, train_edges, raw_ids=g.raw_ids)
    return EdgeSplit(train=train, test=test, seed=seed)


def neighbor_sets(g: SignedGraph, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return node ``i``'s positive and negative neighbor lists."""
    if not 0 <= i < g.n:
        raise ValueError(f"node id {i} out of range for n={g.n}")
    return g.pos_adj[i], g.neg_adj[i]


@contextmanager
def _as_text(source):
    """Read ``source`` as a text stream; a caller's stream is left open."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as text:
            yield text
    elif isinstance(source, io.TextIOBase):
        yield source
    elif hasattr(source, "read"):
        text = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield text
        finally:
            text.detach()  # closing the wrapper would close the binary stream
    else:
        raise TypeError(f"cannot read edge list from {type(source).__name__}")
