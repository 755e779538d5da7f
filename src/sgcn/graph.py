"""Signed-graph data model, edge-list ingestion, and train/test splitting.

A signed network is stored as one sparse signed adjacency matrix in CSR
form, +1 for a positive edge and -1 for a negative one, which every other
module reads as is. Graphs are undirected, simple (no self-loops, no
parallel edges), and a node pair carries at most one sign. Raw datasets are
directed rating streams; they are folded into this undirected form by
:func:`to_undirected`.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np
import scipy.sparse

__all__ = [
    "FORMATS",
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

# The edge-list formats load_edge_list parses.
FORMATS = ("weighted-csv", "signed-tsv")


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


@dataclass(frozen=True, eq=False)
class SignedGraph:
    """Immutable undirected signed graph on nodes ``0..n-1``.

    ``adj`` is the symmetric ``n x n`` signed adjacency: a CSR matrix with
    sorted, unique column indices in each row, entry ``+1.0`` or ``-1.0``
    per positive or negative edge, and an empty diagonal. Its arrays are
    read-only. ``raw_ids``, when present, maps each internal node id back to
    the id used in the source data. Two graphs are equal when they have the
    same nodes and signed edges, whatever their ``raw_ids``.
    """

    adj: scipy.sparse.csr_matrix
    raw_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        for arr in (self.adj.data, self.adj.indices, self.adj.indptr):
            arr.flags.writeable = False

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int, int]],
        raw_ids: tuple[int, ...] | None = None,
    ) -> "SignedGraph":
        """Build a graph from undirected ``(u, v, sign)`` triples.

        Each unordered pair may appear once. Self-loops, repeated pairs, and
        signs outside {+1, -1} are rejected; the error names the first
        offending triple.
        """
        triples = np.asarray(list(edges)).reshape(-1, 3)
        u, v, sign = triples[:, 0].astype(np.int64), triples[:, 1].astype(np.int64), triples[:, 2]
        repeated = np.ones(len(triples), dtype=bool)
        repeated[np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)[1]] = False
        checks = (
            ((u < 0) | (u >= n) | (v < 0) | (v >= n), "edge ({u}, {v}) out of range for n={n}"),
            (u == v, "self-loop at node {u}"),
            ((sign != 1) & (sign != -1), "edge ({u}, {v}) has invalid sign {s}"),
            (repeated, "pair ({u}, {v}) listed more than once"),
        )
        flagged = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
        if len(flagged):
            k = flagged[0]
            message = next(text for mask, text in checks if mask[k])
            raise ValueError(message.format(u=u[k], v=v[k], s=sign[k], n=n))
        adj = scipy.sparse.csr_matrix(
            (np.r_[sign, sign].astype(np.float64), (np.r_[u, v], np.r_[v, u])), shape=(n, n)
        )
        return SignedGraph(adj=adj, raw_ids=raw_ids)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def validate(self) -> None:
        """Re-check the structural invariants; raises ``ValueError`` on any hole."""
        # adj must be what from_edges builds from its entries on and above the diagonal.
        rows = np.repeat(np.arange(self.n), np.diff(self.adj.indptr))
        entries = np.column_stack([rows, self.adj.indices, self.adj.data])
        rebuilt = SignedGraph.from_edges(self.n, entries[rows <= self.adj.indices].tolist()).adj
        same = [np.array_equal(getattr(self.adj, k), getattr(rebuilt, k))
                for k in ("indptr", "indices", "data")]
        if self.adj.format != "csr" or self.adj.shape != rebuilt.shape or not all(same):
            raise ValueError("adjacency is not a symmetric CSR matrix with sorted indices")

    def edge_array(self) -> np.ndarray:
        """The :meth:`edges` as an ``(E, 3)`` int array of ``(u, v, sign)`` rows."""
        rows = np.repeat(np.arange(self.n), np.diff(self.adj.indptr))
        upper = self.adj.indices > rows
        u, v = rows[upper], self.adj.indices[upper].astype(np.int64)
        sign = self.adj.data[upper].astype(np.int64)
        return np.column_stack([u, v, sign])[np.lexsort((v, -sign, u))]

    def edges(self) -> Iterator[SignedEdge]:
        """Yield each edge once as ``u < v``: by ``u``, positive before negative, then by ``v``."""
        for u, v, sign in self.edge_array().tolist():
            yield SignedEdge(u, v, sign)

    @property
    def num_pos_edges(self) -> int:
        return int(np.count_nonzero(self.adj.data > 0)) // 2

    @property
    def num_neg_edges(self) -> int:
        return int(np.count_nonzero(self.adj.data < 0)) // 2

    @property
    def num_edges(self) -> int:
        return self.adj.nnz // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.indices[self.adj.indptr[u] : self.adj.indptr[u + 1]]

    def __eq__(self, other):
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array(), other.edge_array())

    def __hash__(self):
        return hash((self.n, self.edge_array().tobytes()))


@dataclass(frozen=True)
class EdgeSplit:
    """A held-out edge sample: ``train`` keeps all nodes, ``test`` the removed edges.

    The sample is fixed by the graph, the test fraction and the seed passed
    to :func:`split_train_test`; the caller keeps those, as checkpoints do.
    """

    train: SignedGraph
    test: tuple[SignedEdge, ...]


def load_edge_list(source, format: str) -> list[tuple[int, int, int]]:
    """Parse a directed signed edge stream into ``(u, v, sign)`` records.

    ``source`` may be a filesystem path, bytes, or a binary or text file
    object; a file object stays open.
    The two :data:`FORMATS` are:

    * ``weighted-csv`` -- comma-separated ``SOURCE,TARGET,RATING[,TIME,...]``
      lines (the Bitcoin trust-network export format). The rating's sign
      becomes the record sign; a zero rating is rejected because it carries
      no sign. Any columns after the rating are ignored.
    * ``signed-tsv`` -- tab-separated ``u<TAB>v<TAB>sign`` with sign in
      {1, -1}; lines starting with ``#`` are skipped.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
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


def to_undirected(records: list[tuple[int, int, int]]) -> SignedGraph:
    """Fold directed signed records into an undirected :class:`SignedGraph`.

    Node ids are compacted to ``0..n-1`` in ascending raw-id order; the raw
    ids survive on ``SignedGraph.raw_ids``. The sign of an unordered pair is
    the sign of the summed record signs, and pairs whose signs cancel are
    dropped (their endpoints stay as nodes). Self-loop records are ignored.
    """
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
    edges = g.edge_array()
    if len(edges) < 5:
        raise ValueError(f"graph has {len(edges)} edges; need at least 5 to split")
    n_test = int(round(test_fraction * len(edges)))
    rng = np.random.default_rng(seed)
    held = np.zeros(len(edges), dtype=bool)
    held[rng.choice(len(edges), size=n_test, replace=False)] = True
    test = tuple(SignedEdge(*e) for e in edges[held].tolist())
    train = SignedGraph.from_edges(g.n, edges[~held].tolist(), raw_ids=g.raw_ids)
    return EdgeSplit(train=train, test=test)


def neighbor_sets(g: SignedGraph, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return node ``i``'s positive and negative neighbors, each sorted."""
    if not 0 <= i < g.n:
        raise ValueError(f"node id {i} out of range for n={g.n}")
    row = slice(g.adj.indptr[i], g.adj.indptr[i + 1])
    nbrs, signs = g.adj.indices[row], g.adj.data[row]
    return tuple(nbrs[signs > 0].tolist()), tuple(nbrs[signs < 0].tolist())


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
