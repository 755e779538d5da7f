"""Signed-graph data model, edge-list ingestion, and train/test splitting.

A signed network is stored as one sparse signed adjacency matrix in CSR
form, +1 for a positive edge and -1 for a negative one, which every other
module reads as is. Graphs are undirected, simple (no self-loops, no
parallel edges), and a node pair carries at most one sign. Raw datasets are
directed rating streams; they are folded into this undirected form by
:func:`to_undirected`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
]

# The edge-list formats load_edge_list parses.
FORMATS = ("weighted-csv", "signed-tsv")


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidRatingError(ParseError):
    """A rating of zero or a non-finite one, which has no sign."""


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
    the id used in the source data, one distinct id per node. Two graphs are
    equal when they have the same nodes and signed edges, whatever their
    ``raw_ids``.
    """

    adj: scipy.sparse.csr_matrix
    raw_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        for arr in (self.adj.data, self.adj.indices, self.adj.indptr):
            arr.flags.writeable = False
        if self.raw_ids is not None and not len(self.raw_ids) == len(set(self.raw_ids)) == self.n:
            raise ValueError(f"raw_ids must hold {self.n} distinct ids, one per node")

    @staticmethod
    def from_edges(
        n: int,
        edges: np.ndarray | list[tuple[int, int, int]],
        raw_ids: tuple[int, ...] | None = None,
    ) -> "SignedGraph":
        """Build a graph from undirected ``(u, v, sign)`` triples.

        ``edges`` is an ``(E, 3)`` array or a list of triples. Each unordered
        pair may appear once. Node ids that are not whole numbers, self-loops,
        repeated pairs, and signs outside {+1, -1} are rejected; the error
        names the first offending triple.
        """
        triples = np.asarray(edges).reshape(-1, 3)
        with np.errstate(invalid="ignore"):  # NaN, infinity or past int64: refused below
            ends = triples[:, :2].astype(np.int64)
        (u, v), sign = ends.T, triples[:, 2]
        cut = np.any(ends != triples[:, :2], axis=1)
        repeated = np.ones(len(triples), dtype=bool)
        repeated[np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)[1]] = False
        checks = (
            (cut, "edge {row} has a node id that is not a whole int64"),
            ((u < 0) | (u >= n) | (v < 0) | (v >= n), "edge ({u}, {v}) out of range for n={n}"),
            (u == v, "self-loop at node {u}"),
            ((sign != 1) & (sign != -1), "edge ({u}, {v}) has invalid sign {s}"),
            (repeated, "pair ({u}, {v}) listed more than once"),
        )
        flagged = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
        if len(flagged):
            k = flagged[0]
            message = next(text for mask, text in checks if mask[k])
            row = triples[k].tolist()
            raise ValueError(message.format(u=u[k], v=v[k], s=sign[k], n=n, row=row))
        adj = scipy.sparse.csr_matrix(
            (np.r_[sign, sign].astype(np.float64), (np.r_[u, v], np.r_[v, u])), shape=(n, n)
        )
        return SignedGraph(adj=adj, raw_ids=raw_ids)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def edge_array(self) -> np.ndarray:
        """Each edge once as an ``(E, 3)`` int64 row ``(u, v, sign)`` with ``u < v``.

        Rows are ordered by ``u``, positive before negative, then by ``v``.
        """
        rows = np.repeat(np.arange(self.n), np.diff(self.adj.indptr))
        upper = self.adj.indices > rows
        u, v = rows[upper], self.adj.indices[upper].astype(np.int64)
        sign = self.adj.data[upper].astype(np.int64)
        return np.column_stack([u, v, sign])[np.lexsort((v, -sign, u))]

    def edges(self) -> Iterator[SignedEdge]:
        """The rows of :meth:`edge_array`, in its order, as :class:`SignedEdge` tuples."""
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


def load_edge_list(path, format: str) -> np.ndarray:
    """Parse the directed signed edge-list file at ``path`` into an ``(R, 3)`` int64 array.

    Each row is one record ``(u, v, sign)`` in file order, with the raw node
    ids as written. The file is read as UTF-8 text; a byte-order mark at its
    start is skipped. The two :data:`FORMATS` are:

    * ``weighted-csv`` -- comma-separated ``SOURCE,TARGET,RATING[,TIME,...]``
      lines (the Bitcoin trust-network export format). The rating's sign
      becomes the record sign; a zero, infinite or NaN rating is rejected
      because it carries no sign. Any columns after the rating are ignored.
    * ``signed-tsv`` -- tab-separated ``u<TAB>v<TAB>sign`` with sign in
      {1, -1}; lines starting with ``#`` are skipped.

    In both, a node id that does not fit in int64 is rejected, and so is an
    id, rating or sign written with ``_`` or a non-ASCII character, which
    Python's ``int`` and ``float`` would read (``1_0`` as 10, ``\u0665`` as 5).
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    tsv = format == "signed-tsv"
    sep, value_of = ("\t", int) if tsv else (",", float)
    layout = "u<TAB>v<TAB>sign" if tsv else "SOURCE,TARGET,RATING[,...]"
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    records: list[int] = []
    with open(path, "r", encoding="utf-8-sig") as text:
        for line_no, raw_line in enumerate(text, start=1):
            line = raw_line.strip()
            if not line or (tsv and line.startswith("#")):
                continue
            parts = line.split(sep)
            if len(parts) < 3 or (tsv and len(parts) > 3):
                raise ParseError(line_no, f"expected {layout}, got {line!r}")
            # int() and float() would also read "1_0" as 10 and "\u0665" as 5.
            if "_" in line or not line.isascii():
                numerals = "".join(parts[:3])
                if "_" in numerals or not numerals.isascii():
                    raise ParseError(line_no, f"'_' or a non-ASCII character in a numeral of {line!r}")
            try:
                u, v, value = int(parts[0]), int(parts[1]), value_of(parts[2])
            except ValueError:
                raise ParseError(line_no, f"non-numeric field in {line!r}") from None
            if tsv and value not in (1, -1):
                raise ParseError(line_no, f"sign must be 1 or -1, got {value}")
            if value == 0 or not math.isfinite(value):
                raise InvalidRatingError(line_no, f"rating {parts[2].strip()} has no sign")
            if not (low <= u <= high and low <= v <= high):
                raise ParseError(line_no, f"node id does not fit in int64 in {line!r}")
            records += (u, v, 1 if value > 0 else -1)
    return np.array(records, dtype=np.int64).reshape(-1, 3)


def to_undirected(records) -> SignedGraph:
    """Fold directed signed records into an undirected :class:`SignedGraph`.

    ``records`` is an ``(R, 3)`` int64 array of ``(u, v, sign)`` rows, as
    :func:`load_edge_list` returns, or anything ``np.asarray`` turns into
    one. Node ids are compacted to ``0..n-1`` in ascending raw-id order; the
    raw ids survive on ``SignedGraph.raw_ids``. The sign of an unordered pair
    is the sign of the summed record signs, and pairs whose signs cancel are
    dropped (their endpoints stay as nodes). Self-loop records are ignored,
    and their node is kept. A record whose ids are not whole int64 numbers,
    or whose sign is not +1 or -1, is rejected; the error names the first.
    """
    values = np.asarray(records).reshape(-1, 3)
    if not len(values):
        raise ValueError("no records to convert")
    with np.errstate(invalid="ignore"):  # NaN, infinity or past int64: refused below
        records = values.astype(np.int64, copy=False)
    faulty = np.flatnonzero(np.any(records != values, axis=1) | ~np.isin(values[:, 2], (1, -1)))
    if len(faulty):
        k = faulty[0]
        row = values[k].tolist()
        raise ValueError(f"record {k} {row} is not two whole ids and a sign of +1 or -1")
    raw_ids, ends = np.unique(records[:, :2].ravel(), return_inverse=True)
    n = len(raw_ids)
    u, v = ends.reshape(-1, 2).T
    pair = u != v
    u, v = u[pair], v[pair]
    keys, pair_of = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    total = np.bincount(pair_of, weights=records[pair, 2])
    kept = total != 0
    u, v = np.divmod(keys[kept], n)
    edges = np.column_stack([u, v, np.sign(total[kept]).astype(np.int64)])
    return SignedGraph.from_edges(n, edges, raw_ids=tuple(raw_ids.tolist()))


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
    train = SignedGraph.from_edges(g.n, edges[~held], raw_ids=g.raw_ids)
    return EdgeSplit(train=train, test=test)
