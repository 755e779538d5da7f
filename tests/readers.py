"""Readers of the artifact files the CLI writes, for the tests that check them.

The package only writes ``graph.npz`` and ``embeddings.csv``; these read
them back with numpy and the standard library alone.
"""

from __future__ import annotations

import csv

import numpy as np

from sgcn.graph import SignedGraph


def load_graph(path) -> SignedGraph:
    """The graph :func:`sgcn.io.save_graph` wrote to ``path``."""
    with np.load(path, allow_pickle=False) as data:
        edges = np.concatenate([np.insert(data["pos_edges"], 2, 1, axis=1),
                                np.insert(data["neg_edges"], 2, -1, axis=1)])
        return SignedGraph.from_edges(int(data["n"]), edges, raw_ids=tuple(data["raw_ids"].tolist()))


def read_embedding_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The raw ids and the embedding matrix :func:`sgcn.io.write_embedding_csv` wrote."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    z = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    return ids, z
