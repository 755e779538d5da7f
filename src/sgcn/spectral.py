"""Signed spectral embedding: bottom eigenvectors of a signed Laplacian.

The plain signed Laplacian is ``D - A`` where ``A`` holds +1/-1 edge signs
and ``D`` is the diagonal of *absolute* degrees; it is symmetric positive
semidefinite, and a connected graph's smallest eigenvalue is zero exactly
when the graph is balanced (2-colorable across negative edges).

Embeddings use only the degree-normalized form ``I - D^{-1/2} A D^{-1/2}``:
on sparse trust networks the plain operator's bottom eigenvectors are
indicator spikes on isolated nodes and tiny balanced fragments (every such
component contributes an exact zero eigenvalue), which starves the
embedding of any information about the main component. Normalization keeps
fragment eigenvectors at zero but moves isolated nodes to eigenvalue 1, out
of the informative bottom of the spectrum.

One solver computes every embedding narrower than the graph: ARPACK's
shift-invert Lanczos (``scipy.sparse.linalg.eigsh``) on the sparse operator,
started from a fixed seeded vector, so that a fresh process at the same BLAS
thread count repeats the same bits; ARPACK otherwise draws its own random
start. An embedding as wide as
the graph is a full dense eigendecomposition, which ARPACK cannot compute.

The zero eigenvalue has one eigenvector per balanced component (Kunegis et
al., SDM 2010), and an eigensolver may return any orthonormal basis of that
space, one that changes with the solver, the LAPACK build and its thread
count. The embedding therefore replaces the solver's null-space columns with
one canonical vector per balanced component.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .graph import SignedGraph

__all__ = ["signed_laplacian", "spectral_embedding"]


def signed_laplacian(g: SignedGraph) -> np.ndarray:
    """Dense signed Laplacian ``D - A`` with absolute-degree diagonal."""
    if g.n < 1:
        raise ValueError("graph must have at least one node")
    degrees = np.asarray(np.abs(g.adj).sum(axis=1)).ravel()
    lap = -g.adj.toarray()
    lap[np.diag_indices(g.n)] = degrees
    return lap


def _embedding_operator(adj: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    n = adj.shape[0]
    degrees = np.asarray(np.abs(adj).sum(axis=1)).ravel()
    inv_sqrt = np.zeros(n)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    scaled = adj.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    # Isolated nodes keep a bare identity row: eigenvalue 1, away from the
    # informative bottom of the [0, 2] spectrum.
    return scipy.sparse.identity(n, format="csr") - scipy.sparse.csr_matrix(scaled)


def _null_space_basis(adj: scipy.sparse.csr_matrix) -> np.ndarray:
    """Canonical basis of the embedding operator's zero eigenspace.

    There is one column per balanced component of two or more nodes: one
    whose 2-colouring ``c`` in {+1, -1} keeps every positive edge inside a
    colour class and puts every negative edge across. The column is
    ``D^{1/2} c`` on the component, scaled to unit norm. An isolated node
    has no column; the operator puts it at eigenvalue 1. Columns are ordered
    by each component's smallest node id, which the colouring gives +1.
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


def spectral_embedding(g: SignedGraph, d: int, return_eigenvalues: bool = False):
    """Embed nodes with the ``d`` eigenvectors of the smallest eigenvalues.

    Columns are unit-norm eigenvectors of the degree-normalized signed
    Laplacian, ordered by ascending eigenvalue; ``return_eigenvalues`` also
    returns those eigenvalues. The zero-eigenvalue columns are the
    canonical per-component vectors of :func:`_null_space_basis`. Each
    column's sign is then fixed so that its largest-magnitude entry is
    positive. The output is then the same, bit for bit, in every run and
    process at a fixed BLAS thread count. Another thread count may change
    the last bits (the bitcoin-alpha train features of seed 0 hash to SHA-1
    ``260ea3f1...`` at 1 OpenBLAS thread, ``a8f4da87...`` at 2); across
    thread counts and BLAS builds, the columns of simple eigenvalues agree
    up to rounding.
    """
    if not 1 <= d <= g.n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={g.n}")
    operator = _embedding_operator(g.adj)
    if d == g.n:
        vals, vecs = np.linalg.eigh(operator.toarray())
    else:
        # Shift-invert around a point just below the spectrum; the operator
        # is PSD so a negative sigma keeps the factorization nonsingular. The
        # start vector is seeded, uniform on (-1, 1) as in scikit-learn's
        # _init_arpack_v0; ARPACK's own random start differs per process.
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, g.n)
        vals, vecs = scipy.sparse.linalg.eigsh(
            operator.tocsc(), k=d, sigma=-0.01, which="LM", v0=v0
        )
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    null = _null_space_basis(g.adj)[:, :d]
    k = null.shape[1]
    vecs[:, :k] = null
    vals[:k] = 0.0
    for j in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    vecs = np.ascontiguousarray(vecs)
    if return_eigenvalues:
        return vecs, vals
    return vecs
