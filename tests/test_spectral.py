import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgcn import spectral
from sgcn.graph import SignedGraph, load_edge_list, split_train_test, to_undirected
from sgcn.spectral import signed_laplacian, spectral_embedding

from oracles import (
    components,
    is_two_colorable,
    neighbor_sets,
    null_space_basis_by_walk,
    random_signed_graph,
)


class TestSignedLaplacian:
    def test_single_positive_edge(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        assert np.array_equal(signed_laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_negative_edge(self):
        g = SignedGraph.from_edges(2, [(0, 1, -1)])
        assert np.array_equal(signed_laplacian(g), [[1.0, 1.0], [1.0, 1.0]])

    def test_empty_graph(self):
        g = SignedGraph.from_edges(3, [])
        assert np.array_equal(signed_laplacian(g), np.zeros((3, 3)))

    def test_diagonal_is_total_degree(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = random_signed_graph(rng, int(rng.integers(2, 12)))
            lap = signed_laplacian(g)
            degrees = [sum(map(len, neighbor_sets(g, i))) for i in range(g.n)]
            assert np.array_equal(np.diag(lap), degrees)
            assert np.array_equal(lap, lap.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = random_signed_graph(rng, int(rng.integers(1, 13)),
                                    edge_prob=float(rng.uniform(0.1, 0.8)))
            vals = np.linalg.eigvalsh(signed_laplacian(g))
            assert vals.min() >= -1e-9

    def test_zero_eigenvalue_iff_two_colorable_per_component(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            g = random_signed_graph(rng, int(rng.integers(2, 13)),
                                    edge_prob=float(rng.uniform(0.15, 0.8)),
                                    neg_frac=float(rng.uniform(0.1, 0.9)))
            lap = signed_laplacian(g)
            for comp in components(g):
                block = lap[np.ix_(comp, comp)]
                lam_min = float(np.linalg.eigvalsh(block)[0])
                if is_two_colorable(g, comp):
                    assert abs(lam_min) < 1e-9
                else:
                    assert lam_min > 1e-9


def fragmented_graph():
    """Balanced fragments, an unbalanced component and isolated nodes.

    Node ids are shuffled so that the pieces interleave. Returns the graph
    and each balanced fragment as ``(nodes, colouring)``, with the colouring
    known by construction.
    """
    rng = np.random.default_rng(59)
    sizes = (5, 4, 2, 3)
    unbalanced_size, isolated = 10, 2
    n = sum(sizes) + unbalanced_size + isolated
    label = rng.permutation(n).tolist()
    edges, fragments, start = [], [], 0
    for size in sizes:
        nodes = label[start:start + size]
        colour = rng.choice([-1, 1], size=size)
        pairs = {(a, a + 1) for a in range(size - 1)}
        pairs |= {(a, b) for a in range(size) for b in range(a + 2, size)
                  if rng.random() < 0.5}
        edges += [(nodes[a], nodes[b], int(colour[a] * colour[b])) for a, b in pairs]
        fragments.append((nodes, colour))
        start += size
    rest = label[start:start + unbalanced_size]
    # A triangle with one negative edge makes this component unbalanced.
    signs = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    for a in range(2, unbalanced_size - 1):
        signs[(a, a + 1)] = -1 if rng.random() < 0.3 else 1
    for a in range(unbalanced_size):
        for b in range(a + 2, unbalanced_size):
            if (a, b) not in signs and rng.random() < 0.3:
                signs[(a, b)] = -1 if rng.random() < 0.3 else 1
    edges += [(rest[a], rest[b], s) for (a, b), s in signs.items()]
    return SignedGraph.from_edges(n, edges), fragments


def sign_fixed(col):
    lead = np.argmax(np.abs(col))
    return col if col[lead] > 0 else -col


class TestSpectralEmbedding:
    def test_single_positive_edge(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        vecs, vals = spectral_embedding(g, 1, return_eigenvalues=True)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vecs[:, 0] == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_single_negative_edge(self):
        g = SignedGraph.from_edges(2, [(0, 1, -1)])
        vecs, vals = spectral_embedding(g, 1, return_eigenvalues=True)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vecs[:, 0] == pytest.approx([1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_plain_operator_matches_laplacian_eigensystem(self):
        # The embedding's operator, built from the plain Laplacian D - A as
        # D^{-1/2} (D - A) D^{-1/2}, with an identity row for an isolated node.
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_signed_graph(rng, int(rng.integers(2, 12)))
            d = int(rng.integers(1, g.n + 1))
            vecs, vals = spectral_embedding(g, d, return_eigenvalues=True)
            lap = signed_laplacian(g)
            degrees = np.diag(lap)
            inv_sqrt = np.zeros(g.n)
            inv_sqrt[degrees > 0] = 1.0 / np.sqrt(degrees[degrees > 0])
            operator = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
            operator[degrees == 0, degrees == 0] = 1.0
            residual = operator @ vecs - vecs * vals
            assert np.abs(residual).max() < 1e-8
            expected = np.linalg.eigvalsh(operator)[:d]
            assert vals == pytest.approx(expected, abs=1e-9)

    def test_eigenvalues_ascending_and_vectors_orthonormal(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = random_signed_graph(rng, 10, edge_prob=0.5)
            vecs, vals = spectral_embedding(g, 6, return_eigenvalues=True)
            assert np.all(np.diff(vals) >= -1e-12)
            gram = vecs.T @ vecs
            assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(47)
        g = random_signed_graph(rng, 11, edge_prob=0.5)
        a = spectral_embedding(g, 5)
        b = spectral_embedding(g, 5)
        assert np.array_equal(a, b)
        for j in range(a.shape[1]):
            lead = np.argmax(np.abs(a[:, j]))
            assert a[lead, j] > 0

    def test_balanced_graph_minimum_eigenvalue_zero(self):
        # Two positive cliques joined by negative edges: perfectly balanced.
        edges = []
        for u in range(3):
            for v in range(u + 1, 3):
                edges.append((u, v, 1))
                edges.append((u + 3, v + 3, 1))
        edges += [(0, 3, -1), (1, 4, -1)]
        g = SignedGraph.from_edges(6, edges)
        _, vals = spectral_embedding(g, 2, return_eigenvalues=True)
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        assert is_two_colorable(g)

    def test_d_out_of_range(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            spectral_embedding(g, 3)
        with pytest.raises(ValueError):
            spectral_embedding(g, 0)

    def test_normalized_operator_residual(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            g = random_signed_graph(rng, 9, edge_prob=0.5)
            vecs, vals = spectral_embedding(g, 4, return_eigenvalues=True)
            from sgcn.spectral import _embedding_operator

            op = _embedding_operator(g.adj).toarray()
            residual = op @ vecs - vecs * vals
            assert np.abs(residual).max() < 1e-8

    def test_null_space_columns_are_canonical(self):
        g, fragments = fragmented_graph()
        degrees = np.array([sum(map(len, neighbor_sets(g, v))) for v in range(g.n)])
        pieces = sorted(fragments, key=lambda piece: min(piece[0]))
        expected = np.zeros((g.n, len(pieces)))
        for j, (nodes, colour) in enumerate(pieces):
            col = np.zeros(g.n)
            col[nodes] = colour
            col *= np.sqrt(degrees)
            expected[:, j] = sign_fixed(col / np.linalg.norm(col))
        k = len(pieces)
        vecs, vals = spectral_embedding(g, k + 3, return_eigenvalues=True)
        assert np.abs(vecs[:, :k] - expected).max() < 1e-12
        assert np.all(vals[:k] == 0.0) and vals[k] > 1e-3

    def test_dense_and_sparse_solvers_agree(self):
        # A dense eigendecomposition of the same operator is the oracle.
        # Beyond the null space an eigenvector is fixed up to sign only when
        # its eigenvalue is simple, so only those columns are compared; the
        # null columns are compared by the space they span.
        g, _ = fragmented_graph()
        d = 12
        vecs, vals = spectral_embedding(g, d, return_eigenvalues=True)
        operator = spectral._embedding_operator(g.adj).toarray()
        spectrum, basis = np.linalg.eigh(operator)
        assert np.abs(vals - spectrum[:d]).max() < 1e-10
        gap = np.diff(spectrum)
        below = np.concatenate([[np.inf], gap])[:d]
        simple = (below > 1e-6) & (gap[:d] > 1e-6)
        null = spectrum[:d] < 1e-9
        assert null.sum() >= 4 and simple[~null].sum() >= 2
        oracle_null = basis[:, :d][:, null]
        projector = vecs[:, null] @ vecs[:, null].T
        assert np.abs(projector - oracle_null @ oracle_null.T).max() < 1e-8
        for j in np.flatnonzero(simple & ~null):
            assert np.abs(vecs[:, j] - sign_fixed(basis[:, j])).max() < 1e-8

    def test_full_width_embedding(self):
        # d == n is the one width the sparse solver cannot compute.
        rng = np.random.default_rng(61)
        g = random_signed_graph(rng, 9, edge_prob=0.5)
        vecs, vals = spectral_embedding(g, g.n, return_eigenvalues=True)
        assert vecs.shape == (g.n, g.n)
        assert np.abs(vecs.T @ vecs - np.eye(g.n)).max() < 1e-10
        operator = spectral._embedding_operator(g.adj).toarray()
        assert vals == pytest.approx(np.linalg.eigvalsh(operator), abs=1e-10)
        assert np.abs(operator @ vecs - vecs * vals).max() < 1e-10

    def test_same_bytes_in_fresh_processes(self):
        # ARPACK's own start vector differs per process; the fixed one makes
        # the embedding repeat bit for bit.
        rng = np.random.default_rng(67)
        g = random_signed_graph(rng, 300, edge_prob=0.02)
        code = (
            "import json, sys\n"
            "from sgcn.graph import SignedGraph\n"
            "from sgcn.spectral import spectral_embedding\n"
            "n, edges = json.load(sys.stdin)\n"
            "g = SignedGraph.from_edges(n, [tuple(e) for e in edges])\n"
            "sys.stdout.write(spectral_embedding(g, 20).tobytes().hex())\n"
        )
        src = str(Path(spectral.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        payload = json.dumps([g.n, g.edge_array().tolist()])
        runs = [
            subprocess.run([sys.executable, "-c", code], input=payload, env=env,
                           capture_output=True, text=True, check=True, timeout=120).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] == spectral_embedding(g, 20).tobytes().hex()


@st.composite
def fragmented_graphs(draw):
    """A random signed core, balanced fragments and isolated nodes, shuffled.

    Returns the graph and a width ``1 <= d < n``.
    """
    core = draw(st.integers(0, 25))
    fragments = draw(st.lists(st.integers(2, 4), max_size=3))
    isolated = draw(st.integers(0, 3))
    n = core + sum(fragments) + isolated
    assume(n >= 2)
    label = draw(st.permutations(range(n)))
    edges = {}
    if core >= 2:
        pairs = st.tuples(st.integers(0, core - 1), st.integers(0, core - 1))
        for u, v in draw(st.lists(pairs, max_size=3 * core)):
            if u != v:
                edges.setdefault((min(u, v), max(u, v)), draw(st.sampled_from([1, -1])))
    start = core
    for size in fragments:
        colour = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
        for a in range(size - 1):
            edges[(start + a, start + a + 1)] = colour[a] * colour[a + 1]
        start += size
    triples = [(label[u], label[v], sign) for (u, v), sign in edges.items()]
    return SignedGraph.from_edges(n, triples), draw(st.integers(1, n - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fragmented_graphs())
def test_sparse_solve_is_an_orthonormal_bottom_eigenbasis(case):
    # Columns of repeated eigenvalues are not unique, so each column is
    # checked as an eigenvector and against its neighbours, not against an
    # oracle's basis.
    g, d = case
    vecs, vals = spectral_embedding(g, d, return_eigenvalues=True)
    operator = spectral._embedding_operator(g.adj).toarray()
    assert np.abs(vals - np.linalg.eigvalsh(operator)[:d]).max() < 1e-10
    assert np.abs(vecs.T @ vecs - np.eye(d)).max() < 1e-10
    assert np.abs(operator @ vecs - vecs * vals).max() < 1e-10


def test_narrow_width_finds_every_bottom_eigenvalue():
    # A 31-node draw of fragmented_graphs with five zero eigenvalues. With
    # scipy's default basis of 20 Lanczos vectors for d = 9, ARPACK skips
    # the sixth eigenvalue, 0.1097, and returns the seventh in its place.
    edges = [(1, 16, -1), (2, 19, 1), (4, 6, 1), (4, 11, 1), (4, 24, 1), (5, 9, 1),
             (7, 28, 1), (10, 11, 1), (10, 23, -1), (11, 18, -1), (12, 21, 1),
             (12, 27, 1), (12, 23, -1), (13, 21, -1), (13, 24, -1), (14, 17, 1),
             (16, 24, -1), (16, 29, -1), (19, 28, -1), (20, 22, -1)]
    g = SignedGraph.from_edges(31, edges)
    _, vals = spectral_embedding(g, 9, return_eigenvalues=True)
    operator = spectral._embedding_operator(g.adj).toarray()
    assert np.abs(vals - np.linalg.eigvalsh(operator)[:9]).max() < 1e-10


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fragmented_graphs())
def test_null_space_basis_matches_the_walk(case):
    g, _ = case
    basis, walk = spectral._null_space_basis(g.adj), null_space_basis_by_walk(g.adj)
    assert basis.shape == walk.shape
    assert basis.tobytes() == walk.tobytes()


def seed0_train(name):
    data = Path(__file__).resolve().parent.parent / "data" / name
    graph = to_undirected(load_edge_list(data, "weighted-csv"))
    return split_train_test(graph, 0.2, seed=0).train


@pytest.mark.dataset
@pytest.mark.parametrize("name", ["bitcoin_alpha.csv", "soc-sign-bitcoinotc.csv"])
def test_null_space_basis_matches_the_walk_on_bitcoin(name):
    train = seed0_train(name)
    basis, walk = spectral._null_space_basis(train.adj), null_space_basis_by_walk(train.adj)
    assert basis.shape == walk.shape and basis.shape[1] > 0
    assert basis.tobytes() == walk.tobytes()


@pytest.fixture(scope="module")
def alpha_train():
    return seed0_train("bitcoin_alpha.csv")


@pytest.mark.dataset
class TestBitcoinAlphaShiftInvert:
    def test_factor_stays_sparse(self, alpha_train, monkeypatch):
        # A COLAMD ordering of the shifted operator fills its LU to about
        # 1.3 M nonzeros; a symmetric minimum-degree one to about 131 k.
        factors = []
        splu = scipy.sparse.linalg.splu

        def recording_splu(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        spectral_embedding(alpha_train, 64)
        [lu] = factors
        assert lu.L.nnz + lu.U.nnz < 300_000

    def test_traced_peak_is_two_lanczos_bases_and_the_embedding(self, alpha_train):
        # ARPACK's peak holds the n x ncv Lanczos basis, the n x ncv Ritz
        # array it extracts from it and the n x d copy it returns:
        # n * (2 * ncv + d) float64, 256 columns at d = 64 and ncv = 96.
        # The rest of the call (the operator, v0, the null basis) measured
        # 19 columns more, so the bound allows 32. Scipy's default basis,
        # ncv = 2d + 1 = 129, peaks at 343 columns.
        d, ncv = 64, 96
        tracemalloc.start()
        try:
            spectral_embedding(alpha_train, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < alpha_train.n * (2 * ncv + d + 32) * 8

    @pytest.mark.parametrize("d", [32, 64, 128])
    def test_same_eigenpairs_as_default_shift_invert(self, alpha_train, d):
        # scipy's own shift-invert, factored with its default ordering and
        # started from the same vector, then canonicalised the same way; its
        # default basis holds 2d + 1 Lanczos vectors.
        vecs, vals = spectral_embedding(alpha_train, d, return_eigenvalues=True)
        operator = spectral._embedding_operator(alpha_train.adj)
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, alpha_train.n)
        ref_vals, ref_vecs = scipy.sparse.linalg.eigsh(
            operator.tocsc(), k=d, sigma=-0.01, which="LM", v0=v0
        )
        order = np.argsort(ref_vals)
        ref_vals, ref_vecs = ref_vals[order], ref_vecs[:, order]
        null = spectral._null_space_basis(alpha_train.adj)
        k = null.shape[1]
        assert 0 < k < d
        ref_vecs[:, :k] = null
        ref_vecs = np.column_stack([sign_fixed(col) for col in ref_vecs.T])
        assert np.abs(vals - ref_vals).max() < 1e-12
        assert np.array_equal(vecs[:, :k], ref_vecs[:, :k])
        # Beyond the null space a repeated eigenvalue's columns are any basis
        # of its eigenspace, so those are compared by the space they span. At
        # d = 128 this graph has 1 - 1/sqrt(2) twice, in columns 83 and 84.
        close = np.flatnonzero(np.diff(vals) < 1e-6)
        tied = np.zeros(d, dtype=bool)
        tied[close] = tied[close + 1] = True
        tied[:k] = False
        simple = ~tied
        simple[:k] = False
        assert np.abs(vecs[:, simple] - ref_vecs[:, simple]).max() < 1e-10
        ours, theirs = vecs[:, tied], ref_vecs[:, tied]
        assert np.abs(ours - theirs @ (theirs.T @ ours)).max(initial=0.0) < 1e-10
