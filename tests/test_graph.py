import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from sgcn.graph import (
    InvalidRatingError,
    ParseError,
    SignedGraph,
    load_edge_list,
    neighbor_sets,
    split_train_test,
    to_undirected,
)

from oracles import random_signed_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def csr(n, data, indices, indptr):
    """A CSR matrix taken as given: no sorting, no summing of duplicates."""
    return scipy.sparse.csr_matrix((np.array(data), np.array(indices), np.array(indptr)),
                                   shape=(n, n))


class TestLoadEdgeList:
    def test_weighted_csv_positive_rating(self):
        records = load_edge_list(b"7,1,10,1416000000.0\n", "weighted-csv")
        assert records == [(7, 1, 1)]

    def test_weighted_csv_negative_rating(self):
        records = load_edge_list(b"3,4,-2,1416000000.0\n", "weighted-csv")
        assert records == [(3, 4, -1)]

    def test_weighted_csv_zero_rating_rejected(self):
        with pytest.raises(InvalidRatingError) as exc:
            load_edge_list(b"3,4,0,1416000000.0\n", "weighted-csv")
        assert exc.value.line_no == 1

    def test_weighted_csv_without_time_column(self):
        assert load_edge_list(b"5,6,3\n", "weighted-csv") == [(5, 6, 1)]

    def test_malformed_line_names_line_number(self):
        data = b"1,2,5,0\n1,2\n"
        with pytest.raises(ParseError) as exc:
            load_edge_list(data, "weighted-csv")
        assert exc.value.line_no == 2

    def test_signed_tsv_with_comments(self):
        data = b"# a comment\n1\t2\t1\n2\t3\t-1\n"
        assert load_edge_list(data, "signed-tsv") == [(1, 2, 1), (2, 3, -1)]

    def test_signed_tsv_bad_sign(self):
        with pytest.raises(ParseError):
            load_edge_list(b"1\t2\t4\n", "signed-tsv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            load_edge_list(b"", "json")

    def test_accepts_path_and_stream(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("1,2,5,0\n")
        assert load_edge_list(p, "weighted-csv") == [(1, 2, 1)]
        with open(p, "rb") as fh:
            assert load_edge_list(fh, "weighted-csv") == [(1, 2, 1)]

    @pytest.mark.parametrize(
        "stream_type, data",
        [(io.StringIO, "1,2,5,0\n"), (io.BytesIO, b"1,2,5,0\n")],
        ids=["text", "binary"],
    )
    def test_leaves_caller_stream_open(self, stream_type, data):
        stream = stream_type(data)
        assert load_edge_list(stream, "weighted-csv") == [(1, 2, 1)]
        assert not stream.closed


class TestToUndirected:
    def test_single_record(self):
        g = to_undirected([(1, 2, 1)])
        assert g.n == 2
        assert list(g.edges()) == [(0, 1, 1)]
        assert g.raw_ids == (1, 2)

    def test_symmetric_agreement_deduplicated(self):
        g = to_undirected([(1, 2, 1), (2, 1, 1)])
        assert list(g.edges()) == [(0, 1, 1)]

    def test_conflicting_signs_drop_pair(self):
        g = to_undirected([(1, 2, 1), (2, 1, -1)])
        assert g.n == 2
        assert list(g.edges()) == []

    def test_sign_of_sum_wins(self):
        g = to_undirected([(1, 2, 1), (2, 1, -1), (1, 2, -1)])
        assert list(g.edges()) == [(0, 1, -1)]

    def test_roundtrip_on_clean_records(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_signed_graph(rng, int(rng.integers(2, 10)))
            records = [(u, v, s) for u, v, s in g.edges()]
            if not records:
                continue
            back = to_undirected(records)
            kept = sorted(i for i in range(g.n) if any(neighbor_sets(g, i)))
            assert back.raw_ids == tuple(kept)
            relabel = {raw: new for new, raw in enumerate(back.raw_ids)}
            original = {(relabel[u], relabel[v], s) for u, v, s in records}
            assert set(back.edges()) == original

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            to_undirected([])

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            to_undirected([(1, 2, 1)], policy="majority")

    def test_invariants_validated(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_signed_graph(rng, int(rng.integers(2, 12)))
            g.validate()


class TestSignedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SignedGraph.from_edges(2, [(0, 0, 1)])

    def test_rejects_double_listing(self):
        with pytest.raises(ValueError):
            SignedGraph.from_edges(2, [(0, 1, 1), (1, 0, -1)])

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            SignedGraph.from_edges(2, [(0, 1, 2)])

    def test_validate_catches_asymmetry(self):
        g = SignedGraph(adj=csr(2, data=[1.0], indices=[1], indptr=[0, 1, 1]))
        with pytest.raises(ValueError, match="not a symmetric CSR matrix"):
            g.validate()

    def test_validate_catches_sign_overlap(self):
        # Pair (0, 1) stored twice, once per sign: a non-canonical CSR.
        g = SignedGraph(adj=csr(2, data=[1.0, -1.0, 1.0, -1.0], indices=[1, 1, 0, 0],
                                indptr=[0, 2, 4]))
        with pytest.raises(ValueError, match="pair \\(0, 1\\) listed more than once"):
            g.validate()

    def test_validate_catches_diagonal_entry(self):
        g = SignedGraph(adj=csr(2, data=[1.0], indices=[0], indptr=[0, 1, 1]))
        with pytest.raises(ValueError, match="self-loop at node 0"):
            g.validate()

    @pytest.mark.parametrize("value", [2.0, 0.0, 0.5, -3.0])
    def test_validate_catches_data_outside_signs(self, value):
        g = SignedGraph(adj=csr(2, data=[value, value], indices=[1, 0], indptr=[0, 1, 2]))
        with pytest.raises(ValueError, match="invalid sign"):
            g.validate()

    def test_adjacency_is_read_only(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
        for arr in (g.adj.data, g.adj.indices, g.adj.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert list(g.edges()) == [(0, 1, 1), (1, 2, -1)]

    def test_adjacency_is_symmetric_signed_csr(self):
        g = SignedGraph.from_edges(3, [(2, 1, -1), (0, 1, 1)])
        assert g.n == 3
        assert np.array_equal(g.adj.toarray(), [[0, 1, 0], [1, 0, -1], [0, -1, 0]])
        assert g.adj.has_sorted_indices
        g.validate()

    def test_equality_ignores_raw_ids_and_listing_order(self):
        a = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)], raw_ids=(5, 6, 7))
        b = SignedGraph.from_edges(3, [(2, 1, -1), (1, 0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert a != SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, -1)])


class TestNeighborSets:
    def test_single_positive_edge(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        assert neighbor_sets(g, 0) == ((1,), ())

    def test_triangle(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1), (0, 2, -1)])
        assert neighbor_sets(g, 2) == ((), (0, 1))

    def test_isolated_node(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1)])
        assert neighbor_sets(g, 2) == ((), ())

    def test_out_of_range(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            neighbor_sets(g, 2)


class TestSplitTrainTest:
    def _grid_graph(self, n=25):
        rng = np.random.default_rng(0)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    edges.append((u, v, 1 if rng.random() < 0.8 else -1))
        return SignedGraph.from_edges(n, edges)

    def test_exact_counts(self):
        g = self._grid_graph()
        total = g.num_edges
        split = split_train_test(g, 0.2, seed=7)
        assert len(split.test) == round(0.2 * total)
        assert split.train.num_edges == total - len(split.test)

    def test_deterministic(self):
        g = self._grid_graph()
        a = split_train_test(g, 0.2, seed=7)
        b = split_train_test(g, 0.2, seed=7)
        assert a.test == b.test
        assert a.train == b.train

    def test_partition_is_exact(self):
        g = self._grid_graph()
        split = split_train_test(g, 0.3, seed=3)
        train_edges = set(split.train.edges())
        test_edges = set(split.test)
        assert train_edges | test_edges == set(g.edges())
        assert not train_edges & test_edges

    def test_train_keeps_all_nodes(self):
        g = self._grid_graph()
        split = split_train_test(g, 0.5, seed=1)
        assert split.train.n == g.n

    def test_fraction_bounds(self):
        g = self._grid_graph()
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_train_test(g, bad, seed=0)

    @pytest.mark.dataset
    def test_bitcoin_alpha_held_out_edges_are_pinned(self):
        # The held-out sample indexes into edges(); any drift in its order
        # (by u, positive before negative, then by v) changes the split.
        g = to_undirected(load_edge_list(DATA_DIR / "bitcoin_alpha.csv", "weighted-csv"))
        test = split_train_test(g, 0.2, seed=0).test
        assert test[:5] == ((1, 3, 1), (1, 5, 1), (1, 9, 1), (1, 23, 1), (1, 29, 1))
        digest = hashlib.sha1(np.array(test, dtype=np.int64).tobytes()).hexdigest()
        assert digest == "654a11c2737e20e1bf35a48d77b14bbf3f0cdaa6"

    def test_too_few_edges(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError):
            split_train_test(g, 0.2, seed=0)
