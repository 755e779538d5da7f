import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgcn.evaluation import build_pairs
from sgcn.graph import (
    InvalidRatingError,
    ParseError,
    SignedGraph,
    load_edge_list,
    split_train_test,
    to_undirected,
)

from oracles import fold_records, has_edge, neighbor_sets, random_signed_graph, validate

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
INT64 = np.iinfo(np.int64)

# Each reshapes into valid (u, v, sign) triples, which no reader may do.
WRONG_SHAPES = {
    "six-by-two": np.array([[0, 1], [1, 2], [3, -1], [1, 3], [1, 0], [2, 1]]),
    "two-three-one": np.array([[[0], [1], [1]], [[1], [2], [-1]]]),
    "flat-six": np.array([0, 1, 1, 1, 2, -1]),
}
# The three entry points that read signed rows, on four nodes.
READERS = {
    "from_edges": lambda rows: SignedGraph.from_edges(4, rows),
    "to_undirected": to_undirected,
    "build_pairs": lambda rows: build_pairs(np.ones((4, 2)), rows),
}


def csr(n, data, indices, indptr):
    """A CSR matrix taken as given: no sorting, no summing of duplicates."""
    return scipy.sparse.csr_matrix((np.array(data), np.array(indices), np.array(indptr)),
                                   shape=(n, n))


def parse(tmp_path, data: bytes, format="weighted-csv"):
    """``load_edge_list`` on a file holding ``data``, as a list of rows."""
    path = tmp_path / "edges"
    path.write_bytes(data)
    records = load_edge_list(path, format)
    assert records.dtype == np.int64 and records.shape == (len(records), 3)
    return records.tolist()


class TestLoadEdgeList:
    def test_weighted_csv_positive_rating(self, tmp_path):
        records = parse(tmp_path, b"7,1,10,1416000000.0\n")
        assert records == [[7, 1, 1]]

    def test_weighted_csv_negative_rating(self, tmp_path):
        records = parse(tmp_path, b"3,4,-2,1416000000.0\n")
        assert records == [[3, 4, -1]]

    def test_weighted_csv_zero_rating_rejected(self, tmp_path):
        with pytest.raises(InvalidRatingError) as exc:
            parse(tmp_path, b"3,4,0,1416000000.0\n")
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf"])
    def test_weighted_csv_non_finite_rating_rejected(self, tmp_path, rating):
        with pytest.raises(InvalidRatingError, match=rating) as exc:
            parse(tmp_path, f"1,2,3,0\n2,3,{rating},0\n".encode())
        assert exc.value.line_no == 2

    def test_weighted_csv_without_time_column(self, tmp_path):
        assert parse(tmp_path, b"5,6,3\n") == [[5, 6, 1]]

    def test_malformed_line_names_line_number(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse(tmp_path, b"1,2,5,0\n1,2\n")
        assert exc.value.line_no == 2

    def test_signed_tsv_with_comments(self, tmp_path):
        data = b"# a comment\n1\t2\t1\n2\t3\t-1\n"
        assert parse(tmp_path, data, "signed-tsv") == [[1, 2, 1], [2, 3, -1]]

    def test_signed_tsv_bad_sign(self, tmp_path):
        with pytest.raises(ParseError):
            parse(tmp_path, b"1\t2\t4\n", "signed-tsv")

    @pytest.mark.parametrize("format,line", [("weighted-csv", "{u},{v},1"), ("signed-tsv", "{u}\t{v}\t1")],
                             ids=["weighted-csv", "signed-tsv"])
    @pytest.mark.parametrize("u,v", [(INT64.max + 1, 2), (2, INT64.min - 1)],
                             ids=["past-max", "below-min"])
    def test_id_outside_int64_names_its_line(self, tmp_path, format, line, u, v):
        data = line.format(u=INT64.max, v=INT64.min) + "\n" + line.format(u=u, v=v) + "\n"
        with pytest.raises(ParseError, match="does not fit in int64") as exc:
            parse(tmp_path, data.encode(), format)
        assert exc.value.line_no == 2

    def test_ids_at_the_int64_bounds_kept(self, tmp_path):
        assert parse(tmp_path, f"{INT64.max},{INT64.min},-1\n".encode()) == [[INT64.max, INT64.min, -1]]

    def test_empty_file_gives_no_rows(self, tmp_path):
        assert parse(tmp_path, b"# nothing\n\n", "signed-tsv") == []

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            parse(tmp_path, b"", "json")

    # int() and float() read each of these numerals as a number.
    @pytest.mark.parametrize("format,line", [
        ("weighted-csv", "1_0,2,5"),
        ("weighted-csv", "\uff11,2,5"),
        ("weighted-csv", "1,2,1_0"),
        ("weighted-csv", "1,2,\u0665"),
        ("signed-tsv", "\u0665\t2\t1"),
        ("signed-tsv", "1\t2_0\t-1"),
        ("signed-tsv", "1\t2\t\u0661"),
        # A byte-order mark is skipped at the start of the file only.
        ("weighted-csv", "\ufeff1,2,5"),
        ("signed-tsv", "\ufeff1\t2\t1"),
    ], ids=["csv-underscored-id", "csv-full-width-id", "csv-underscored-rating",
            "csv-arabic-indic-rating", "tsv-arabic-indic-id", "tsv-underscored-id",
            "tsv-arabic-indic-sign", "csv-mid-file-bom", "tsv-mid-file-bom"])
    def test_underscored_or_non_ascii_numeral_names_its_line(self, tmp_path, format, line):
        first = "1,2,5" if format == "weighted-csv" else "1\t2\t1"
        with pytest.raises(ParseError, match="non-ASCII") as exc:
            parse(tmp_path, f"{first}\n{line}\n".encode(), format)
        assert exc.value.line_no == 2

    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    @pytest.mark.parametrize("format,data,records", [
        ("weighted-csv", b"\xef\xbb\xbf1,2,5,0\n3,4,-1,0\n", [[1, 2, 1], [3, 4, -1]]),
        ("signed-tsv", b"\xef\xbb\xbf# a comment\n1\t2\t1\n", [[1, 2, 1]]),
    ], ids=["weighted-csv", "signed-tsv"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, format, data, records):
        assert parse(tmp_path, data, format) == records

    def test_columns_after_the_rating_are_not_numerals(self, tmp_path):
        assert parse(tmp_path, "1,2,5,\u00e9t\u00e9_1\n".encode()) == [[1, 2, 1]]

    @pytest.mark.dataset
    @pytest.mark.parametrize("name,digest", [
        ("bitcoin_alpha.csv", "d569f71374fde2ddde63f29f02a90128da5c4ea9"),
        ("soc-sign-bitcoinotc.csv", "02d988542bdaa9d0d9b55fc2cf2e3f0433a03774"),
    ])
    def test_bitcoin_records_are_pinned(self, name, digest):
        records = load_edge_list(DATA_DIR / name, "weighted-csv")
        assert hashlib.sha1(records.tobytes()).hexdigest() == digest

    def test_accepts_str_and_path(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("1,2,5,0\n")
        assert load_edge_list(p, "weighted-csv").tolist() == [[1, 2, 1]]
        assert load_edge_list(str(p), "weighted-csv").tolist() == [[1, 2, 1]]


# Raw ids as sources store them: a few small ones, so that records repeat,
# oppose, cancel and loop, among sparse ones out to both int64 bounds.
raw_id = st.one_of(st.integers(-2, 6), st.integers(INT64.min, INT64.max),
                   st.sampled_from([INT64.min, INT64.max]))


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
        with pytest.raises(ValueError, match="no records"):
            to_undirected([])
        with pytest.raises(ValueError, match="no records"):
            to_undirected(np.empty((0, 3), dtype=np.int64))

    @pytest.mark.parametrize("records,row", [
        ([[1, 2, 5], [2, 3, 0], [3, 4, -1]], 0),
        ([[1, 2, 1], [2, 3, 0]], 1),
        ([[2, 3, 1], [1.7, 2, 1]], 1),
        ([[1, 2, -1], [2, 3, 1], [3, float("nan"), 1]], 2),
        ([[1, 2, 1], [2, 3, 1], [3, 4, 1.0], [4, 1e19, 1]], 3),
        ([["1", "2", "1"]], 0),
    ], ids=["sign-5", "sign-0", "fractional-id", "nan-id", "id-past-int64", "text"])
    def test_rejects_non_whole_ids_and_non_unit_signs(self, records, row):
        with pytest.raises(ValueError, match=f"^record {row} "):
            to_undirected(records)

    def test_whole_float_records_accepted(self):
        assert to_undirected([(1.0, 2.0, -1.0)]) == to_undirected([(1, 2, -1)])

    def test_invariants_validated(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_signed_graph(rng, int(rng.integers(2, 12)))
            validate(g)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(raw_id, raw_id, st.sampled_from([1, -1])), min_size=1, max_size=40))
    @example([(INT64.max, 3, 1), (3, INT64.max, 1), (INT64.max, 3, 1), (INT64.max, 3, -1),
              (7, 7, -1), (7, 3, -1), (3, 7, 1), (INT64.min, INT64.max, -1)])
    def test_fold_matches_the_dict_fold(self, records):
        raw, edges = fold_records(records)
        expected = np.array(edges, dtype=np.int64).reshape(-1, 3)
        for given_as in (records, np.array(records, dtype=np.int64)):
            g = to_undirected(given_as)
            assert g.raw_ids == raw
            assert np.array_equal(g.edge_array(), expected)


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

    @pytest.mark.parametrize("edges,row", [
        ([(0.5, 1, 1)], [0.5, 1.0, 1.0]),
        ([(0, 1, 1), (1, 2.25, -1)], [1.0, 2.25, -1.0]),
        ([(0, 1, 1), (1, float("inf"), -1)], [1.0, float("inf"), -1.0]),
    ], ids=["first", "second", "infinite"])
    def test_rejects_non_whole_node_id(self, edges, row):
        with pytest.raises(ValueError, match="not a whole int64") as exc:
            SignedGraph.from_edges(3, edges)
        assert str(row) in str(exc.value)

    @pytest.mark.parametrize("raw_ids", [(5, 6), (5, 6, 7, 8), (5, 5, 6)],
                             ids=["short", "long", "repeated"])
    def test_rejects_raw_ids_not_one_distinct_per_node(self, raw_ids):
        with pytest.raises(ValueError, match="raw_ids"):
            SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)], raw_ids=raw_ids)

    # The oracle's invariant check must fail on each kind of malformed adjacency.
    def test_validate_catches_asymmetry(self):
        g = SignedGraph(adj=csr(2, data=[1.0], indices=[1], indptr=[0, 1, 1]))
        with pytest.raises(ValueError, match="not a symmetric CSR matrix"):
            validate(g)

    def test_validate_catches_sign_overlap(self):
        # Pair (0, 1) stored twice, once per sign: a non-canonical CSR.
        g = SignedGraph(adj=csr(2, data=[1.0, -1.0, 1.0, -1.0], indices=[1, 1, 0, 0],
                                indptr=[0, 2, 4]))
        with pytest.raises(ValueError, match="pair \\(0, 1\\) listed more than once"):
            validate(g)

    def test_validate_catches_diagonal_entry(self):
        g = SignedGraph(adj=csr(2, data=[1.0], indices=[0], indptr=[0, 1, 1]))
        with pytest.raises(ValueError, match="self-loop at node 0"):
            validate(g)

    @pytest.mark.parametrize("value", [2.0, 0.0, 0.5, -3.0])
    def test_validate_catches_data_outside_signs(self, value):
        g = SignedGraph(adj=csr(2, data=[value, value], indices=[1, 0], indptr=[0, 1, 2]))
        with pytest.raises(ValueError, match="invalid sign"):
            validate(g)

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
        validate(g)

    def test_equality_ignores_raw_ids_and_listing_order(self):
        a = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)], raw_ids=(5, 6, 7))
        b = SignedGraph.from_edges(3, [(2, 1, -1), (1, 0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert a != SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, -1)])


class TestSignedRows:
    """The one reading of ``(u, v, sign)`` rows behind every entry point."""

    @pytest.mark.parametrize("rows", WRONG_SHAPES.values(), ids=WRONG_SHAPES.keys())
    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_wrong_shape_refused_not_reshaped(self, read, rows):
        refusal = r"an \(E, 3\) array, not " + re.escape(str(rows.shape))
        with pytest.raises(ValueError, match=refusal):
            read(rows)

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "array"])
    def test_no_elements_read_as_no_rows(self, rows):
        assert SignedGraph.from_edges(3, rows).num_edges == 0
        ends, labels = build_pairs(np.ones((3, 2)), rows)
        assert ends.shape == (0, 2) and labels.shape == (0,)


# The oracles' graph helpers: the property tests read the graph through
# them, so each must answer from the adjacency and refuse what it cannot read.
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


class TestHasEdge:
    def test_edges_either_way_round(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0) and has_edge(g, 2, 1)
        assert not has_edge(g, 0, 2)

    def test_node_past_the_end_is_refused(self):
        # Indexing indptr[u + 1] would overrun for u = n.
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
        with pytest.raises(ValueError, match="node id 3 out of range for n=3"):
            has_edge(g, 3, 0)
        with pytest.raises(ValueError, match="node id 3 out of range for n=3"):
            has_edge(g, 0, 3)

    def test_negative_node_is_refused(self):
        # Negative indexing would read another node's row and answer False.
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
        with pytest.raises(ValueError, match="node id -1 out of range for n=3"):
            has_edge(g, -1, 0)
        with pytest.raises(ValueError, match="node id -1 out of range for n=3"):
            has_edge(g, 0, -1)


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

    @pytest.mark.parametrize("fraction,held", [(0.95, 5), (0.05, 0)],
                             ids=["all-held-out", "none-held-out"])
    def test_split_leaving_a_side_empty_refused(self, fraction, held):
        g = SignedGraph.from_edges(6, [(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 5, 1)])
        refusal = f"^test_fraction {fraction} of 5 edges holds out {held};"
        with pytest.raises(ValueError, match=refusal):
            split_train_test(g, fraction, seed=0)

    def test_too_few_edges(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError):
            split_train_test(g, 0.2, seed=0)
