import itertools

import numpy as np
import pytest

from sgcn.balance import (
    PathClass,
    classify_triangle,
    path_class,
    reach_sets,
    triangle_census,
)
from sgcn.graph import SignedGraph

from oracles import neighbor_sets, random_signed_graph, walk_reach_by_parity


class TestClassifyTriangle:
    def test_all_positive_is_balanced(self):
        assert classify_triangle(1, 1, 1) is PathClass.BALANCED

    def test_one_positive_two_negative_is_balanced(self):
        assert classify_triangle(1, -1, -1) is PathClass.BALANCED

    def test_two_positive_one_negative_is_unbalanced(self):
        assert classify_triangle(1, 1, -1) is PathClass.UNBALANCED

    def test_all_negative_is_unbalanced(self):
        assert classify_triangle(-1, -1, -1) is PathClass.UNBALANCED

    def test_permutation_invariant(self):
        for signs in itertools.product((1, -1), repeat=3):
            expected = classify_triangle(*signs)
            for perm in itertools.permutations(signs):
                assert classify_triangle(*perm) is expected

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            classify_triangle(1, 0, 1)


class TestPathClass:
    def test_two_negatives_balanced(self):
        assert path_class([-1, -1]) is PathClass.BALANCED

    def test_single_positive_balanced(self):
        assert path_class([1]) is PathClass.BALANCED

    def test_three_negatives_unbalanced(self):
        assert path_class([-1, 1, -1, -1]) is PathClass.UNBALANCED

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            path_class([])

    def test_concatenation_composes_by_parity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = [int(s) for s in rng.choice([1, -1], size=rng.integers(1, 6))]
            q = [int(s) for s in rng.choice([1, -1], size=rng.integers(1, 6))]
            same = path_class(p) is path_class(q)
            assert (path_class(p + q) is PathClass.BALANCED) == same


class TestReachSets:
    def test_positive_then_negative_path(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
        rs = reach_sets(g, 0, 2)
        assert rs.balanced_at(1) == {1}
        assert rs.unbalanced_at(1) == set()
        assert rs.balanced_at(2) == {0}
        assert rs.unbalanced_at(2) == {2}

    def test_isolated_node_all_empty(self):
        g = SignedGraph.from_edges(4, [(1, 2, 1)])
        rs = reach_sets(g, 0, 3)
        for length in (1, 2, 3):
            assert rs.balanced_at(length) == set()
            assert rs.unbalanced_at(length) == set()

    def test_two_negative_hops_become_balanced(self):
        g = SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1), (0, 2, 1)])
        rs = reach_sets(g, 0, 2)
        assert rs.unbalanced_at(1) == {1}
        assert rs.balanced_at(1) == {2}
        assert {2} <= rs.balanced_at(2)

    def test_length_one_is_neighbor_sets(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            g = random_signed_graph(rng, int(rng.integers(2, 12)))
            i = int(rng.integers(g.n))
            rs = reach_sets(g, i, 1)
            pos, neg = neighbor_sets(g, i)
            assert rs.balanced_at(1) == set(pos)
            assert rs.unbalanced_at(1) == set(neg)

    def test_matches_walk_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            g = random_signed_graph(rng, n, edge_prob=float(rng.uniform(0.1, 0.7)))
            origin = int(rng.integers(n))
            max_length = int(rng.integers(1, 4))
            rs = reach_sets(g, origin, max_length)
            balanced, unbalanced = walk_reach_by_parity(g, origin, max_length)
            for length in range(1, max_length + 1):
                assert rs.balanced_at(length) == balanced[length - 1]
                assert rs.unbalanced_at(length) == unbalanced[length - 1]

    def test_argument_errors(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            reach_sets(g, 5, 1)
        with pytest.raises(ValueError):
            reach_sets(g, 0, 0)


class TestTriangleCensus:
    def test_single_all_positive(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert triangle_census(g) == (1, 0, 0, 0)

    def test_single_one_negative(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
        assert triangle_census(g) == (0, 1, 0, 0)

    def test_empty_graph(self):
        g = SignedGraph.from_edges(3, [])
        assert triangle_census(g) == (0, 0, 0, 0)

    def test_counts_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = random_signed_graph(rng, int(rng.integers(3, 12)), edge_prob=0.5)
            sign = {}
            for u, v, s in g.edges():
                sign[(u, v)] = s
            expected = [0, 0, 0, 0]
            for a, b, c in itertools.combinations(range(g.n), 3):
                try:
                    signs = (sign[(a, b)], sign[(b, c)], sign[(a, c)])
                except KeyError:
                    continue
                expected[sum(1 for s in signs if s < 0)] += 1
            census = triangle_census(g)
            assert list(census) == expected
            assert census.balanced + census.unbalanced == census.total
