import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcn import evaluation
from sgcn.evaluation import (
    DegenerateDataError,
    UndefinedMetricError,
    auc,
    build_pairs,
    f1,
    fit_logreg,
    run_experiment,
)
from sgcn.graph import (SignedEdge, SignedGraph, load_edge_list, split_train_test,
                        to_undirected)
from sgcn.spectral import spectral_embedding
from sgcn.training import TrainConfig

from oracles import auc_by_enumeration, logreg_on_pair_features, neighbor_sets, pair_features


def as_pairs(features):
    """Embeddings ``z`` and ``ends`` whose pair features ``[z_u, z_v]`` are ``features``' rows.

    Row ``k`` splits into nodes ``2k`` and ``2k + 1``, the pair ``(2k, 2k + 1)``.
    An odd width gets a zero column, whose weight the penalty holds at zero.
    """
    m, width = features.shape
    if width % 2:
        features = np.hstack([features, np.zeros((m, 1))])
    return features.reshape(2 * m, -1), np.arange(2 * m).reshape(m, 2)


class TestBuildPairs:
    def test_single_edge_row_width(self):
        z = np.arange(12, dtype=float).reshape(3, 4)
        ends, labels = build_pairs(z, [SignedEdge(0, 1, 1)])
        assert ends.tolist() == [[0, 1]]
        features = pair_features(z, ends)
        assert features.shape == (1, 8)
        assert np.array_equal(features[0], np.concatenate([z[0], z[1]]))
        assert labels.tolist() == [1]

    def test_orientation_by_node_id(self):
        z = np.arange(8, dtype=float).reshape(2, 4)
        a_ends, a_labels = build_pairs(z, [SignedEdge(1, 0, -1)])
        b_ends, _ = build_pairs(z, [SignedEdge(0, 1, -1)])
        assert np.array_equal(a_ends, b_ends)
        assert a_labels.tolist() == [0]

    def test_duplicate_edge_duplicates_row(self):
        z = np.ones((2, 3))
        ends, _ = build_pairs(z, [SignedEdge(0, 1, 1)] * 2)
        assert ends.shape == (2, 2)
        assert np.array_equal(ends[0], ends[1])

    def test_empty_edges(self):
        ends, labels = build_pairs(np.ones((2, 3)), [])
        assert ends.shape == (0, 2)
        assert labels.shape == (0,)

    @pytest.mark.parametrize("edge", [SignedEdge(0, 5, 1), SignedEdge(-1, 0, 1)],
                             ids=["past-last", "negative"])
    def test_unknown_node_rejected(self, edge):
        with pytest.raises(ValueError):
            build_pairs(np.ones((2, 3)), [edge])


class TestFitLogreg:
    def test_separable_points_classified_perfectly(self):
        z, ends = as_pairs(np.array([[-2.0, 0.0], [2.0, 0.0]]))
        labels = np.array([0, 1])
        model = fit_logreg(z, ends, labels)
        preds = (model.predict_proba(z, ends) >= 0.5).astype(int)
        assert preds.tolist() == [0, 1]

    def test_constant_features_fit_the_prior(self):
        z, ends = as_pairs(np.ones((10, 3)))
        labels = np.array([1] * 7 + [0] * 3)
        model = fit_logreg(z, ends, labels)
        probs = model.predict_proba(z, ends)
        assert probs == pytest.approx(np.full(10, 0.7), abs=1e-3)

    def test_xor_accuracy_capped_by_linearity(self):
        features = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        # No linear rule beats 3/4 on XOR: verify by brute force over a
        # dense grid of separators, then check the trained model obeys it.
        best = 0
        for w0, w1, b in itertools.product(np.linspace(-2, 2, 9), repeat=3):
            preds = (features @ [w0, w1] + b > 0).astype(int)
            best = max(best, int((preds == labels).sum()))
        assert best == 3
        z, ends = as_pairs(features)
        model = fit_logreg(z, ends, labels)
        preds = (model.predict_proba(z, ends) >= 0.5).astype(int)
        assert int((preds == labels).sum()) <= 3

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_logreg(*as_pairs(np.ones((4, 2))), np.ones(4, dtype=int))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((40, 5))
        labels = (features[:, 0] + 0.3 * rng.standard_normal(40) > 0).astype(int)
        a = fit_logreg(*as_pairs(features), labels)
        b = fit_logreg(*as_pairs(features), labels)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_converges_to_small_gradient(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((200, 4))
        labels = (features @ [1.0, -2.0, 0.5, 0.0] > 0.2).astype(int)
        z, ends = as_pairs(features)
        model = fit_logreg(z, ends, labels)
        m = len(labels)
        p = model.predict_proba(z, ends)
        grad_w = features.T @ (p - labels) / m + 2.0 * model.weights / m
        grad_b = (p - labels).mean()
        assert max(np.abs(grad_w).max(), abs(grad_b)) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), d=st.integers(1, 6),
           pairs_per_node=st.sampled_from([0.3, 1.0, 20.0]))
    def test_matches_the_pair_feature_oracle(self, seed, n, d, pairs_per_node):
        # Drawn with replacement, so pairs repeat, most of all when m >> n.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, d))
        m = max(2, round(pairs_per_node * n))
        ends = np.sort(rng.integers(0, n, size=(m, 2)), axis=1)
        labels = (z[ends].sum(axis=(1, 2)) + rng.standard_normal(m) > 0).astype(np.intp)
        labels[:2] = 0, 1
        held_out = np.sort(rng.integers(0, n, size=(50, 2)), axis=1)
        model = fit_logreg(z, ends, labels)
        weights, intercept, steps = logreg_on_pair_features(pair_features(z, ends), labels)
        scale = np.abs(np.append(weights, intercept)).max()
        assert np.abs(model.weights - weights).max() <= 1e-10 * scale
        assert abs(model.intercept - intercept) <= 1e-10 * scale
        expected = 1.0 / (1.0 + np.exp(-(pair_features(z, held_out) @ weights + intercept)))
        assert np.abs(model.predict_proba(z, held_out) - expected).max() <= 1e-12
        assert model.steps == steps


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5

    def test_hand_enumerated_example(self):
        # pairs: (0.35 vs 0.1) ok, (0.35 vs 0.4) wrong, (0.8 vs both) ok.
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_matches_pairwise_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, size=m)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.standard_normal(m), 1)  # force some ties
            assert auc(scores, labels) == pytest.approx(
                auc_by_enumeration(scores, labels)
            )

    def test_equals_pairwise_count_under_heavy_ties(self):
        # Scores on a few levels, so most pairs are ties. Both sides count
        # halves exactly and divide once, so they agree bit for bit.
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=m)
            labels[:2] = 0, 1
            scores = rng.integers(0, int(rng.integers(1, 6)), size=m) / 4.0
            assert auc(scores, labels) == auc_by_enumeration(scores, labels)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == pytest.approx(auc(2.0 * scores + 1.0, labels))

    def test_complement_under_score_negation(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(25)  # continuous: ties have measure zero
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.2], [1, 1])


class TestF1:
    def test_perfect_predictions(self):
        assert f1([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_no_predicted_positives(self):
        assert f1([0, 0, 0], [1, 1, 0]) == 0.0

    def test_half_right(self):
        assert f1([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 20))
            preds = rng.integers(0, 2, size=m)
            labels = rng.integers(0, 2, size=m)
            value = f1(preds, labels)
            assert 0.0 <= value <= 1.0
            if np.array_equal(preds, labels) and labels.sum() > 0:
                assert value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            f1([], [])


def benchmark_graph(n=40, seed=0):
    rng = np.random.default_rng(seed)
    # Two positive communities with negative links across: learnable signs.
    edges = []
    half = n // 2
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < half) == (v < half)
            if same and rng.random() < 0.3:
                edges.append((u, v, 1))
            elif not same and rng.random() < 0.15:
                edges.append((u, v, -1))
    return SignedGraph.from_edges(n, edges)


class TestRunExperiment:
    def _records(self, g):
        return [(u, v, s) for u, v, s in g.edges()]

    def test_deterministic_end_to_end(self):
        g = benchmark_graph()
        cfg = TrainConfig(epochs=5, batch_nodes=20, pairs_per_class=2, seed=9)
        a = run_experiment(g, "sgcn-2", seed=1, embedding_dim=8, hidden_dim=4,
                           train_cfg=cfg)
        b = run_experiment(g, "sgcn-2", seed=1, embedding_dim=8, hidden_dim=4,
                           train_cfg=cfg)
        assert a == b

    def test_methods_produce_reports_in_range(self):
        g = benchmark_graph()
        cfg = TrainConfig(epochs=5, batch_nodes=20, pairs_per_class=2, seed=9)
        cache = {}
        for method in ("sse", "sgcn-1", "sgcn-1+", "sgcn-2"):
            report = run_experiment(g, method, seed=0, embedding_dim=8,
                                    hidden_dim=4, train_cfg=cfg,
                                    feature_cache=cache)
            assert 0.0 <= report.auc <= 1.0
            assert 0.0 <= report.f1 <= 1.0
            assert report.n_test_pos + report.n_test_neg == len(
                split_train_test(g, 0.2, 0).test
            )

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_experiment(benchmark_graph(), "gcn", seed=0)

    def test_training_memory_returned_before_scoring(self, monkeypatch):
        calls = []
        score = evaluation.score_embeddings
        monkeypatch.setattr(evaluation, "_malloc_trim", lambda pad: calls.append(("trim", pad)))
        monkeypatch.setattr(evaluation, "score_embeddings",
                            lambda z, split: calls.append("score") or score(z, split))
        cfg = TrainConfig(epochs=2, batch_nodes=20, pairs_per_class=2, seed=9)
        for method in ("sse", "sgcn-1"):
            run_experiment(benchmark_graph(), method, seed=0, embedding_dim=8,
                           hidden_dim=4, train_cfg=cfg)
        assert calls == ["score", ("trim", 0), "score"]

    def test_float32_embeddings_score_as_their_float64_copy(self):
        # The probe runs in float64 on an exact copy of the fit's float32 output.
        split = split_train_test(benchmark_graph(), 0.2, seed=0)
        z32 = np.random.default_rng(3).standard_normal((40, 6)).astype(np.float32)
        report = evaluation.score_embeddings(z32, split)
        assert report == evaluation.score_embeddings(z32.astype(np.float64), split)

    def test_held_out_pairs_built_after_the_probe_is_fit(self, monkeypatch):
        # The probe sees the train edges only; the held-out ones are read once it is fit.
        calls = []
        pairs, logreg = evaluation.build_pairs, evaluation.fit_logreg
        monkeypatch.setattr(evaluation, "build_pairs",
                            lambda z, edges: calls.append("pairs") or pairs(z, edges))
        monkeypatch.setattr(evaluation, "fit_logreg",
                            lambda z, ends, y: calls.append("probe") or logreg(z, ends, y))
        split = split_train_test(benchmark_graph(), 0.2, seed=0)
        evaluation.score_embeddings(np.random.default_rng(4).standard_normal((40, 6)), split)
        assert calls == ["pairs", "probe", "pairs"]

    def test_probe_peaks_under_a_quarter_of_the_pair_features(self):
        # Every pair of 200 nodes, so m >> n: the probe's arrays are per node
        # or per pair, never m x 2d like the features [z_u, z_v].
        rng = np.random.default_rng(2)
        n, d = 200, 64
        g = SignedGraph.from_edges(n, [(u, v, int(rng.choice([1, -1])))
                                       for u, v in itertools.combinations(range(n), 2)])
        split = split_train_test(g, 0.2, seed=0)
        z = rng.standard_normal((n, d))
        m = len(split.train.edge_array())
        tracemalloc.start()
        try:
            evaluation.score_embeddings(z, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m * 2 * d * 8

    def test_feature_cache_reused(self):
        g = benchmark_graph()
        cache = {}
        run_experiment(g, "sse", seed=0, embedding_dim=8, feature_cache=cache)
        assert len(cache) == 1
        (split, x) = next(iter(cache.values()))
        run_experiment(g, "sse", seed=0, embedding_dim=8, feature_cache=cache)
        assert next(iter(cache.values()))[1] is x

    def test_shuffled_labels_scores_near_chance(self):
        # Destroying the sign structure must push AUC to ~0.5: relabel each
        # edge with a coin flip and run the full protocol.
        g = benchmark_graph(n=60, seed=3)
        rng = np.random.default_rng(7)
        shuffled = SignedGraph.from_edges(
            g.n, [(u, v, int(rng.choice([1, -1]))) for u, v, s in g.edges()]
        )
        aucs = []
        for seed in range(3):
            report = run_experiment(shuffled, "sse", seed=seed, embedding_dim=8)
            aucs.append(report.auc)
        assert abs(np.mean(aucs) - 0.5) < 0.15

    def test_full_protocol_runs_on_signed_tsv_export(self, tmp_path):
        # Large signed networks arrive as tab-separated sign lists; the
        # whole pipeline must run on such an export without error.
        g = benchmark_graph(n=50, seed=8)
        path = tmp_path / "export.tsv"
        lines = ["# exported signed edges"]
        lines += [f"{u}\t{v}\t{s}" for u, v, s in g.edges()]
        path.write_text("\n".join(lines) + "\n")
        cfg = TrainConfig(epochs=4, batch_nodes=20, pairs_per_class=2, seed=0)
        graph = to_undirected(load_edge_list(path, "signed-tsv"))
        report = run_experiment(graph, "sgcn-2", seed=0, embedding_dim=8, hidden_dim=4,
                                train_cfg=cfg)
        assert 0.0 <= report.auc <= 1.0
        assert report.n_test_pos + report.n_test_neg > 0

    def test_leakage_guard_train_artifacts_identical(self):
        # Feeding the pipeline raw records WITHOUT the test edges must
        # reproduce the train-side features bit for bit.
        g = benchmark_graph(n=30, seed=4)
        split = split_train_test(g, 0.2, seed=11)
        # Rebuild from full records vs train-only records over the same
        # node universe (every node keeps at least one train edge here).
        assert all(
            any(neighbor_sets(split.train, i))
            for i in range(g.n)
            if any(neighbor_sets(g, i))
        )
        full_records = [(u, v, s) for u, v, s in g.edges()]
        train_records = [(u, v, s) for u, v, s in split.train.edges()]
        g_full = to_undirected(full_records)
        g_train_only = to_undirected(train_records)
        split_again = split_train_test(g_full, 0.2, seed=11)
        assert split_again.train == g_train_only
        x_a = spectral_embedding(split_again.train, 8)
        x_b = spectral_embedding(g_train_only, 8)
        assert np.array_equal(x_a, x_b)
