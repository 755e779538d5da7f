"""Each output check passes on the program's output and fails once it is damaged.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json

import numpy as np
import pytest

import checks
import sgcn.io
from sgcn.balance import triangle_census
from sgcn.evaluation import auc, run_experiment
from sgcn.graph import load_edge_list, split_train_test, to_undirected
from sgcn.model import SgcnConfig
from sgcn.spectral import spectral_embedding
from sgcn.training import TrainConfig, fit


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Two factions with noisy signs, plus three small balanced fragments."""
    rng = np.random.default_rng(7)
    lines = []
    n = 80
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.08:
                sign = 1 if (u < n // 2) == (v < n // 2) else -1
                if rng.random() < 0.1:
                    sign = -sign
                lines.append(f"{u + 100},{v + 100},{sign * int(rng.integers(1, 10))},0")
    lines += ["1,2,3,0", "2,3,-4,0", "4,5,1,0", "6,7,-2,0", "6,8,-2,0"]
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    graph = to_undirected(load_edge_list(str(path), "weighted-csv"))
    return path, graph, checks.reference_graph(path)


@pytest.fixture(scope="module")
def split(dataset):
    return split_train_test(dataset[1], 0.2, seed=3)


def _fails(match, fn, *args, **kwargs):
    with pytest.raises(checks.CheckFailed, match=match):
        fn(*args, **kwargs)


def test_ingest(dataset):
    _, graph, ref = dataset
    checks.check_ingest(graph.n, graph.num_pos_edges, graph.num_neg_edges, ref)
    _fails("positive", checks.check_ingest, graph.n, graph.num_pos_edges - 1, graph.num_neg_edges, ref)
    _fails("n=", checks.check_ingest, graph.n + 1, graph.num_pos_edges, graph.num_neg_edges, ref)


def test_split(dataset, split):
    ref = dataset[2]
    train, test = list(split.train.edges()), list(split.test)
    n_pos = sum(1 for e in test if e.sign > 0)
    checks.check_split(train, test, ref, 0.2, n_pos)
    _fails("also train edges", checks.check_split, train + [test[0]], test, ref, 0.2, n_pos)
    _fails("differ from the full graph", checks.check_split, train[1:], test, ref, 0.2, n_pos)
    _fails("n_test_pos", checks.check_split, train, test, ref, 0.2, n_pos + 1)


def test_features(dataset, split):
    graph = dataset[1]
    train = list(split.train.edges())
    x = spectral_embedding(split.train, 12)
    checks.check_features(x, graph.n, train)
    nulls = len(checks.balanced_components(graph.n, checks.edge_array(train)))
    assert 2 <= nulls < 10
    swapped = x.copy()
    swapped[:, [nulls, 11]] = x[:, [11, nulls]]
    _fails("not ascending", checks.check_features, swapped, graph.n, train)
    swapped = x.copy()
    swapped[:, [0, 1]] = x[:, [1, 0]]
    _fails("null column 0", checks.check_features, swapped, graph.n, train)
    flipped = x.copy()
    flipped[:3, 5] += 1e-3
    _fails("orthonormal", checks.check_features, flipped, graph.n, train)


def test_census(dataset):
    _, graph, ref = dataset
    census = triangle_census(graph)._asdict()
    assert census["one_negative"] > 0 and census["two_negative"] > 0
    checks.check_census(census, ref.n, ref.edges)
    _fails("triangles", checks.check_census, {**census, "one_negative": census["one_negative"] + 1}, ref.n, ref.edges)
    moved = {**census, "all_positive": census["all_positive"] - 1, "two_negative": census["two_negative"] + 1}
    _fails("all_positive", checks.check_census, moved, ref.n, ref.edges)


def test_history(dataset, split):
    x = spectral_embedding(split.train, 8) * np.sqrt(dataset[1].n)
    cfg = TrainConfig(epochs=30, batch_nodes=40, seed=1)
    result = fit(split.train, x, cfg, SgcnConfig(d_in=8, d_hidden=4))
    rows = [(p.total, p.classifier, p.margin, p.regularizer) for p in result.history]
    checks.check_history(rows, cfg.epochs)
    _fails("loss rows", checks.check_history, rows[:-1], cfg.epochs)
    _fails("not below", checks.check_history, rows[::-1], cfg.epochs)
    rows[4] = (rows[4][0], float("nan"), rows[4][2], rows[4][3])
    _fails("non-finite", checks.check_history, rows, cfg.epochs)


def test_scores(dataset):
    _, graph, _ = dataset
    cache = {}
    report = run_experiment(graph, "sse", 3, embedding_dim=8, feature_cache=cache)
    (split, x), = cache.values()
    train, test = list(split.train.edges()), list(split.test)
    checks.check_scores(report.auc, report.f1, x, train, test)
    _fails("own probe", checks.check_scores, report.auc - 0.01, report.f1, x, train, test)
    _fails("own probe", checks.check_scores, report.auc, report.f1, x[:, ::-1].copy() * 0, train, test)
    _fails("floor", checks.check_scores, report.auc, report.f1, x, train, test, floor=report.auc + 0.01)


def test_pair_auc_matches_rank_auc():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 6, size=200).astype(float)
    labels = rng.integers(0, 2, size=200)
    assert checks.pair_auc(scores, labels) == pytest.approx(auc(scores, labels), abs=1e-12)


def test_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.csv").write_text("1,2,3\n")
    (tmp_path / "out.txt").write_text("x")
    sgcn.io.write_manifest(tmp_path / "m.json", "ingest", {}, inputs=["input.csv"], outputs=["out.txt"])
    checks.check_manifest(tmp_path / "m.json", tmp_path)
    (tmp_path / "input.csv").write_text("1,2,4\n")
    _fails("hash", checks.check_manifest, tmp_path / "m.json", tmp_path)
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["outputs"].append("gone.txt")
    manifest["inputs"] = {"input.csv": checks.blob_sha1(tmp_path / "input.csv")}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    _fails("gone.txt missing", checks.check_manifest, tmp_path / "m.json", tmp_path)
