import hashlib
import json

import numpy as np
import pytest

from sgcn import io as artifacts
from sgcn.graph import SignedGraph
from sgcn.model import SgcnConfig, init_params
from sgcn.training import LossParts, MlgParams, TrainConfig

from oracles import random_signed_graph


def test_save_arrays_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    data = {"b": rng.standard_normal((3, 4)), "a": np.arange(5)}
    p1, p2 = tmp_path / "one.npz", tmp_path / "two.npz"
    artifacts.save_arrays(p1, **data)
    artifacts.save_arrays(p2, **data)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = artifacts.load_arrays(p1)
    assert np.array_equal(loaded["a"], data["a"])
    assert np.array_equal(loaded["b"], data["b"])


def test_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    g = random_signed_graph(rng, 9, edge_prob=0.5)
    path = tmp_path / "graph.npz"
    artifacts.save_graph(path, g)
    back = artifacts.load_graph(path)
    assert back.n == g.n
    assert set(back.edges()) == set(g.edges())
    assert back.raw_ids == tuple(range(g.n))


def test_id_map_csv(tmp_path):
    g = SignedGraph.from_edges(2, [(0, 1, 1)], raw_ids=(10, 42))
    path = tmp_path / "id_map.csv"
    artifacts.write_id_map(path, g)
    assert path.read_text().splitlines() == ["internal_id,raw_id", "0,10", "1,42"]


def test_embedding_csv_roundtrip(tmp_path):
    g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)], raw_ids=(7, 8, 11))
    z = np.random.default_rng(2).standard_normal((3, 4))
    path = tmp_path / "embeddings.csv"
    artifacts.write_embedding_csv(path, z, g)
    header = path.read_text().splitlines()[0]
    assert header == "raw_node_id,z_1,z_2,z_3,z_4"
    ids, back = artifacts.read_embedding_csv(path)
    assert ids.tolist() == [7, 8, 11]
    assert np.array_equal(back, z)


def test_checkpoint_roundtrip(tmp_path):
    sgcn_cfg = SgcnConfig(d_in=6, d_hidden=4, layers=2)
    train_cfg = TrainConfig(seed=3, epochs=10)
    params = init_params(sgcn_cfg, seed=3)
    mlg = MlgParams(theta=np.random.default_rng(3).standard_normal((3, 16)),
                    bias=np.array([0.1, -0.2, 0.0]))
    split = {"test_fraction": 0.2, "seed": 3, "dataset_sha1": "0" * 40}
    path = tmp_path / "checkpoint.npz"
    artifacts.save_checkpoint(path, sgcn_cfg, train_cfg, params, mlg, split)
    cfg2, tcfg2, params2, mlg2, split2 = artifacts.load_checkpoint(path)
    assert cfg2 == sgcn_cfg
    assert split2 == split
    assert tcfg2 == train_cfg
    assert params2.rng_seed == params.rng_seed
    for a, b in zip(params.all_weights(), params2.all_weights()):
        assert np.array_equal(a, b)
    assert np.array_equal(mlg2.theta, mlg.theta)
    assert np.array_equal(mlg2.bias, mlg.bias)


def test_loss_history_csv(tmp_path):
    history = [LossParts(1.0, 0.5, 0.25), LossParts(0.8, 0.4, 0.2)]
    path = tmp_path / "loss.csv"
    artifacts.write_loss_history(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,mlg_part,margin_part,reg_part"
    assert lines[1].split(",") == ["0", "1.75", "1.0", "0.5", "0.25"]


def test_report_and_aggregate(tmp_path):
    rows = [
        dict(dataset="d", method="sse", seed=s, auc=0.7 + 0.01 * s, f1=0.9,
             n_test_pos=10, n_test_neg=2)
        for s in range(3)
    ]
    report = tmp_path / "report.csv"
    agg = tmp_path / "aggregate.csv"
    artifacts.write_report_rows(report, rows)
    artifacts.write_aggregate_report(agg, rows)
    assert report.read_text().splitlines()[0] == (
        "dataset,method,seed,auc,f1,n_test_pos,n_test_neg"
    )
    line = agg.read_text().splitlines()[1].split(",")
    assert line[:3] == ["d", "sse", "3"]
    assert float(line[3]) == pytest.approx(0.71)


def test_git_blob_sha1_matches_git_object_format(tmp_path):
    payload = b"what is up, doc?"
    path = tmp_path / "blob.txt"
    path.write_bytes(payload)
    expected = hashlib.sha1(b"blob 16\x00" + payload).hexdigest()
    assert artifacts.git_blob_sha1(path) == expected


def test_manifest_contents(tmp_path):
    src = tmp_path / "input.csv"
    src.write_text("1,2,3,0\n")
    out = tmp_path / "manifest.json"
    artifacts.write_manifest(out, "ingest", {"seed": 1}, [src], [tmp_path / "x.npz"])
    manifest = json.loads(out.read_text())
    assert manifest["command"] == "ingest"
    assert manifest["config"] == {"seed": 1}
    assert manifest["inputs"] == {str(src): artifacts.git_blob_sha1(src)}
    assert manifest["outputs"] == ["x.npz"]
