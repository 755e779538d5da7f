import hashlib
import json
import re

import numpy as np
import pytest

from sgcn import io as artifacts
from sgcn.cli import main
from sgcn.graph import SignedGraph
from sgcn.model import SgcnConfig, init_params
from sgcn.training import LossParts, MlgParams, TrainConfig

from oracles import random_signed_graph
from readers import load_graph, read_embedding_csv


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
    back = load_graph(path)
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
    ids, back = read_embedding_csv(path)
    assert ids.tolist() == [7, 8, 11]
    assert np.array_equal(back, z)


def test_checkpoint_roundtrip(tmp_path):
    sgcn_cfg = SgcnConfig(d_in=6, d_hidden=4, layers=2)
    train_cfg = TrainConfig(seed=3, epochs=10)
    params = init_params(sgcn_cfg, seed=3)
    mlg = MlgParams(theta=np.random.default_rng(3).standard_normal((3, 16)),
                    bias=np.array([0.1, -0.2, 0.0]))
    embeddings = np.random.default_rng(4).standard_normal((5, 8))
    split = {"test_fraction": 0.2, "seed": 3, "dataset_sha1": "0" * 40}
    path = tmp_path / "checkpoint.npz"
    artifacts.save_checkpoint(path, sgcn_cfg, train_cfg, params, mlg, embeddings, split)
    cfg2, tcfg2, params2, mlg2, embeddings2, split2 = artifacts.load_checkpoint(path)
    assert cfg2 == sgcn_cfg
    assert split2 == split
    assert tcfg2 == train_cfg
    for a, b in zip(params.all_weights(), params2.all_weights()):
        assert np.array_equal(a, b)
    assert np.array_equal(mlg2.theta, mlg.theta)
    assert np.array_equal(mlg2.bias, mlg.bias)
    assert embeddings2.dtype == embeddings.dtype
    assert embeddings2.tobytes() == embeddings.tobytes()


def test_version_2_checkpoint_refused(tmp_path):
    # Version 2 stored the seed twice and a classifier_bias flag that
    # TrainConfig no longer has; the version check must come first.
    sgcn_cfg = SgcnConfig(d_in=2, d_hidden=2, layers=1)
    path = tmp_path / "checkpoint.npz"
    artifacts.save_checkpoint(path, sgcn_cfg, TrainConfig(), init_params(sgcn_cfg, 0),
                              MlgParams.zeros(4), np.zeros((3, 4)), {})
    arrays = artifacts.load_arrays(path)
    del arrays["embeddings"]
    train_cfg = {**json.loads(arrays["train_cfg"].tobytes()), "classifier_bias": True}
    arrays.update(version=np.int64(2), seed=np.int64(0),
                  train_cfg=np.frombuffer(json.dumps(train_cfg).encode(), dtype=np.uint8))
    artifacts.save_arrays(path, **arrays)
    with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
        artifacts.load_checkpoint(path)


@pytest.mark.parametrize("version", [3, 4, 5])
def test_older_checkpoint_version_refused(tmp_path, version):
    # Version 3 stored no embeddings, which eval now scores in place of a
    # second forward pass. Versions 3 and 4 gave an sgcn-1+ later layer
    # 3*d_hidden-wide weights, a third of them acting on nothing. Versions
    # up to 5 recorded the split alone, without the method and widths. The
    # version check must come first.
    sgcn_cfg = SgcnConfig(d_in=2, d_hidden=2, layers=2, variant="plus")
    path = tmp_path / "checkpoint.npz"
    artifacts.save_checkpoint(path, sgcn_cfg, TrainConfig(), init_params(sgcn_cfg, 0),
                              MlgParams.zeros(4), np.zeros((3, 4)), {})
    arrays = artifacts.load_arrays(path)
    arrays["split"] = arrays.pop("protocol")
    if version == 3:
        del arrays["embeddings"]
    if version < 5:
        arrays.update(w_friend_1=np.zeros((2, 6)), w_enemy_1=np.zeros((2, 6)))
    arrays["version"] = np.int64(version)
    artifacts.save_arrays(path, **arrays)
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}; "
                                         "run `sgcn train` again"):
        artifacts.load_checkpoint(path)


@pytest.mark.parametrize("name, write", [
    ("graph.npz", artifacts.save_graph),
    ("id_map.csv", artifacts.write_id_map),
], ids=["npz-without-version", "csv"])
def test_file_that_is_not_a_checkpoint_refused(tmp_path, name, write):
    # An .npz archive without a version member, and a file numpy cannot
    # open as one, are both named as what they are not.
    path = tmp_path / name
    write(path, SignedGraph.from_edges(2, [(0, 1, 1)]))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not an sgcn checkpoint"):
        artifacts.load_checkpoint(path)


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


def _triangles_via_cli(path):
    data = path.parent / "edges.csv"
    data.write_text("1,2,1\n2,3,1\n1,3,-1\n")
    assert main(["triangles", "--dataset", str(data), "--out", str(path.parent)]) == 0


_PAIR = SignedGraph.from_edges(2, [(0, 1, 1)], raw_ids=(10, 42))
_ROW = dict(dataset="toy", method="sgcn-2", seed=3, auc=0.75, f1=0.5, n_test_pos=4, n_test_neg=2)
# Each CSV artifact's writer, and the exact bytes of its header and first row.
_CSV_ARTIFACTS = {
    "id_map": (lambda p: artifacts.write_id_map(p, _PAIR), b"internal_id,raw_id\r\n0,10\r\n"),
    "embeddings": (
        lambda p: artifacts.write_embedding_csv(p, np.array([[0.5, -1.25], [2.0, 0.0]]), _PAIR),
        b"raw_node_id,z_1,z_2\r\n10,0.5,-1.25\r\n",
    ),
    "loss_history": (
        lambda p: artifacts.write_loss_history(p, [LossParts(1.0, 0.25, 0.125)]),
        b"epoch,mean_loss,mlg_part,margin_part,reg_part\r\n0,1.375,1.0,0.25,0.125\r\n",
    ),
    "report": (
        lambda p: artifacts.write_report_rows(p, [_ROW]),
        b"dataset,method,seed,auc,f1,n_test_pos,n_test_neg\r\ntoy,sgcn-2,3,0.75,0.5,4,2\r\n",
    ),
    "aggregate": (
        lambda p: artifacts.write_aggregate_report(p, [_ROW, {**_ROW, "seed": 4, "auc": 0.25}]),
        b"dataset,method,n_seeds,mean_auc,std_auc,mean_f1,std_f1\r\n"
        b"toy,sgcn-2,2,0.5,0.25,0.5,0.0\r\n",
    ),
    "triangles": (_triangles_via_cli, b"type,count\r\nall_positive,0\r\n"),
}


@pytest.mark.parametrize("name", _CSV_ARTIFACTS)
def test_csv_artifact_header_and_first_row_bytes(tmp_path, name):
    write, expected = _CSV_ARTIFACTS[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert b"".join(path.read_bytes().splitlines(keepends=True)[:2]) == expected


def test_report_writes_every_key_of_its_rows(tmp_path):
    # The columns are the rows' keys, so a field added to EvalReport
    # reaches report.csv without a second list to update.
    path = tmp_path / "report.csv"
    artifacts.write_report_rows(path, [{**_ROW, "extra": 7}, {**_ROW, "seed": 4, "extra": 8}])
    assert path.read_text().splitlines() == [
        "dataset,method,seed,auc,f1,n_test_pos,n_test_neg,extra",
        "toy,sgcn-2,3,0.75,0.5,4,2,7",
        "toy,sgcn-2,4,0.75,0.5,4,2,8",
    ]


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
