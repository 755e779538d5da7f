"""Artifact files: cached graphs, embeddings, checkpoints, reports, manifests.

Everything written here is byte-deterministic for identical inputs (fixed
zip timestamps, sorted keys), so artifact hashes double as reproducibility
checks.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .graph import SignedGraph
from .model import SgcnConfig, SgcnParams
from .training import LossParts, MlgParams, TrainConfig

__all__ = [
    "save_arrays",
    "load_arrays",
    "save_graph",
    "load_graph",
    "write_id_map",
    "write_embedding_csv",
    "read_embedding_csv",
    "save_checkpoint",
    "load_checkpoint",
    "write_loss_history",
    "write_report_rows",
    "write_aggregate_report",
    "git_blob_sha1",
    "write_manifest",
]

CHECKPOINT_VERSION = 2


def save_arrays(path, **arrays) -> None:
    """Deterministic ``.npz``: sorted member order, fixed zip timestamps."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = _io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_arrays(path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def save_graph(path, g: SignedGraph) -> None:
    edges = g.edge_array()
    pos, neg = edges[edges[:, 2] > 0, :2], edges[edges[:, 2] < 0, :2]
    raw = np.asarray(g.raw_ids if g.raw_ids is not None else range(g.n), dtype=np.int64)
    save_arrays(path, n=np.int64(g.n), pos_edges=pos, neg_edges=neg, raw_ids=raw)


def load_graph(path) -> SignedGraph:
    data = load_arrays(path)
    n = int(data["n"])
    edges = [(int(u), int(v), 1) for u, v in data["pos_edges"]]
    edges += [(int(u), int(v), -1) for u, v in data["neg_edges"]]
    return SignedGraph.from_edges(n, edges, raw_ids=tuple(int(r) for r in data["raw_ids"]))


def write_id_map(path, g: SignedGraph) -> None:
    """CSV mapping internal node ids back to the raw ids in the source data."""
    raw = g.raw_ids if g.raw_ids is not None else tuple(range(g.n))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["internal_id", "raw_id"])
        for i, r in enumerate(raw):
            writer.writerow([i, r])


def write_embedding_csv(path, z: np.ndarray, g: SignedGraph) -> None:
    """Embedding rows keyed by raw node id, one column per dimension."""
    raw = g.raw_ids if g.raw_ids is not None else tuple(range(g.n))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["raw_node_id"] + [f"z_{k + 1}" for k in range(z.shape[1])])
        for i in range(z.shape[0]):
            writer.writerow([raw[i]] + [repr(float(v)) for v in z[i]])


def read_embedding_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (raw ids, embedding matrix)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    z = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64)
    return ids, z


def save_checkpoint(
    path,
    sgcn_cfg: SgcnConfig,
    train_cfg: TrainConfig,
    params: SgcnParams,
    mlg: MlgParams,
    split: dict,
) -> None:
    """Bundle configs, every weight matrix, classifier parameters, and seed.

    ``split`` holds the ``test_fraction``, ``seed`` and ``dataset_sha1`` of
    the train/test split the weights were fit on.
    """
    arrays = {
        "version": np.int64(CHECKPOINT_VERSION),
        "sgcn_cfg": _json_array(asdict(sgcn_cfg)),
        "train_cfg": _json_array(asdict(train_cfg)),
        "split": _json_array(split),
        "mlg_theta": mlg.theta,
        "mlg_bias": mlg.bias,
        "seed": np.int64(params.rng_seed),
    }
    for i, w in enumerate(params.w_friend):
        arrays[f"w_friend_{i}"] = w
    for i, w in enumerate(params.w_enemy):
        arrays[f"w_enemy_{i}"] = w
    save_arrays(path, **arrays)


def load_checkpoint(path) -> tuple[SgcnConfig, TrainConfig, SgcnParams, MlgParams, dict]:
    data = load_arrays(path)
    version = int(data["version"])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    sgcn_cfg = SgcnConfig(**_json_value(data["sgcn_cfg"]))
    train_cfg = TrainConfig(**_json_value(data["train_cfg"]))
    layers = sgcn_cfg.layers
    params = SgcnParams(
        w_friend=[data[f"w_friend_{i}"] for i in range(layers)],
        w_enemy=[data[f"w_enemy_{i}"] for i in range(layers)],
        rng_seed=int(data["seed"]),
    )
    mlg = MlgParams(theta=data["mlg_theta"], bias=data["mlg_bias"])
    return sgcn_cfg, train_cfg, params, mlg, _json_value(data["split"])


def write_loss_history(path, history: list[LossParts]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "mlg_part", "margin_part", "reg_part"])
        for epoch, parts in enumerate(history):
            writer.writerow(
                [
                    epoch,
                    repr(parts.total),
                    repr(parts.classifier),
                    repr(parts.margin),
                    repr(parts.regularizer),
                ]
            )


def write_report_rows(path, rows: list[dict]) -> None:
    """Per-run report CSV: dataset, method, seed, metrics, test counts."""
    fields = ["dataset", "method", "seed", "auc", "f1", "n_test_pos", "n_test_neg"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def write_aggregate_report(path, rows: list[dict]) -> None:
    """Mean/stddev per (dataset, method) over the per-run rows."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["method"]), []).append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset", "method", "n_seeds", "mean_auc", "std_auc", "mean_f1", "std_f1"]
        )
        for (dataset, method), members in sorted(groups.items()):
            aucs = np.array([m["auc"] for m in members], dtype=np.float64)
            f1s = np.array([m["f1"] for m in members], dtype=np.float64)
            writer.writerow(
                [
                    dataset,
                    method,
                    len(members),
                    repr(float(aucs.mean())),
                    repr(float(aucs.std())),
                    repr(float(f1s.mean())),
                    repr(float(f1s.std())),
                ]
            )


def git_blob_sha1(path) -> str:
    """Content hash the way git hashes a blob object."""
    data = Path(path).read_bytes()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def write_manifest(path, command: str, config: dict, inputs: list, outputs: list) -> None:
    """Record everything needed to reproduce a command's outputs."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): git_blob_sha1(p) for p in inputs},
        "outputs": [str(Path(p).name) for p in outputs],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_array(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj, sort_keys=True).encode(), dtype=np.uint8)


def _json_value(arr: np.ndarray):
    return json.loads(arr.tobytes().decode())
