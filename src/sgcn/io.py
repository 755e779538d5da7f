"""Artifact files: cached graphs, embeddings, checkpoints, reports, the
triangle census, manifests. Every CSV artifact goes through one writer.

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

from .balance import TriangleCensus
from .graph import SignedGraph
from .model import SgcnConfig, SgcnParams
from .training import LossParts, MlgParams, TrainConfig

__all__ = [
    "save_arrays",
    "load_arrays",
    "save_graph",
    "write_id_map",
    "write_embedding_csv",
    "save_checkpoint",
    "load_checkpoint",
    "write_loss_history",
    "write_report_rows",
    "write_aggregate_report",
    "write_census",
    "git_blob_sha1",
    "write_manifest",
]

CHECKPOINT_VERSION = 6


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
    """``n``, ``raw_ids``, and the ``u < v`` pairs of each sign as ``(E, 2)`` int64 arrays."""
    edges = g.edge_array()
    pos, neg = edges[edges[:, 2] > 0, :2], edges[edges[:, 2] < 0, :2]
    raw = np.asarray(_raw_ids(g), dtype=np.int64)
    save_arrays(path, n=np.int64(g.n), pos_edges=pos, neg_edges=neg, raw_ids=raw)


def write_id_map(path, g: SignedGraph) -> None:
    """CSV mapping internal node ids back to the raw ids in the source data."""
    _write_csv(path, ["internal_id", "raw_id"], enumerate(_raw_ids(g)))


def write_embedding_csv(path, z: np.ndarray, g: SignedGraph) -> None:
    """Embedding rows keyed by raw node id, one column per dimension."""
    header = ["raw_node_id"] + [f"z_{k + 1}" for k in range(z.shape[1])]
    rows = ([r, *map(repr, row.tolist())] for r, row in zip(_raw_ids(g), z, strict=True))
    _write_csv(path, header, rows)


def save_checkpoint(
    path,
    sgcn_cfg: SgcnConfig,
    train_cfg: TrainConfig,
    params: SgcnParams,
    mlg: MlgParams,
    embeddings: np.ndarray,
    protocol: dict,
) -> None:
    """Bundle configs, every weight matrix, the classifier parameters and the embeddings.

    ``embeddings`` is the ``n x 2*d_hidden`` matrix the fit ended with,
    which ``eval`` scores without recomputing it. ``protocol`` is the
    command line's link-sign protocol as ``eval`` checks it: the
    ``test_fraction``, ``seed`` and ``dataset_sha1`` of the train/test split
    the weights were fit on, and the ``method``, feature width ``dim`` and
    ``hidden_dim`` of the model; ``train_cfg.seed`` is the initialization
    seed. The format is version 6, and :func:`load_checkpoint` refuses any
    other.
    """
    arrays = {
        "version": np.int64(CHECKPOINT_VERSION),
        "sgcn_cfg": _json_array(asdict(sgcn_cfg)),
        "train_cfg": _json_array(asdict(train_cfg)),
        "protocol": _json_array(protocol),
        "mlg_theta": mlg.theta,
        "mlg_bias": mlg.bias,
        "embeddings": embeddings,
    }
    for i, w in enumerate(params.w_friend):
        arrays[f"w_friend_{i}"] = w
    for i, w in enumerate(params.w_enemy):
        arrays[f"w_enemy_{i}"] = w
    save_arrays(path, **arrays)


def load_checkpoint(
    path,
) -> tuple[SgcnConfig, TrainConfig, SgcnParams, MlgParams, np.ndarray, dict]:
    """A version-6 checkpoint as ``(sgcn_cfg, train_cfg, params, mlg, embeddings, protocol)``.

    ``protocol`` is the dict :func:`save_checkpoint` was given. A
    checkpoint of any other version is refused before its contents are
    read: versions up to 3 hold no embeddings, a version-4 sgcn-1+
    checkpoint holds later weights ``3*d_hidden`` wide, and a version-5 one
    records only the split, not the method and widths. A file that is no
    ``.npz`` archive, or one without a ``version`` member, is refused too.
    """
    with open(path, "rb") as fh:  # a missing file is still a FileNotFoundError
        data = load_arrays(fh) if zipfile.is_zipfile(fh) else {}
    if "version" not in data:
        raise ValueError(f"{path} is not an sgcn checkpoint")
    version = int(data["version"])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}; run `sgcn train` again")
    sgcn_cfg = SgcnConfig(**_json_value(data["sgcn_cfg"]))
    train_cfg = TrainConfig(**_json_value(data["train_cfg"]))
    layers = sgcn_cfg.layers
    params = SgcnParams(
        w_friend=[data[f"w_friend_{i}"] for i in range(layers)],
        w_enemy=[data[f"w_enemy_{i}"] for i in range(layers)],
    )
    mlg = MlgParams(theta=data["mlg_theta"], bias=data["mlg_bias"])
    return sgcn_cfg, train_cfg, params, mlg, data["embeddings"], _json_value(data["protocol"])


def write_loss_history(path, history: list[LossParts]) -> None:
    header = ["epoch", "mean_loss", "mlg_part", "margin_part", "reg_part"]
    rows = (
        [epoch, *map(repr, (parts.total, parts.classifier, parts.margin, parts.regularizer))]
        for epoch, parts in enumerate(history)
    )
    _write_csv(path, header, rows)


def write_report_rows(path, rows: list[dict]) -> None:
    """Per-run report CSV, one column per key of the rows, in the first row's order."""
    _write_csv(path, list(rows[0]), ([row[k] for k in rows[0]] for row in rows))


def write_aggregate_report(path, rows: list[dict]) -> None:
    """Mean/stddev per (dataset, method) over the per-run rows."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["dataset"], row["method"]), []).append(row)
    header = ["dataset", "method", "n_seeds", "mean_auc", "std_auc", "mean_f1", "std_f1"]
    rows = []
    for (dataset, method), members in sorted(groups.items()):
        aucs = np.array([m["auc"] for m in members], dtype=np.float64)
        f1s = np.array([m["f1"] for m in members], dtype=np.float64)
        stats = (aucs.mean(), aucs.std(), f1s.mean(), f1s.std())
        rows.append([dataset, method, len(members), *(repr(float(s)) for s in stats)])
    _write_csv(path, header, rows)


def write_census(path, census: TriangleCensus) -> None:
    """Triangle counts, one row per balance type."""
    _write_csv(path, ["type", "count"], census._asdict().items())


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


def _raw_ids(g: SignedGraph):
    """The id each node has in the source data; a graph without ``raw_ids`` keeps ``0..n-1``."""
    return g.raw_ids if g.raw_ids is not None else range(g.n)


def _write_csv(path, header: list[str], rows) -> None:
    """One CSV artifact: the header, then each row, every line ending in ``\\r\\n``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _json_array(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj, sort_keys=True).encode(), dtype=np.uint8)


def _json_value(arr: np.ndarray):
    return json.loads(arr.tobytes().decode())
