"""Command-line entry point.

Subcommands cover the whole pipeline: ``ingest`` (parse + compact a raw
edge list), ``sse`` (spectral embedding), ``train`` (fit the two-track
model), ``eval`` (link-sign prediction report), ``triangles`` (balance
census), and ``sweep-lambda`` (margin-weight sensitivity). Every command
writes its artifacts plus a manifest holding the resolved configuration and
content hashes of the inputs, and removes partial outputs on failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as artifacts
from .balance import triangle_census
from .evaluation import run_experiment, score_embeddings, sgcn_config_for
from .graph import load_edge_list, split_train_test, to_undirected
from .model import embed_all
from .spectral import spectral_embedding
from .training import TrainConfig, fit

_OUT_ENV = "SGCN_OUT_DIR"
_MODEL_METHODS = ("sgcn-1", "sgcn-1+", "sgcn-2")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str) -> Path:
        path = out_dir / name
        written.append(path)
        return path

    try:
        args.handler(args, emit)
    except Exception as exc:  # surface the message, clean partial outputs
        for path in written:
            path.unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcn",
        description="Signed-network embeddings and link-sign prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False, training=False):
        p.add_argument("--dataset", required=True, help="edge-list file to ingest")
        p.add_argument(
            "--format",
            choices=["weighted-csv", "signed-tsv"],
            default="weighted-csv",
            help="edge-list format (default: weighted-csv)",
        )
        p.add_argument(
            "--out",
            default=os.environ.get(_OUT_ENV, "sgcn-out"),
            help=f"output directory (default: ${_OUT_ENV} or ./sgcn-out)",
        )
        p.add_argument("--seed", type=int, default=0)
        if method:
            p.add_argument(
                "--method",
                choices=["sse", *_MODEL_METHODS],
                default="sgcn-2",
            )
        if training:
            p.add_argument("--lambda", dest="margin_weight", type=float, default=5.0)
            p.add_argument("--epochs", type=int, default=300)
            p.add_argument("--lr", type=float, default=0.01)
            p.add_argument("--reg", type=float, default=1e-4)
            p.add_argument("--batch-nodes", type=int, default=500)
            p.add_argument("--pairs-per-class", type=int, default=5)
            p.add_argument("--dim", type=int, default=64, help="input feature width")
            p.add_argument("--hidden-dim", type=int, default=32)
            p.add_argument("--test-fraction", type=float, default=0.2)

    p = sub.add_parser("ingest", help="parse, compact, and cache a signed graph")
    common(p)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("sse", help="spectral embedding of the whole graph")
    common(p)
    p.add_argument("--dim", type=int, default=64)
    p.set_defaults(handler=_cmd_sse)

    p = sub.add_parser("train", help="fit the two-track model on a train split")
    common(p, method=True, training=True)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="score held-out link signs")
    common(p, method=True, training=True)
    p.add_argument(
        "--checkpoint",
        default=None,
        help="trained checkpoint (default: <out>/checkpoint.npz)",
    )
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("triangles", help="triangle balance census")
    common(p)
    p.set_defaults(handler=_cmd_triangles)

    p = sub.add_parser("sweep-lambda", help="margin-weight sensitivity sweep")
    common(p, method=True, training=True)
    p.add_argument(
        "--lambdas",
        default="0,1,5,10",
        help="comma-separated margin weights (default: 0,1,5,10)",
    )
    p.add_argument(
        "--seeds",
        default=None,
        help="comma-separated split seeds (default: just --seed)",
    )
    p.set_defaults(handler=_cmd_sweep)

    return parser


def _ingest(args):
    graph = to_undirected(load_edge_list(args.dataset, args.format))
    return graph


def _cmd_ingest(args, emit):
    graph = _ingest(args)
    artifacts.save_graph(emit("graph.npz"), graph)
    artifacts.write_id_map(emit("id_map.csv"), graph)
    _manifest(args, emit, "ingest", ["graph.npz", "id_map.csv"])
    print(
        f"nodes={graph.n} positive_edges={graph.num_pos_edges} "
        f"negative_edges={graph.num_neg_edges}"
    )


def _cmd_sse(args, emit):
    graph = _ingest(args)
    z = spectral_embedding(graph, min(args.dim, graph.n))
    artifacts.write_embedding_csv(emit("embeddings.csv"), z, graph)
    _manifest(args, emit, "sse", ["embeddings.csv"])
    print(f"wrote {z.shape[0]}x{z.shape[1]} embedding")


def _cmd_train(args, emit):
    if args.method == "sse":
        raise ValueError("the sse method has no trainable parameters; use the sse command")
    graph = _ingest(args)
    split = split_train_test(graph, args.test_fraction, args.seed)
    dim = min(args.dim, graph.n)
    x = spectral_embedding(split.train, dim) * np.sqrt(graph.n)
    sgcn_cfg = sgcn_config_for(args.method, d_in=dim, d_hidden=args.hidden_dim)
    train_cfg = _train_config(args)
    result = fit(split.train, x, train_cfg, sgcn_cfg)
    artifacts.save_checkpoint(
        emit("checkpoint.npz"),
        sgcn_cfg,
        train_cfg,
        result.params,
        result.mlg,
        _split_of(args),
    )
    artifacts.write_loss_history(emit("loss_history.csv"), result.history)
    artifacts.write_embedding_csv(emit("embeddings.csv"), result.embeddings, split.train)
    _manifest(
        args, emit, "train", ["checkpoint.npz", "loss_history.csv", "embeddings.csv"]
    )
    if result.history:
        first, last = result.history[0].total, result.history[-1].total
        print(f"trained {args.method}: loss {first:.4f} -> {last:.4f}")
    else:
        print(f"trained {args.method}: no epochs run")


def _cmd_eval(args, emit):
    seed = args.seed
    if args.method == "sse":
        report = run_experiment(
            args.dataset,
            "sse",
            args.seed,
            format=args.format,
            test_fraction=args.test_fraction,
            embedding_dim=args.dim,
        )
    else:
        checkpoint = Path(args.checkpoint or (Path(args.out) / "checkpoint.npz"))
        if not checkpoint.exists():
            raise FileNotFoundError(
                f"no checkpoint at {checkpoint}; run the train command first"
            )
        sgcn_cfg, _, params, _, trained_on = artifacts.load_checkpoint(checkpoint)
        graph = _ingest(args)
        trained_on["method"] = next(
            (m for m in _MODEL_METHODS
             if sgcn_config_for(m, sgcn_cfg.d_in, sgcn_cfg.d_hidden) == sgcn_cfg),
            sgcn_cfg,
        )
        trained_on["dim"], trained_on["hidden_dim"] = sgcn_cfg.d_in, sgcn_cfg.d_hidden
        # Any other split would hold out edges the weights were fit on, and
        # any other method or width would name the wrong model in the report.
        given = {
            **_split_of(args),
            "method": args.method,
            "dim": min(args.dim, graph.n),  # as train clips it
            "hidden_dim": args.hidden_dim,
        }
        for key, value in given.items():
            if trained_on[key] != value:
                raise ValueError(
                    f"checkpoint was trained with {key}={trained_on[key]!r}, "
                    f"eval was given {key}={value!r}"
                )
        seed = trained_on["seed"]
        split = split_train_test(graph, trained_on["test_fraction"], seed)
        x = spectral_embedding(split.train, sgcn_cfg.d_in) * np.sqrt(graph.n)
        report = score_embeddings(embed_all(split.train, x, params, sgcn_cfg), split)
    row = _report_row(args.dataset, args.method, seed, report)
    artifacts.write_report_rows(emit("report.csv"), [row])
    _manifest(args, emit, "eval", ["report.csv"])
    print(f"{args.method} seed={seed} auc={report.auc:.4f} f1={report.f1:.4f}")


def _cmd_triangles(args, emit):
    graph = _ingest(args)
    census = triangle_census(graph)
    path = emit("triangles.csv")
    with open(path, "w", newline="") as fh:
        fh.write("type,count\n")
        for name, count in census._asdict().items():
            fh.write(f"{name},{count}\n")
    _manifest(args, emit, "triangles", ["triangles.csv"])
    print(
        f"balanced={census.balanced} unbalanced={census.unbalanced} "
        f"total={census.total}"
    )


def _cmd_sweep(args, emit):
    lambdas = [float(v) for v in args.lambdas.split(",") if v.strip() != ""]
    seeds = (
        [int(v) for v in args.seeds.split(",") if v.strip() != ""]
        if args.seeds
        else [args.seed]
    )
    graph = _ingest(args)
    cache: dict = {}
    rows = []
    for lam in lambdas:
        for seed in seeds:
            train_cfg = _train_config(args, margin_weight=lam, seed=seed)
            report = run_experiment(
                graph,
                args.method,
                seed,
                test_fraction=args.test_fraction,
                embedding_dim=args.dim,
                hidden_dim=args.hidden_dim,
                train_cfg=train_cfg,
                feature_cache=cache,
            )
            label = f"{args.method}[lambda={lam:g}]"
            rows.append(_report_row(args.dataset, label, seed, report))
            print(f"lambda={lam:g} seed={seed} auc={report.auc:.4f} f1={report.f1:.4f}")
    artifacts.write_report_rows(emit("report.csv"), rows)
    artifacts.write_aggregate_report(emit("aggregate.csv"), rows)
    _manifest(args, emit, "sweep-lambda", ["report.csv", "aggregate.csv"])


def _train_config(
    args, margin_weight: float | None = None, seed: int | None = None
) -> TrainConfig:
    return TrainConfig(
        margin_weight=args.margin_weight if margin_weight is None else margin_weight,
        reg_coeff=args.reg,
        learning_rate=args.lr,
        batch_nodes=args.batch_nodes,
        pairs_per_class=args.pairs_per_class,
        epochs=args.epochs,
        seed=args.seed if seed is None else seed,
    )


def _split_of(args) -> dict:
    """The train/test split the command line asks for, as checkpoints record it."""
    return {
        "test_fraction": args.test_fraction,
        "seed": args.seed,
        "dataset_sha1": artifacts.git_blob_sha1(args.dataset),
    }


def _report_row(dataset, method, seed, report) -> dict:
    return {
        "dataset": Path(dataset).stem if isinstance(dataset, (str, Path)) else "graph",
        "method": method,
        "seed": seed,
        "auc": report.auc,
        "f1": report.f1,
        "n_test_pos": report.n_test_pos,
        "n_test_neg": report.n_test_neg,
    }


def _manifest(args, emit, command: str, outputs: list[str]) -> None:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler",) and not callable(v)
    }
    artifacts.write_manifest(
        emit(f"{command.replace('-', '_')}_manifest.json"),
        command,
        config,
        inputs=[args.dataset],
        outputs=outputs,
    )


if __name__ == "__main__":
    sys.exit(main())
