"""Command-line entry point.

Subcommands cover the whole pipeline: ``ingest`` (parse + compact a raw
edge list), ``sse`` (spectral embedding), ``train`` (fit the two-track
model), ``eval`` (link-sign prediction report), ``triangles`` (balance
census), and ``sweep-lambda`` (margin-weight sensitivity). Each command
names every file it writes through ``emit``; once it returns, :func:`main`
writes its manifest: the flags, the content hashes of the inputs and those
files in write order. On any failure the files written so far are removed.
``train`` records its split and model in the checkpoint as one protocol
dict, and ``eval`` checks its own command line against that dict.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import io as artifacts
from .balance import triangle_census
from .evaluation import (DEFAULT_DIM, DEFAULT_TEST_FRACTION, METHODS, feature_dim,
                         model_input, run_experiment, score_embeddings, sgcn_config_for,
                         split_and_features)
from .graph import FORMATS, load_edge_list, split_train_test, to_undirected
from .model import SgcnConfig
from .spectral import spectral_embedding
from .training import TrainConfig, fit

_OUT_ENV = "SGCN_OUT_DIR"
# Each training flag, the name the manifest records it under, and the
# TrainConfig field it sets, which holds its default.
_TRAINING_FLAGS = (
    ("--lambda", "margin_weight", "margin_weight"),
    ("--epochs", "epochs", "epochs"),
    ("--lr", "lr", "learning_rate"),
    ("--reg", "reg", "reg_coeff"),
    ("--batch-nodes", "batch_nodes", "batch_nodes"),
    ("--pairs-per-class", "pairs_per_class", "pairs_per_class"),
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    written: list[Path] = []

    def emit(name: str) -> Path:
        path = out_dir / name
        written.append(path)
        return path

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        args.handler(args, emit)
        # The manifest lists the files the command emitted, in write order.
        outputs = list(written)
        config = {k: v for k, v in sorted(vars(args).items()) if not callable(v)}
        manifest = emit(f"{args.command.replace('-', '_')}_manifest.json")
        artifacts.write_manifest(manifest, args.command, config, [args.dataset], outputs)
    except Exception as exc:  # surface the message, clean partial outputs
        for path in written:
            path.unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # No parser takes abbreviations, so that a flag a command lacks is an
    # error rather than a prefix of another, as --lambda is of --lambdas.
    parser = argparse.ArgumentParser(
        prog="sgcn",
        description="Signed-network embeddings and link-sign prediction",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        # --seed is on every command so that one argument list serves each
        # step of a pipeline; ingest, sse and triangles do not read it.
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--dataset", required=True, help="edge-list file to ingest")
        p.add_argument(
            "--format",
            choices=FORMATS,
            default="weighted-csv",
            help="edge-list format (default: %(default)s)",
        )
        p.add_argument(
            "--out",
            default=os.environ.get(_OUT_ENV, "sgcn-out"),
            help=f"output directory (default: ${_OUT_ENV} or ./sgcn-out)",
        )
        p.add_argument("--seed", type=_seed, default=0)
        p.set_defaults(handler=handler)
        return p

    def protocol(p):
        """The method, and the split and widths of the link-sign protocol."""
        p.add_argument("--method", choices=METHODS, default="sgcn-2")
        p.add_argument("--dim", type=int, default=DEFAULT_DIM, help="input feature width")
        p.add_argument("--hidden-dim", type=int, default=SgcnConfig.d_hidden)
        p.add_argument("--test-fraction", type=float, default=DEFAULT_TEST_FRACTION)

    def training(p, flags):
        for flag, dest, field in flags:
            default = getattr(TrainConfig, field)
            p.add_argument(flag, dest=dest, type=type(default), default=default)

    command("ingest", _cmd_ingest, "parse, compact, and cache a signed graph")

    p = command("sse", _cmd_sse, "spectral embedding of the whole graph")
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)

    p = command("train", _cmd_train, "fit the two-track model on a train split")
    protocol(p)
    training(p, _TRAINING_FLAGS)

    p = command("eval", _cmd_eval, "score held-out link signs")
    protocol(p)
    p.add_argument(
        "--checkpoint",
        default=None,
        help="trained checkpoint (default: <out>/checkpoint.npz)",
    )

    command("triangles", _cmd_triangles, "triangle balance census")

    p = command("sweep-lambda", _cmd_sweep, "margin-weight sensitivity sweep")
    protocol(p)
    # The sweep sets the margin weight from --lambdas.
    training(p, [flag for flag in _TRAINING_FLAGS if flag[0] != "--lambda"])
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

    return parser


def _ingest(args):
    return to_undirected(load_edge_list(args.dataset, args.format))


def _cmd_ingest(args, emit):
    graph = _ingest(args)
    artifacts.save_graph(emit("graph.npz"), graph)
    artifacts.write_id_map(emit("id_map.csv"), graph)
    print(
        f"nodes={graph.n} positive_edges={graph.num_pos_edges} "
        f"negative_edges={graph.num_neg_edges}"
    )


def _cmd_sse(args, emit):
    graph = _ingest(args)
    z = spectral_embedding(graph, feature_dim(graph, args.dim))
    artifacts.write_embedding_csv(emit("embeddings.csv"), z, graph)
    print(f"wrote {z.shape[0]}x{z.shape[1]} embedding")


def _cmd_train(args, emit):
    train_cfg = _train_config(args)
    graph = _ingest(args)
    split, x = split_and_features(graph, args.test_fraction, args.seed, args.dim)
    x = model_input(x)  # rebinding frees the unscaled features
    sgcn_cfg = sgcn_config_for(args.method, d_in=x.shape[1], d_hidden=args.hidden_dim)
    result = fit(split.train, x, train_cfg, sgcn_cfg)
    artifacts.save_checkpoint(
        emit("checkpoint.npz"),
        sgcn_cfg,
        train_cfg,
        result.params,
        result.mlg,
        result.embeddings,
        _protocol_of(args, graph),
    )
    artifacts.write_loss_history(emit("loss_history.csv"), result.history)
    artifacts.write_embedding_csv(emit("embeddings.csv"), result.embeddings, split.train)
    if result.history:
        first, last = result.history[0].total, result.history[-1].total
        print(f"trained {args.method}: loss {first:.4f} -> {last:.4f}")
    else:
        print(f"trained {args.method}: no epochs run")


def _cmd_eval(args, emit):
    graph = _ingest(args)
    if args.method == "sse":
        split, z = split_and_features(graph, args.test_fraction, args.seed, args.dim)
    else:
        # train fit these embeddings on this same split, so nothing is recomputed.
        z = _trained_embeddings(args, graph)
        split = split_train_test(graph, args.test_fraction, args.seed)
    report = score_embeddings(z, split)
    row = _report_row(args.dataset, args.method, args.seed, report)
    artifacts.write_report_rows(emit("report.csv"), [row])
    print(f"{args.method} seed={args.seed} auc={report.auc:.4f} f1={report.f1:.4f}")


def _trained_embeddings(args, graph):
    """The embeddings ``train`` stored, once the checkpoint's protocol matches the command line's."""
    checkpoint = Path(args.checkpoint or (Path(args.out) / "checkpoint.npz"))
    if not checkpoint.exists():
        raise FileNotFoundError(f"no checkpoint at {checkpoint}; run the train command first")
    sgcn_cfg, _, _, _, embeddings, trained_on = artifacts.load_checkpoint(checkpoint)
    # Any other split would hold out edges the weights were fit on, and
    # any other method or width would name the wrong model in the report.
    for key, value in _protocol_of(args, graph).items():
        if trained_on[key] != value:
            raise ValueError(
                f"checkpoint was trained with {key}={trained_on[key]!r}, "
                f"eval was given {key}={value!r}"
            )
    expected = (graph.n, sgcn_cfg.embedding_dim)
    if embeddings.shape != expected:
        raise ValueError(
            f"checkpoint stores embeddings of shape {embeddings.shape}, "
            f"eval needs {expected}"
        )
    return embeddings.astype(np.float64)  # an exact copy for the float64 probe


def _cmd_triangles(args, emit):
    graph = _ingest(args)
    census = triangle_census(graph)
    artifacts.write_census(emit("triangles.csv"), census)
    print(
        f"balanced={census.balanced} unbalanced={census.unbalanced} "
        f"total={census.total}"
    )


def _cmd_sweep(args, emit):
    train_cfg = _train_config(args)
    # Each weight's settings are checked here, before the first run.
    configs = [replace(train_cfg, margin_weight=lam)
               for lam in _listed(args.lambdas, _number, "--lambdas")]
    seeds = [args.seed] if args.seeds is None else _listed(args.seeds, _seed, "--seeds")
    graph = _ingest(args)
    cache: dict = {}
    rows = []
    for cfg in configs:
        lam = cfg.margin_weight
        for seed in seeds:
            report = run_experiment(
                graph,
                args.method,
                seed,
                test_fraction=args.test_fraction,
                embedding_dim=args.dim,
                hidden_dim=args.hidden_dim,
                train_cfg=replace(cfg, seed=seed),
                feature_cache=cache,
            )
            label = f"{args.method}[lambda={lam:g}]"
            rows.append(_report_row(args.dataset, label, seed, report))
            print(f"lambda={lam:g} seed={seed} auc={report.auc:.4f} f1={report.f1:.4f}")
    artifacts.write_report_rows(emit("report.csv"), rows)
    artifacts.write_aggregate_report(emit("aggregate.csv"), rows)


def _listed(text: str, kind, flag: str) -> list:
    """The comma-separated values of a list flag.

    An empty list is refused, and so is a value listed twice, compared
    after parsing (``1,1.0`` repeats 1): it would add a second, identical
    run and count it as another seed.
    """
    try:
        values = [kind(v) for v in text.split(",") if v.strip() != ""]
    except argparse.ArgumentTypeError as exc:  # a refused value, named by its flag
        raise ValueError(f"{flag}: {exc}") from None
    if not values:
        raise ValueError(f"{flag} lists no values")
    for at, value in enumerate(values):
        if value in values[:at]:
            raise ValueError(f"{flag} lists {value:g} twice")
    return values


def _number(text: str) -> float:
    """A margin weight listed on the command line."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _seed(text: str) -> int:
    """A seed given on the command line: numpy takes non-negative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _train_config(args) -> TrainConfig:
    """The training settings the command line asks for; the sse method has none.

    A training flag the command lacks keeps its field's default, as the
    margin weight does in sweep-lambda until the sweep sets it.
    """
    if args.method == "sse":
        raise ValueError("the sse method has no trainable parameters; use the sse command")
    given = {field: getattr(args, dest) for _, dest, field in _TRAINING_FLAGS if dest in args}
    return TrainConfig(seed=args.seed, **given)


def _protocol_of(args, graph) -> dict:
    """The split and model the command line asks for, as checkpoints record them."""
    return {
        "test_fraction": args.test_fraction,
        "seed": args.seed,
        "dataset_sha1": artifacts.git_blob_sha1(args.dataset),
        "method": args.method,
        "dim": feature_dim(graph, args.dim),
        "hidden_dim": args.hidden_dim,
    }


def _report_row(dataset: str, method, seed, report) -> dict:
    return {"dataset": Path(dataset).stem, "method": method, "seed": seed, **asdict(report)}


if __name__ == "__main__":
    sys.exit(main())
