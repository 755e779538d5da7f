"""The names the benchmark's tracer rebinds must exist in the program.

``perfbench/tracing.py`` puts spans around calls by rebinding module
attributes listed in its ``TARGETS``; a renamed function would only show as
a failed traced benchmark round. This loads that file as it is and checks
its targets against the package.
"""

import importlib
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from sgcn import cli, evaluation, training
from sgcn.graph import SignedGraph, to_undirected
from sgcn.model import SgcnConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sgcn_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "sgcn" or name.startswith("sgcn.")}


def test_every_target_is_a_callable_of_the_package():
    tracing = load_tracing()
    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}")


@contextmanager
def installed(tracing):
    """A ``Tracer`` installed on the package; every rebound attribute is restored after."""
    for module_name, *_ in tracing.TARGETS:
        importlib.import_module(module_name)
    saved = {name: dict(vars(module)) for name, module in sgcn_modules().items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        for name, attrs in saved.items():
            module = sys.modules[name]
            for key, value in attrs.items():
                if getattr(module, key) is not value:
                    setattr(module, key, value)
    assert all(getattr(sys.modules[name], key) is value
               for name, attrs in saved.items() for key, value in attrs.items())


def two_community_records(n=30, seed=0):
    """Directed weighted records: positive inside two halves, negative across them."""
    rng = np.random.default_rng(seed)
    records = []
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < n // 2) == (v < n // 2)
            if rng.random() < (0.35 if same else 0.2):
                records.append((u, v, 1 if same else -1))
    return records


def test_install_records_the_training_spans():
    tracing = load_tracing()
    with installed(tracing) as tracer:
        g = SignedGraph.from_edges(6, [(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 5, -1)])
        x = np.random.default_rng(0).standard_normal((6, 3))
        cfg = training.TrainConfig(batch_nodes=6, pairs_per_class=2, epochs=3)
        training.fit(g, x, cfg, SgcnConfig(d_in=3, d_hidden=2))

    names = [span["name"] for span in tracer.spans]
    assert names.count("training.fit") == 1
    for name in ("training.sample", "training.backward", "model.forward"):
        assert name in names
    fit_span = names.index("training.fit")
    assert all(span["parent"] == fit_span for span in tracer.spans if span["id"] != fit_span)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["training.epochs"] == 3
    assert metrics["model.forward_calls"] == 4  # one per epoch and the final embedding


def test_run_experiment_records_the_protocol_spans():
    g = to_undirected(two_community_records())
    with installed(load_tracing()) as tracer:
        evaluation.run_experiment(g, "sse", seed=0, embedding_dim=4)
    names = [span["name"] for span in tracer.spans]
    assert names.count("evaluation.run") == 1
    assert names.count("graph.split") == 1
    assert names.count("spectral.embedding") == 1
    assert names.count("evaluation.pairs") == 2  # train and test edges
    assert names.count("evaluation.logreg") == 1


def test_cli_eval_records_the_protocol_spans(tmp_path):
    dataset = tmp_path / "toy.csv"
    dataset.write_text("".join(f"{u},{v},{5 * s},0\n" for u, v, s in two_community_records()))
    flags = ["--dataset", str(dataset), "--method", "sgcn-2", "--out", str(tmp_path),
             "--dim", "8", "--hidden-dim", "4"]
    assert cli.main(["train", *flags, "--epochs", "2", "--batch-nodes", "20",
                     "--pairs-per-class", "2"]) == 0
    with installed(load_tracing()) as tracer:
        assert cli.main(["eval", *flags]) == 0
    names = [span["name"] for span in tracer.spans]
    assert names.count("graph.split") == 1
    # eval scores the embeddings the checkpoint stores: no features, no forward pass.
    assert names.count("spectral.embedding") == 0
    assert names.count("model.embed") == 0
    assert names.count("io.read") == 1
    assert names.count("evaluation.pairs") == 2
    assert "evaluation.run" not in names
