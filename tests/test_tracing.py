"""The names the benchmark's tracer rebinds must exist in the program.

``perfbench/tracing.py`` puts spans around calls by rebinding module
attributes listed in its ``TARGETS``; a renamed function would only show as
a failed traced benchmark round. This loads that file as it is and checks
its targets against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sgcn import training
from sgcn.graph import SignedGraph
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


def test_install_records_the_training_spans():
    tracing = load_tracing()
    for module_name, *_ in tracing.TARGETS:
        importlib.import_module(module_name)
    saved = {name: dict(vars(module)) for name, module in sgcn_modules().items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        g = SignedGraph.from_edges(6, [(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 5, -1)])
        x = np.random.default_rng(0).standard_normal((6, 3))
        cfg = training.TrainConfig(batch_nodes=6, pairs_per_class=2, epochs=3)
        training.fit(g, x, cfg, SgcnConfig(d_in=3, d_hidden=2))
    finally:
        for name, attrs in saved.items():
            module = sys.modules[name]
            for key, value in attrs.items():
                if getattr(module, key) is not value:
                    setattr(module, key, value)
    assert all(getattr(sys.modules[name], key) is value
               for name, attrs in saved.items() for key, value in attrs.items())

    names = [span["name"] for span in tracer.spans]
    assert names.count("training.fit") == 1
    for name in ("training.sample", "training.backward", "model.forward"):
        assert name in names
    fit_span = names.index("training.fit")
    assert all(span["parent"] == fit_span for span in tracer.spans if span["id"] != fit_span)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["training.epochs"] == 3
    assert metrics["model.forward_calls"] == 4  # one per epoch and the final embedding
