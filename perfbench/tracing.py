"""Spans around calls into the program, recorded from the benchmark's side.

The program reaches its collaborators through module attributes at call
time: ``sgcn.evaluation.run_experiment`` calls the ``spectral_embedding``
bound in its own module, ``sgcn.training.fit`` calls ``sample_batch`` and
``_backward`` through the globals of ``sgcn.training``, and ``sgcn.cli``
writes through ``artifacts.save_graph`` on ``sgcn.io``. Rebinding each such
attribute, in every ``sgcn`` module that holds it, to a timing wrapper puts a
span around every call without touching the program's files.

This module uses the standard library only, so that importing it before the
set-up clock starts costs nothing the program would not pay.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

# time.perf_counter is CLOCK_MONOTONIC on Linux, so spans recorded in a
# child process line up with the wall-clock spans its parent records.
clock = time.perf_counter


def _batch_counts(batch, args):
    return {"pairs": len(batch.pairs), "triplets": len(batch.pos_triplets) + len(batch.neg_triplets)}


def _fit_counts(result, args):
    return {"epochs": len(result.history)}


def _written_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


_WRITERS = (
    "save_graph",
    "write_id_map",
    "write_embedding_csv",
    "save_checkpoint",
    "write_loss_history",
    "write_report_rows",
    "write_manifest",
)

# (defining module, function, span name, counter of work done per call)
TARGETS = (
    ("sgcn.graph", "load_edge_list", "graph.load", None),
    ("sgcn.graph", "to_undirected", "graph.fold", None),
    ("sgcn.graph", "split_train_test", "graph.split", None),
    ("sgcn.spectral", "spectral_embedding", "spectral.embedding", None),
    ("sgcn.model", "neighbor_mean_ops", "model.mean_ops", None),
    ("sgcn.model", "forward_pass", "model.forward", None),
    ("sgcn.model", "embed_all", "model.embed", None),
    ("sgcn.training", "fit", "training.fit", _fit_counts),
    ("sgcn.training", "sample_batch", "training.sample", _batch_counts),
    ("sgcn.training", "loss_parts", "training.loss", None),
    ("sgcn.training", "_backward", "training.backward", None),
    ("sgcn.evaluation", "run_experiment", "evaluation.run", None),
    ("sgcn.evaluation", "build_pairs", "evaluation.pairs", None),
    ("sgcn.evaluation", "fit_logreg", "evaluation.logreg", None),
    ("sgcn.balance", "triangle_census", "balance.census", None),
    ("sgcn.io", "load_checkpoint", "io.read", None),
) + tuple(("sgcn.io", name, "io.write", _written_bytes) for name in _WRITERS)


class Tracer:
    """Spans kept in memory: name, start, end, parent index and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span["counts"].update(count(result, args))
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in each loaded ``sgcn`` module that holds it."""
        for module_name, attr, name, count in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(original, name, count)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "sgcn" and not mod_name.startswith("sgcn."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Per-layer metrics: inclusive time of every span of a name, self time of a
# span name, number of spans of a name, or a count summed over spans.
TOTAL_TIME = {
    "graph.load_s": "graph.load",
    "graph.fold_s": "graph.fold",
    "graph.split_s": "graph.split",
    "spectral.embedding_s": "spectral.embedding",
    "model.mean_ops_s": "model.mean_ops",
    "model.forward_s": "model.forward",
    "model.embed_s": "model.embed",
    "training.fit_s": "training.fit",
    "training.sample_s": "training.sample",
    "training.loss_s": "training.loss",
    "training.backward_s": "training.backward",
    "evaluation.pairs_s": "evaluation.pairs",
    "evaluation.logreg_s": "evaluation.logreg",
    "balance.census_s": "balance.census",
    "io.write_s": "io.write",
    "io.read_s": "io.read",
    "cli.import_s": "cli.import",
    "cli.ingest_s": "cli.ingest",
    "cli.triangles_s": "cli.triangles",
    "cli.train_s": "cli.train",
    "cli.eval_s": "cli.eval",
}
SELF_TIME = {
    "training.update_s": "training.fit",
    "evaluation.self_s": "evaluation.run",
}
CALLS = {
    "spectral.calls": "spectral.embedding",
    "model.forward_calls": "model.forward",
}
COUNTS = {
    "training.epochs": "epochs",
    "training.pairs": "pairs",
    "training.triplets": "triplets",
    "io.bytes_written": "bytes",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced round; a layer that never ran reads 0."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for metric, name in TOTAL_TIME.items():
        out[metric] = sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    for metric, name in SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s["name"] == name)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in spans if s["name"] == name)
    for metric, key in COUNTS.items():
        out[metric] = sum(s["counts"].get(key, 0) for s in spans)
    return out
