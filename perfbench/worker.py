"""One round of a benchmark workload, in a fresh process.

Invoked by ``run.py`` as ``python3 perfbench/worker.py <mode> <spec.json>``;
the result goes to the file named by ``spec["result"]`` as JSON.

Modes:

* ``experiment`` -- set up (import, ``load_edge_list``, ``to_undirected``,
  ``split_train_test``), then one ``run_experiment``. With
  ``spec["setup_only"]`` it stops after set-up. With ``spec["outputs"]`` it
  saves the run's split, features, loss history and report there as ``.npz``.
* ``check-experiment`` -- check the outputs an ``experiment`` round saved.
* ``cli`` -- run ``sgcn.cli.main`` with spans around the program's layers
  (the traced stand-in for ``python3 -m sgcn.cli``).
* ``check-cli`` -- check the artifacts one CLI round left behind.

Only the standard library and ``tracing`` are imported before the set-up
clock starts. The checks run in processes of their own, so a slow or failing
check never touches a timed round or its operation counts.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

from tracing import Tracer

TEST_FRACTION = 0.2


def experiment(spec: dict) -> dict:
    tracer = Tracer()
    setup = tracer.open("setup")
    with tracer.span("import"):
        import sgcn.evaluation
        import sgcn.graph
    if spec["trace"]:
        tracer.install()
    graph = sgcn.graph.to_undirected(sgcn.graph.load_edge_list(spec["dataset"], "weighted-csv"))
    sgcn.graph.split_train_test(graph, TEST_FRACTION, spec["seed"])
    tracer.close(setup)
    out = {"setup_s": setup["end"] - setup["start"], "attempted": 1, "failed": 0}
    if spec["setup_only"]:
        return out

    # Hands back the FitResult that run_experiment discards, for the checks.
    fits = []
    fit = sgcn.evaluation.fit

    def keep_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    sgcn.evaluation.fit = keep_fit
    cache: dict = {}
    out["attempted"] += 1
    run = tracer.open("run")
    try:
        report = sgcn.evaluation.run_experiment(graph, spec["method"], spec["seed"], feature_cache=cache)
    except Exception:
        out["failed"] += 1
        out["error"] = traceback.format_exc()
        return out
    finally:
        tracer.close(run)
        sgcn.evaluation.fit = fit
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(run_s=run["end"] - run["start"], auc=report.auc, f1=report.f1, spans=tracer.spans)
    if spec["outputs"] is None:
        return out

    # What the run produced, for check-experiment to check in its own process.
    import numpy as np

    (split, x), = cache.values()
    arrays = {
        "counts": np.array([graph.n, graph.num_pos_edges, graph.num_neg_edges, report.n_test_pos]),
        "train": np.array([tuple(e) for e in split.train.edges()], dtype=np.int64),
        "test": np.array([tuple(e) for e in split.test], dtype=np.int64),
        "features": x,
        "report": np.array([report.auc, report.f1]),
    }
    if fits:
        (result,) = fits
        arrays["history"] = np.array([(p.total, p.classifier, p.margin, p.regularizer) for p in result.history])
        arrays["epochs"] = np.array(sgcn.evaluation.TrainConfig(seed=spec["seed"]).epochs)
        arrays["embeddings"] = result.embeddings
    np.savez(spec["outputs"], **arrays)
    return out


def check_experiment(spec: dict) -> dict:
    import numpy as np

    import checks

    ref = checks.reference_graph(spec["dataset"])
    try:
        with np.load(spec["outputs"]) as saved:
            n, num_pos, num_neg, n_test_pos = (int(c) for c in saved["counts"])
            train, test = saved["train"], saved["test"]
            auc, f1 = (float(v) for v in saved["report"])
            checks.check_ingest(n, num_pos, num_neg, ref)
            checks.check_split(train, test, ref, TEST_FRACTION, n_test_pos)
            checks.check_features(saved["features"], n, train)
            if "history" in saved:
                checks.check_history(saved["history"], int(saved["epochs"]))
                z = saved["embeddings"]
            else:
                z = saved["features"]
            floor = checks.SGCN2_AUC_FLOOR[Path(spec["dataset"]).stem] if spec["method"] == "sgcn-2" else None
            checks.check_scores(auc, f1, z, train, test, floor)
    except Exception as exc:
        return {"check_error": f"{type(exc).__name__}: {exc}"}
    return {"check_error": None}


def cli(spec: dict) -> dict:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import sgcn.cli
    tracer.install()
    code = sgcn.cli.main(spec["argv"])
    return {"exit_code": code, "spans": tracer.spans}


def check_cli(spec: dict) -> dict:
    import csv

    import numpy as np

    import checks
    import sgcn.graph

    out_dir, seed = Path(spec["out"]), spec["seed"]
    src, dst, sign = checks.parse_weighted_csv(spec["dataset"])
    ref = checks.fold_sum_sign(src, dst, sign)
    try:
        with np.load(out_dir / "graph.npz") as saved:
            pos, neg = saved["pos_edges"], saved["neg_edges"]
            checks.check_ingest(int(saved["n"]), len(pos), len(neg), ref)
        ingested = np.vstack([np.column_stack([pos, np.ones(len(pos), np.int64)]),
                              np.column_stack([neg, -np.ones(len(neg), np.int64)])])
        if not np.array_equal(checks.edge_array(ingested), ref.edges):
            raise checks.CheckFailed("ingest: graph.npz edges differ from the own fold")

        with open(out_dir / "triangles.csv", newline="") as fh:
            census = {row["type"]: int(row["count"]) for row in csv.DictReader(fh)}
        checks.check_census(census, ref.n, ref.edges)

        with open(out_dir / "loss_history.csv", newline="") as fh:
            rows = [[float(row[k]) for k in ("mean_loss", "mlg_part", "margin_part", "reg_part")]
                    for row in csv.DictReader(fh)]
        checks.check_history(rows, spec["epochs"])

        with open(out_dir / "report.csv", newline="") as fh:
            (report,) = list(csv.DictReader(fh))
        # The split is the program's own; its properties are checked before use.
        graph = sgcn.graph.SignedGraph.from_edges(ref.n, ref.edges.tolist())
        split = sgcn.graph.split_train_test(graph, TEST_FRACTION, seed)
        train, test = list(split.train.edges()), list(split.test)
        checks.check_split(train, test, ref, TEST_FRACTION, int(report["n_test_pos"]))
        if int(report["n_test_neg"]) != len(test) - int(report["n_test_pos"]):
            raise checks.CheckFailed("split: report n_test_neg does not match the held-out count")
        with open(out_dir / "embeddings.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        raw = np.array([int(r[0]) for r in rows])
        z = np.array([[float(v) for v in r[1:]] for r in rows])
        if not np.array_equal(raw, np.unique(np.concatenate([src, dst]))):
            raise checks.CheckFailed("scores: embeddings.csv rows are not the compacted raw ids")
        checks.check_scores(float(report["auc"]), float(report["f1"]), z, train, test)

        for command in ("ingest", "triangles", "train", "eval"):
            checks.check_manifest(out_dir / f"{command}_manifest.json", Path.cwd())
    except Exception as exc:
        return {"check_error": f"{type(exc).__name__}: {exc}"}
    return {"check_error": None}


MODES = {"experiment": experiment, "check-experiment": check_experiment, "cli": cli, "check-cli": check_cli}

if __name__ == "__main__":
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    result = MODES[mode](spec)
    Path(spec["result"]).write_text(json.dumps(result))
    sys.exit(result.get("exit_code", 0))
