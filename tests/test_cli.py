import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgcn import cli, training
from sgcn.cli import _build_parser, _train_config, main
from sgcn import io as artifacts
from sgcn.evaluation import METHODS, run_experiment
from sgcn.graph import FORMATS, load_edge_list, to_undirected
from sgcn.training import TrainConfig

from readers import load_graph, read_embedding_csv

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def dataset(tmp_path):
    """A two-community signed network written as weighted-csv records."""
    rng = np.random.default_rng(0)
    lines = []
    n, half = 30, 15
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < half) == (v < half)
            if same and rng.random() < 0.35:
                lines.append(f"{u},{v},{rng.integers(1, 10)},0")
            elif not same and rng.random() < 0.2:
                lines.append(f"{u},{v},{-rng.integers(1, 10)},0")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def run(args):
    return main([str(a) for a in args])


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def manifest_config(out, command):
    return json.loads((out / f"{command}_manifest.json").read_text())["config"]


def refuse_ingest(monkeypatch):
    def refuse(args):
        raise AssertionError("the command ingested the dataset")

    monkeypatch.setattr(cli, "_ingest", refuse)


COMMANDS = ("ingest", "triangles", "sse", "train", "eval", "sweep-lambda")

# The model's shape, which eval must be given as train was; eval takes no
# training flags.
SHAPE = ["--dim", "8", "--hidden-dim", "4"]
FAST_TRAIN = ["--epochs", "6", "--batch-nodes", "20", "--pairs-per-class", "2", *SHAPE]


class TestIngest:
    def test_writes_graph_and_id_map(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["ingest", "--dataset", dataset, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "nodes=30" in printed
        graph = load_graph(out / "graph.npz")
        assert graph.n == 30
        id_map = (out / "id_map.csv").read_text().splitlines()
        assert id_map[0] == "internal_id,raw_id"
        assert len(id_map) == 31
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert manifest["inputs"] == {
            str(dataset): artifacts.git_blob_sha1(dataset)
        }

    def test_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "out"
        assert run(["ingest", "--dataset", empty, "--out", out]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "graph.npz").exists()

    def test_id_outside_int64_refused_with_its_line(self, tmp_path, capsys):
        src = tmp_path / "big.csv"
        src.write_text("1,2,3\n9223372036854775808,5,1\n")
        out = tmp_path / "out"
        assert run(["ingest", "--dataset", src, "--out", out]) == 1
        assert "error: line 2: node id does not fit in int64" in capsys.readouterr().err
        assert not (out / "graph.npz").exists()

    def test_signed_tsv_format(self, tmp_path, capsys):
        src = tmp_path / "edges.tsv"
        src.write_text("# comment\n1\t2\t1\n2\t3\t-1\n1\t3\t1\n4\t1\t1\n5\t2\t-1\n")
        out = tmp_path / "out"
        assert run(["ingest", "--dataset", src, "--format", "signed-tsv",
                    "--out", out]) == 0
        assert "positive_edges=3 negative_edges=2" in capsys.readouterr().out


class TestSse:
    def test_writes_embeddings(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["sse", "--dataset", dataset, "--dim", "6", "--out", out]) == 0
        ids, z = read_embedding_csv(out / "embeddings.csv")
        assert z.shape == (30, 6)
        assert ids.tolist() == list(range(30))


class TestTrainEval:
    def test_train_writes_checkpoint_history_embeddings(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["train", "--dataset", dataset, "--method", "sgcn-2",
                    "--seed", "3", "--out", out, *FAST_TRAIN]) == 0
        assert (out / "checkpoint.npz").exists()
        history = csv_rows(out / "loss_history.csv")
        assert len(history) == 6
        assert set(history[0]) == {"epoch", "mean_loss", "mlg_part",
                                   "margin_part", "reg_part"}
        ids, z = read_embedding_csv(out / "embeddings.csv")
        assert z.shape == (30, 8)

    @pytest.mark.parametrize("fraction", ["0.95", "0.05"], ids=["all-held-out", "none-held-out"])
    def test_split_leaving_a_side_empty_is_an_error_line(self, tmp_path, capsys, fraction):
        src = tmp_path / "five.csv"
        src.write_text("1,2,1\n2,3,1\n3,4,-1\n4,5,1\n5,1,1\n")
        out = tmp_path / "out"
        assert run(["train", "--dataset", src, "--test-fraction", fraction, "--epochs", "2",
                    "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: test_fraction {fraction} of 5 edges")
        assert list(out.iterdir()) == []

    def test_training_is_reproducible_bit_for_bit(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--dataset", dataset, "--method", "sgcn-1",
                "--seed", "5", *FAST_TRAIN]
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        hash_a = artifacts.git_blob_sha1(out_a / "checkpoint.npz")
        hash_b = artifacts.git_blob_sha1(out_b / "checkpoint.npz")
        assert hash_a == hash_b

    def test_eval_requires_checkpoint(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["eval", "--dataset", dataset, "--method", "sgcn-2",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert "checkpoint" in err and "train" in err

    def test_train_then_eval_writes_report(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["train", "--dataset", dataset, "--method", "sgcn-2",
                    "--seed", "2", "--out", out, *FAST_TRAIN]) == 0
        assert run(["eval", "--dataset", dataset, "--method", "sgcn-2",
                    "--seed", "2", "--out", out, *SHAPE]) == 0
        rows = csv_rows(out / "report.csv")
        assert len(rows) == 1
        assert rows[0]["method"] == "sgcn-2"
        assert 0.0 <= float(rows[0]["auc"]) <= 1.0
        # eval reads no training flag, so its manifest records none.
        assert manifest_config(out, "train")["epochs"] == 6
        assert "epochs" not in manifest_config(out, "eval")

    @pytest.mark.parametrize(
        "eval_flags, trained, given",
        [
            (["--test-fraction", "0.3"], "test_fraction=0.2", "test_fraction=0.3"),
            (["--seed", "4"], "seed=2", "seed=4"),
            (["--method", "sgcn-1"], "method='sgcn-2'", "method='sgcn-1'"),
            (["--dim", "4"], "dim=8", "dim=4"),
            (["--hidden-dim", "16"], "hidden_dim=4", "hidden_dim=16"),
        ],
        ids=["test-fraction", "seed", "method", "dim", "hidden-dim"],
    )
    def test_eval_refuses_another_split(self, dataset, tmp_path, capsys,
                                        eval_flags, trained, given):
        # Another split would score edges the checkpoint was trained on.
        out = tmp_path / "out"
        assert run(["train", "--dataset", dataset, "--method", "sgcn-2",
                    "--seed", "2", "--out", out, *FAST_TRAIN]) == 0
        assert run(["eval", "--dataset", dataset, "--method", "sgcn-2",
                    "--seed", "2", "--out", out, *SHAPE, *eval_flags]) == 1
        err = capsys.readouterr().err
        assert trained in err and given in err
        assert not (out / "report.csv").exists()

    def test_eval_scores_the_stored_embeddings(self, dataset, tmp_path, monkeypatch):
        # train already ran the eigensolver and the forward pass on this split.
        out = tmp_path / "out"
        assert run(["train", "--dataset", dataset, "--method", "sgcn-1+",
                    "--seed", "2", "--out", out, *FAST_TRAIN]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("eval recomputed what train stored")

        for module in ("sgcn.evaluation", "sgcn.cli"):
            monkeypatch.setattr(f"{module}.spectral_embedding", refuse)
        monkeypatch.setattr("sgcn.model.forward_pass", refuse)
        assert run(["eval", "--dataset", dataset, "--method", "sgcn-1+",
                    "--seed", "2", "--out", out, *SHAPE]) == 0
        (row,) = csv_rows(out / "report.csv")
        assert row["method"] == "sgcn-1+"

    @pytest.mark.parametrize("cut", [np.s_[:-1], np.s_[:, :-1]], ids=["rows", "columns"])
    def test_eval_refuses_stored_embeddings_of_another_shape(self, dataset, tmp_path,
                                                             capsys, cut):
        out = tmp_path / "out"
        assert run(["train", "--dataset", dataset, "--method", "sgcn-2",
                    "--seed", "2", "--out", out, *FAST_TRAIN]) == 0
        arrays = artifacts.load_arrays(out / "checkpoint.npz")
        arrays["embeddings"] = arrays["embeddings"][cut]
        artifacts.save_arrays(out / "checkpoint.npz", **arrays)
        assert run(["eval", "--dataset", dataset, "--method", "sgcn-2",
                    "--seed", "2", "--out", out, *SHAPE]) == 1
        assert "eval needs (30, 8)" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_eval_sse_needs_no_checkpoint(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["eval", "--dataset", dataset, "--method", "sse",
                    "--dim", "8", "--out", out]) == 0
        rows = csv_rows(out / "report.csv")
        assert rows[0]["method"] == "sse"
        assert set(manifest_config(out, "eval")) == {
            "checkpoint", "command", "dataset", "dim", "format", "hidden_dim",
            "method", "out", "seed", "test_fraction"}

    def test_training_flags_default_to_train_config(self):
        args = _build_parser().parse_args(["train", "--dataset", "toy.csv"])
        assert _train_config(args) == TrainConfig(seed=0)

    @pytest.mark.parametrize(
        "flag, value, setting",
        [("--lr", "nan", "learning_rate"), ("--lambda", "inf", "margin_weight"),
         ("--reg", "nan", "reg_coeff")],
    )
    def test_train_refuses_non_finite_setting(self, dataset, tmp_path, capsys, monkeypatch,
                                              flag, value, setting):
        # Refused before the data is read, not reported as divergence later.
        refuse_ingest(monkeypatch)
        out = tmp_path / "out"
        assert run(["train", "--dataset", dataset, "--method", "sgcn-1", "--out", out,
                    *FAST_TRAIN, flag, value]) == 1
        assert f"{setting} must be finite" in capsys.readouterr().err
        assert not (out / "checkpoint.npz").exists()
        assert not (out / "report.csv").exists()


class TestTriangles:
    def test_census_csv(self, tmp_path, capsys):
        src = tmp_path / "tri.csv"
        src.write_text("0,1,5,0\n1,2,5,0\n0,2,5,0\n0,3,-5,0\n")
        out = tmp_path / "out"
        assert run(["triangles", "--dataset", src, "--out", out]) == 0
        rows = dict(
            line.split(",") for line in
            (out / "triangles.csv").read_text().splitlines()[1:]
        )
        assert rows == {"all_positive": "1", "one_negative": "0",
                        "two_negative": "0", "all_negative": "0"}
        assert "balanced=1" in capsys.readouterr().out


class TestSweepLambda:
    def test_sweep_reports_each_lambda(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sgcn-2",
                    "--lambdas", "0,5", "--seed", "1", "--out", out,
                    *FAST_TRAIN]) == 0
        rows = csv_rows(out / "report.csv")
        assert [r["method"] for r in rows] == ["sgcn-2[lambda=0]",
                                               "sgcn-2[lambda=5]"]
        agg = csv_rows(out / "aggregate.csv")
        assert len(agg) == 2
        assert "margin_weight" not in manifest_config(out, "sweep_lambda")

    def test_sweep_over_seed_list_aggregates(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sgcn-1",
                    "--lambdas", "5", "--seeds", "0,1,2", "--out", out,
                    *FAST_TRAIN]) == 0
        rows = csv_rows(out / "report.csv")
        assert [int(r["seed"]) for r in rows] == [0, 1, 2]
        agg = csv_rows(out / "aggregate.csv")
        assert len(agg) == 1
        assert int(agg[0]["n_seeds"]) == 3
        assert float(agg[0]["std_auc"]) >= 0.0

    def test_sse_refused(self, dataset, tmp_path, capsys):
        # Every lambda would give the same untrained spectral row.
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sse",
                    "--lambdas", "0,5", "--out", out, "--dim", "8"]) == 1
        assert "no trainable parameters" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_non_finite_lambda_refused_before_any_run(self, dataset, tmp_path, capsys,
                                                      monkeypatch):
        refuse_ingest(monkeypatch)
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sgcn-1",
                    "--lambdas", "0,nan", "--out", out, *FAST_TRAIN]) == 1
        assert "margin_weight must be finite" in capsys.readouterr().err
        assert not (out / "report.csv").exists()
        assert not (out / "checkpoint.npz").exists()

    @pytest.mark.parametrize("flag", ["--lambdas", "--seeds"])
    def test_empty_list_refused(self, dataset, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sgcn-1",
                    flag, ",", "--out", out, *FAST_TRAIN]) == 1
        assert f"{flag} lists no values" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("flag, values, repeated", [
        ("--lambdas", "1,5,1.0", "1"),
        ("--seeds", "2,3,02", "2"),
    ])
    def test_repeated_value_refused_before_ingest(self, dataset, tmp_path, capsys, monkeypatch,
                                                  flag, values, repeated):
        # A repeat would add an identical row and count it as another seed.
        refuse_ingest(monkeypatch)
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sgcn-1",
                    flag, values, "--out", out, *FAST_TRAIN]) == 1
        assert f"{flag} lists {repeated} twice" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_negative_seed_listed_refused_before_ingest(self, dataset, tmp_path, capsys,
                                                        monkeypatch):
        # Otherwise seed 2 runs to the end before numpy refuses -1.
        refuse_ingest(monkeypatch)
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sgcn-1",
                    "--seeds", "2,-1", "--out", out, *FAST_TRAIN]) == 1
        assert "--seeds: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_non_number_lambda_refused_before_ingest(self, dataset, tmp_path, capsys,
                                                     monkeypatch):
        # float's own message would not say which flag held the value.
        refuse_ingest(monkeypatch)
        out = tmp_path / "out"
        assert run(["sweep-lambda", "--dataset", dataset, "--method", "sgcn-1",
                    "--lambdas", "0,x", "--out", out, *FAST_TRAIN]) == 1
        assert "--lambdas: expected a number, got 'x'" in capsys.readouterr().err
        assert not (out / "report.csv").exists()


class TestFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            # Read as an abbreviation, --lambda would set --lambdas.
            (["sweep-lambda", "--method", "sgcn-1", "--epochs", "1", "--lambda", "3"],
             "unrecognized arguments: --lambda 3"),
            (["eval", "--method", "sse", "--epochs", "5"], "unrecognized arguments: --epochs 5"),
            # numpy seeds from non-negative integers only, and every command
            # takes --seed, so that one argument list serves a whole pipeline.
            *(([command, "--seed", "-1"], "argument --seed: expected a non-negative integer")
              for command in COMMANDS),
        ],
        ids=["sweep-lambda-lambda", "eval-epochs",
             *(f"{command}-negative-seed" for command in COMMANDS)],
    )
    def test_flag_the_command_lacks_is_a_usage_error(self, dataset, tmp_path, capsys, argv,
                                                     message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--dataset", dataset, "--out", out, *SHAPE])
        assert exc.value.code == 2
        assert not (out / "report.csv").exists()
        assert message in capsys.readouterr().err

    def test_format_and_method_choices_are_the_protocol_names(self):
        parser = _build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, command in subparsers.choices.items():
            choices = {a.dest: a.choices for a in command._actions}
            assert list(choices["format"]) == list(FORMATS), name
            if "method" in choices:
                assert list(choices["method"]) == list(METHODS), name


class TestOutputDirEnv:
    def test_env_var_sets_default_out(self, dataset, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from-env"
        monkeypatch.setenv("SGCN_OUT_DIR", str(target))
        assert run(["ingest", "--dataset", dataset]) == 0
        assert (target / "graph.npz").exists()

    def test_out_that_is_a_file_is_an_error_line(self, dataset, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert run(["ingest", "--dataset", dataset, "--out", taken]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert taken.read_text() == "not a directory\n"


class TestManifest:
    @pytest.mark.parametrize(
        "command, flags, outputs",
        [
            ("ingest", [], ["graph.npz", "id_map.csv"]),
            ("triangles", [], ["triangles.csv"]),
            ("sse", ["--dim", "8"], ["embeddings.csv"]),
            ("train", ["--method", "sgcn-2", *FAST_TRAIN],
             ["checkpoint.npz", "loss_history.csv", "embeddings.csv"]),
            ("eval", ["--method", "sgcn-2", *SHAPE], ["report.csv"]),
            ("sweep-lambda", ["--method", "sgcn-1", "--lambdas", "0,1", *FAST_TRAIN],
             ["report.csv", "aggregate.csv"]),
        ],
        ids=["ingest", "triangles", "sse", "train", "eval", "sweep-lambda"],
    )
    def test_outputs_are_the_files_written_in_order(self, dataset, tmp_path, monkeypatch,
                                                    command, flags, outputs):
        if command == "eval":
            trained = tmp_path / "trained"
            assert run(["train", "--dataset", dataset, "--method", "sgcn-2", "--out", trained,
                        *FAST_TRAIN]) == 0
            flags = [*flags, "--checkpoint", trained / "checkpoint.npz"]
        # Every artifact goes through a save_ or write_ function of sgcn.io;
        # save_arrays is the npz writer the other save_ functions call.
        written = []
        for name in artifacts.__all__:
            if (name.startswith(("save_", "write_"))
                    and name not in ("save_arrays", "write_manifest")):
                original = getattr(artifacts, name)

                def record(path, *args, _original=original, **kwargs):
                    written.append(Path(path).name)
                    return _original(path, *args, **kwargs)

                monkeypatch.setattr(artifacts, name, record)
        out = tmp_path / "out"
        assert run([command, "--dataset", dataset, "--out", out, *flags]) == 0
        manifest_name = f"{command.replace('-', '_')}_manifest.json"
        manifest = json.loads((out / manifest_name).read_text())
        assert manifest["command"] == command
        assert manifest["outputs"] == written == outputs
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, manifest_name])


@pytest.mark.dataset
class TestBundledDatasets:
    def test_ingest_bitcoin_alpha_counts(self, tmp_path, capsys):
        assert run(["ingest", "--dataset", DATA_DIR / "bitcoin_alpha.csv",
                    "--out", tmp_path]) == 0
        printed = capsys.readouterr().out
        # Public dump of the alpha trust network: 3,783 rated users; the
        # sum-sign fold keeps 12,724 positive and 1,152 negative pairs.
        assert "nodes=3783" in printed
        assert "positive_edges=12724" in printed
        assert "negative_edges=1152" in printed

    def test_ingest_bitcoin_otc_counts(self, tmp_path, capsys):
        assert run(["ingest", "--dataset", DATA_DIR / "soc-sign-bitcoinotc.csv",
                    "--out", tmp_path]) == 0
        printed = capsys.readouterr().out
        assert "nodes=5881" in printed
        assert "positive_edges=18233" in printed
        assert "negative_edges=2901" in printed

    @pytest.mark.skipif(training._blas_threads is None,
                        reason="numpy's OpenBLAS thread-count symbols not found")
    def test_train_eval_artifacts_do_not_depend_on_the_thread_count(self, tmp_path):
        # Each step in its own process, as a user runs it, at 1 and then 2
        # OpenBLAS threads.
        src = str(Path(cli.__file__).resolve().parents[1])
        flags = ["--dataset", DATA_DIR / "bitcoin_alpha.csv", "--seed", "0"]
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            for step in (["train", "--epochs", "20"], ["eval"]):
                subprocess.run([sys.executable, "-m", "sgcn.cli", *step, *flags,
                                "--out", tmp_path / threads],
                               env=env, capture_output=True, check=True, timeout=300)
        for name in ("checkpoint.npz", "embeddings.csv", "loss_history.csv", "report.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.parametrize("method", ["sgcn-1", "sgcn-1+", "sgcn-2", "sse"])
    def test_train_eval_report_equals_run_experiment(self, tmp_path, method):
        # The CLI and run_experiment run one protocol: same split, features,
        # model input and probe.
        dataset = DATA_DIR / "bitcoin_alpha.csv"
        flags = ["--dataset", dataset, "--method", method, "--seed", "3", "--out", tmp_path,
                 "--dim", "16", "--hidden-dim", "8"]
        if method != "sse":
            assert run(["train", *flags, "--epochs", "5"]) == 0
        assert run(["eval", *flags]) == 0
        (row,) = csv_rows(tmp_path / "report.csv")
        graph = to_undirected(load_edge_list(dataset, "weighted-csv"))
        report = run_experiment(graph, method, 3, embedding_dim=16, hidden_dim=8,
                                train_cfg=TrainConfig(epochs=5, seed=3))
        assert (row["auc"], row["f1"]) == (repr(report.auc), repr(report.f1))
        assert (int(row["n_test_pos"]), int(row["n_test_neg"])) == (
            report.n_test_pos, report.n_test_neg)
