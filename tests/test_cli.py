import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sgcn import cli
from sgcn.cli import _build_parser, _train_config, main
from sgcn import io as artifacts
from sgcn.evaluation import METHODS, run_experiment
from sgcn.graph import FORMATS
from sgcn.training import TrainConfig

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
        graph = artifacts.load_graph(out / "graph.npz")
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
        ids, z = artifacts.read_embedding_csv(out / "embeddings.csv")
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
        ids, z = artifacts.read_embedding_csv(out / "embeddings.csv")
        assert z.shape == (30, 8)

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


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            # Read as an abbreviation, --lambda would set --lambdas.
            ["sweep-lambda", "--method", "sgcn-1", "--epochs", "1", "--lambda", "3"],
            ["eval", "--method", "sse", "--epochs", "5"],
        ],
        ids=["sweep-lambda-lambda", "eval-epochs"],
    )
    def test_flag_the_command_lacks_is_a_usage_error(self, dataset, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--dataset", dataset, "--out", out, *SHAPE])
        assert exc.value.code == 2
        assert not (out / "report.csv").exists()

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
        report = run_experiment(dataset, method, 3, embedding_dim=16, hidden_dim=8,
                                train_cfg=TrainConfig(epochs=5, seed=3))
        assert (row["auc"], row["f1"]) == (repr(report.auc), repr(report.f1))
        assert (int(row["n_test_pos"]), int(row["n_test_neg"])) == (
            report.n_test_pos, report.n_test_neg)
