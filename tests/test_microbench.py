"""Micro-benchmarks of the training step's stages, of a short fit and of the
link-sign probe, on the Bitcoin-Alpha train graph.

Run them alone with ``pytest -m microbench``; the fast suite leaves them out
with ``-m "not acceptance and not microbench"``. Each stage runs three rounds
through pytest-benchmark, which prints the timings.
"""

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from sgcn.evaluation import model_input, score_embeddings, split_and_features
from sgcn.graph import load_edge_list, to_undirected
from sgcn.model import (
    LayerState,
    SgcnConfig,
    backward_pass,
    forward_pass,
    init_params,
    neighbor_mean_ops,
)
from sgcn.spectral import spectral_embedding
from sgcn.training import _TRAIN_DTYPE, MlgParams, TrainConfig, _backward, fit, sample_batch

from oracles import allocating_backward_pass

pytestmark = [pytest.mark.microbench, pytest.mark.dataset]

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
DIM = 64


@pytest.fixture(scope="module")
def alpha():
    """The seed-0 split, its train graph and features, a 2-layer forward pass and a batch.

    ``x``, as ``model_input`` returns it, the operators, the states and
    ``dz``, one array per track, are in the precision ``fit`` runs its
    passes in, so each stage times the call ``fit`` makes.
    """
    g = to_undirected(load_edge_list(DATA_DIR / "bitcoin_alpha.csv", "weighted-csv"))
    split, features = split_and_features(g, 0.2, seed=0, dim=DIM)
    train, x = split.train, model_input(features)
    assert x.dtype == _TRAIN_DTYPE
    cfg = SgcnConfig(d_in=DIM)
    params = init_params(cfg, seed=0)
    ops = neighbor_mean_ops(train, _TRAIN_DTYPE)
    states = forward_pass(train, x, params, cfg, ops=ops)
    rng = np.random.default_rng(0)
    dz = LayerState(*rng.standard_normal((2, train.n, cfg.d_hidden)).astype(_TRAIN_DTYPE))
    mlg = MlgParams(theta=0.1 * rng.standard_normal((3, 2 * cfg.embedding_dim)),
                    bias=np.zeros(3))
    batch = sample_batch(train, TrainConfig(), 0)
    return dict(split=split, train=train, features=features, x=x, cfg=cfg, params=params,
                ops=ops, states=states, dz=dz, mlg=mlg, batch=batch)


def test_sample_batch(benchmark, alpha):
    batch = benchmark.pedantic(sample_batch, args=(alpha["train"], TrainConfig(), 0),
                               rounds=3)
    assert len(batch.pairs) > 0


def test_forward_pass(benchmark, alpha):
    a = alpha
    states = benchmark.pedantic(
        forward_pass, args=(a["train"], a["x"], a["params"], a["cfg"]),
        kwargs=dict(ops=a["ops"]), rounds=3,
    )
    assert np.array_equal(states[-1].friend, a["states"][-1].friend)


def test_backward_pass(benchmark, alpha):
    a = alpha

    def fresh_inputs():
        # The pass uses up its list of states and the arrays of dz.
        dz = LayerState(*(g.copy() for g in a["dz"]))
        return (list(a["states"]), a["x"], a["params"], a["cfg"], dz, a["ops"]), {}

    grads = benchmark.pedantic(backward_pass, setup=fresh_inputs, rounds=3)
    expected = allocating_backward_pass(a["states"], a["x"], a["params"], a["cfg"], a["dz"],
                                        a["ops"])
    for got, want in zip(grads.all_weights(), expected.all_weights(), strict=True):
        assert np.array_equal(got, want)


def test_objective_and_gradient(benchmark, alpha):
    a = alpha

    def fresh_inputs():
        # A new list each round, since the backward pass pops the states off it.
        args = (list(a["states"]), a["x"], a["params"], a["mlg"], a["batch"], TrainConfig(),
                a["cfg"], a["ops"])
        return args, {}

    parts, grad_w, grad_mlg = benchmark.pedantic(_backward, setup=fresh_inputs, rounds=3)
    assert np.isfinite(parts.total)
    assert grad_mlg.theta.shape == a["mlg"].theta.shape


def test_fit_ten_epochs(benchmark, alpha):
    a = alpha
    result = benchmark.pedantic(fit, args=(a["train"], a["x"], TrainConfig(epochs=10), a["cfg"]),
                                rounds=3)
    assert len(result.history) == 10


def test_spectral_embedding(benchmark, alpha):
    features = benchmark.pedantic(spectral_embedding, args=(alpha["train"], DIM), rounds=3)
    assert np.array_equal(features, alpha["features"])


def test_score_embeddings(benchmark, alpha):
    report = benchmark.pedantic(score_embeddings, args=(alpha["features"], alpha["split"]),
                                rounds=3)
    assert report.n_test_pos + report.n_test_neg == len(alpha["split"].test)
