"""Micro-benchmarks of the training step's stages on the Bitcoin-Alpha train graph.

Run them alone with ``pytest -m microbench``; the fast suite leaves them out
with ``-m "not acceptance and not microbench"``. Each stage runs three rounds
through pytest-benchmark, which prints the timings.
"""

from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("pytest_benchmark")

from sgcn.graph import load_edge_list, split_train_test, to_undirected
from sgcn.model import (
    SgcnConfig,
    backward_pass,
    first_layer_inputs,
    forward_pass,
    init_params,
    neighbor_mean_ops,
)
from sgcn.spectral import spectral_embedding
from sgcn.training import TrainConfig, sample_batch

pytestmark = [pytest.mark.microbench, pytest.mark.dataset]

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
DIM = 64


@pytest.fixture(scope="module")
def alpha():
    """The seed-0 train graph, its features and a 2-layer model's forward pass."""
    g = to_undirected(load_edge_list(DATA_DIR / "bitcoin_alpha.csv", "weighted-csv"))
    train = split_train_test(g, 0.2, seed=0).train
    features = spectral_embedding(train, DIM)
    x = features * np.sqrt(train.n)
    cfg = SgcnConfig(d_in=DIM)
    params = init_params(cfg, seed=0)
    ops = neighbor_mean_ops(train)
    first = first_layer_inputs(x, ops)
    states = forward_pass(train, x, params, cfg, ops=ops, first_inputs=first)
    dz = np.random.default_rng(0).standard_normal((train.n, cfg.embedding_dim))
    return dict(train=train, features=features, x=x, cfg=cfg, params=params,
                ops=ops, first=first, states=states, dz=dz)


def test_sample_batch(benchmark, alpha):
    batch = benchmark.pedantic(sample_batch, args=(alpha["train"], TrainConfig(), 0),
                               rounds=3)
    assert len(batch.pairs) > 0


def test_forward_pass(benchmark, alpha):
    a = alpha
    states = benchmark.pedantic(
        forward_pass, args=(a["train"], a["x"], a["params"], a["cfg"]),
        kwargs=dict(ops=a["ops"], first_inputs=a["first"]), rounds=3,
    )
    assert np.array_equal(states[-1].friend, a["states"][-1].friend)


def test_backward_pass(benchmark, alpha):
    a = alpha
    grads = benchmark.pedantic(
        backward_pass, args=(a["states"], a["params"], a["cfg"], a["dz"], a["ops"]),
        rounds=3,
    )
    assert [w.shape for w in grads.all_weights()] == [
        w.shape for w in a["params"].all_weights()]


def test_spectral_embedding(benchmark, alpha):
    features = benchmark.pedantic(spectral_embedding, args=(alpha["train"], DIM), rounds=3)
    assert np.array_equal(features, alpha["features"])
