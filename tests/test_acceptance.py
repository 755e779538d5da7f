"""Acceptance gate: benchmark targets and the property suite behind them.

Each test prints one PASS/FAIL line with the measured numbers. The
benchmark tests run the full protocol (ingest, 80/20 split, train-side
spectral features, model fit, fresh pair classifier, held-out scoring) on
the bundled Bitcoin trust networks, five seeds each, reusing split+feature
work across methods that share a seed. Expect minutes of compute.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from sgcn.balance import reach_sets
from sgcn.evaluation import auc, f1, run_experiment
from sgcn.graph import load_edge_list, to_undirected
from sgcn.model import SgcnConfig, embed_all, init_params
from sgcn.spectral import signed_laplacian
from sgcn.training import MlgParams, TrainConfig, gradients, loss_parts, sample_batch

from oracles import (
    central_difference,
    components,
    is_two_colorable,
    random_signed_graph,
    walk_reach_by_parity,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
DATASETS = {
    "bitcoin-alpha": DATA_DIR / "bitcoin_alpha.csv",
    "bitcoin-otc": DATA_DIR / "soc-sign-bitcoinotc.csv",
}
SEEDS = (0, 1, 2, 3, 4)


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- criterion 6: property suite (runs before any benchmark training) ----


def test_reach_sets_match_walk_enumeration_oracle():
    rng = np.random.default_rng(1009)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = random_signed_graph(rng, n, edge_prob=float(rng.uniform(0.1, 0.7)),
                                neg_frac=float(rng.uniform(0.1, 0.9)))
        origin = int(rng.integers(n))
        depth = int(rng.integers(1, 4))
        rs = reach_sets(g, origin, depth)
        balanced, unbalanced = walk_reach_by_parity(g, origin, depth)
        for length in range(1, depth + 1):
            assert rs.balanced_at(length) == balanced[length - 1]
            assert rs.unbalanced_at(length) == unbalanced[length - 1]
        checked += 1
    report_line("6a", True, f"walk-classification oracle agreed on {checked} graphs")


def test_gradients_match_central_differences():
    rng_outer = np.random.default_rng(2027)
    worst = 0.0
    instances = 0
    while instances < 20:
        rng = np.random.default_rng(int(rng_outer.integers(1 << 30)))
        n = int(rng.integers(6, 11))
        g = random_signed_graph(rng, n, edge_prob=0.5, neg_frac=0.35)
        if g.num_edges < 3 or g.num_edges > (n * (n - 1)) // 2 - n:
            continue
        layers = 2
        sgcn_cfg = SgcnConfig(d_in=4, d_hidden=3, layers=layers)
        params = init_params(sgcn_cfg, int(rng.integers(10000)))
        x = rng.standard_normal((n, 4))
        mlg = MlgParams(theta=rng.standard_normal((3, 12)) * 0.3,
                        bias=rng.standard_normal(3) * 0.1)
        cfg = TrainConfig(batch_nodes=n, pairs_per_class=2, epochs=1,
                          margin_weight=2.0, reg_coeff=1e-3,
                          seed=int(rng.integers(10000)))
        batch = sample_batch(g, cfg, epoch=0)
        grad_w, grad_mlg = gradients(g, x, params, mlg, batch, cfg, sgcn_cfg)

        def objective():
            return loss_parts(embed_all(g, x, params, sgcn_cfg), mlg, batch, params, cfg).total

        pairs = list(zip(params.all_weights(), grad_w.all_weights()))
        pairs += [(mlg.theta, grad_mlg.theta), (mlg.bias, grad_mlg.bias)]
        for array, analytic in pairs:
            fd = central_difference(objective, array, step=1e-5)
            denom = np.maximum(1e-2, np.maximum(np.abs(fd), np.abs(analytic)))
            worst = max(worst, float((np.abs(fd - analytic) / denom).max()))
        instances += 1
    ok = worst < 1e-4
    report_line("6b", ok, f"max relative gradient error {worst:.2e} over 20 instances")
    assert ok


def test_signed_laplacian_psd_and_balance_detection():
    rng = np.random.default_rng(3061)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        g = random_signed_graph(rng, n, edge_prob=float(rng.uniform(0.15, 0.8)),
                                neg_frac=float(rng.uniform(0.1, 0.9)))
        lap = signed_laplacian(g)
        spectrum = np.linalg.eigvalsh(lap)
        assert spectrum.min() >= -1e-9
        for comp in components(g):
            block = lap[np.ix_(comp, comp)]
            lam_min = float(np.linalg.eigvalsh(block)[0])
            colorable = is_two_colorable(g, comp)
            assert (abs(lam_min) < 1e-9) == colorable
    report_line("6c", True, "PSD + per-component balance detection on 100 graphs")


def test_metric_operations_match_hand_enumeration():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert f1([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5
    assert f1([0, 0, 0], [1, 1, 0]) == 0.0
    assert auc([0.2, 0.2, 0.2], [0, 1, 0]) == 0.5
    report_line("6d", True, "AUC and F1 equal their hand-enumerated values")


def test_embedding_equivariance_and_locality():
    from sgcn.graph import SignedGraph

    rng = np.random.default_rng(4001)
    g = random_signed_graph(rng, 10, edge_prob=0.45)
    cfg = SgcnConfig(d_in=3, d_hidden=4, layers=2)
    params = init_params(cfg, seed=4001)
    x = rng.standard_normal((10, 3))
    z = embed_all(g, x, params, cfg)
    perm = rng.permutation(10)
    relabeled = [
        (int(np.where(perm == u)[0][0]), int(np.where(perm == v)[0][0]), s)
        for u, v, s in g.edges()
    ]
    z2 = embed_all(SignedGraph.from_edges(10, relabeled), x[perm], params, cfg)
    assert z2 == pytest.approx(z[perm], abs=1e-12)

    chain = SignedGraph.from_edges(6, [(i, i + 1, (-1) ** i) for i in range(5)])
    xc = rng.standard_normal((6, 3))
    base = embed_all(chain, xc, params, cfg)
    far = xc.copy()
    far[4] += 3.0  # four hops from node 0, beyond a 2-layer horizon
    assert np.array_equal(embed_all(chain, far, params, cfg)[0], base[0])
    near = xc.copy()
    near[2] += 3.0  # exactly two hops away
    assert np.abs(embed_all(chain, near, params, cfg)[0] - base[0]).max() > 0
    report_line("6e", True, "permutation equivariance and locality hold")


# --- benchmark criteria -------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    """Graphs, per-seed feature caches, and a memo of finished runs."""
    graphs = {
        name: to_undirected(load_edge_list(path, "weighted-csv"))
        for name, path in DATASETS.items()
    }
    state = {
        "graphs": graphs,
        "caches": {name: {} for name in DATASETS},
        "runs": {},
        "timings": {},
    }
    return state


def run_benchmark(bench, dataset: str, method: str, seed: int,
                  margin_weight: float = 5.0):
    key = (dataset, method, seed, margin_weight)
    if key not in bench["runs"]:
        started = time.time()
        train_cfg = None
        if method != "sse":
            train_cfg = TrainConfig(seed=seed, margin_weight=margin_weight)
        report = run_experiment(
            bench["graphs"][dataset],
            method,
            seed,
            train_cfg=train_cfg,
            feature_cache=bench["caches"][dataset],
        )
        bench["runs"][key] = report
        bench["timings"][key] = time.time() - started
    return bench["runs"][key]


def mean_metrics(bench, dataset, method, margin_weight=5.0):
    reports = [
        run_benchmark(bench, dataset, method, seed, margin_weight)
        for seed in SEEDS
    ]
    return (
        float(np.mean([r.auc for r in reports])),
        float(np.mean([r.f1 for r in reports])),
    )


@pytest.mark.acceptance
@pytest.mark.dataset
def test_bitcoin_alpha_two_layer_benchmark(bench):
    started = time.time()
    mean_auc, mean_f1 = mean_metrics(bench, "bitcoin-alpha", "sgcn-2")
    elapsed = time.time() - started
    ok = mean_auc >= 0.75 and mean_f1 >= 0.88 and elapsed <= 1800
    report_line(
        "1", ok,
        f"bitcoin-alpha sgcn-2: auc={mean_auc:.4f} (>=0.75) "
        f"f1={mean_f1:.4f} (>=0.88) wall={elapsed:.0f}s (<=1800)",
    )
    assert mean_auc >= 0.75
    assert mean_f1 >= 0.88
    assert elapsed <= 1800


@pytest.mark.acceptance
@pytest.mark.dataset
def test_bitcoin_otc_two_layer_benchmark(bench):
    mean_auc, mean_f1 = mean_metrics(bench, "bitcoin-otc", "sgcn-2")
    ok = mean_auc >= 0.77 and mean_f1 >= 0.88
    report_line(
        "2", ok,
        f"bitcoin-otc sgcn-2: auc={mean_auc:.4f} (>=0.77) f1={mean_f1:.4f} (>=0.88)",
    )
    assert mean_auc >= 0.77
    assert mean_f1 >= 0.88


@pytest.mark.acceptance
@pytest.mark.dataset
def test_spectral_baseline_stays_in_reference_window(bench):
    mean_auc, mean_f1 = mean_metrics(bench, "bitcoin-alpha", "sse")
    ok = abs(mean_auc - 0.764) <= 0.05
    report_line(
        "3", ok,
        f"bitcoin-alpha sse: auc={mean_auc:.4f} in 0.764 +/- 0.05, f1={mean_f1:.4f}",
    )
    assert abs(mean_auc - 0.764) <= 0.05


@pytest.mark.acceptance
@pytest.mark.dataset
def test_two_layer_beats_single_layer(bench):
    auc_two, _ = mean_metrics(bench, "bitcoin-alpha", "sgcn-2")
    auc_one, _ = mean_metrics(bench, "bitcoin-alpha", "sgcn-1")
    ok = auc_two >= auc_one
    report_line(
        "4", ok,
        f"bitcoin-alpha mean auc: sgcn-2={auc_two:.4f} vs sgcn-1={auc_one:.4f}",
    )
    assert auc_two >= auc_one


@pytest.mark.acceptance
@pytest.mark.dataset
def test_margin_term_sensitivity(bench):
    auc_on, _ = mean_metrics(bench, "bitcoin-alpha", "sgcn-2", margin_weight=5.0)
    auc_off, _ = mean_metrics(bench, "bitcoin-alpha", "sgcn-2", margin_weight=0.0)
    gap = auc_on - auc_off
    ok = gap >= 0.01
    report_line(
        "5", ok,
        f"bitcoin-alpha sgcn-2 mean auc: lambda=5 {auc_on:.4f} vs "
        f"lambda=0 {auc_off:.4f}, gap={gap:+.4f} (>=0.01)",
    )
    assert gap >= 0.01
