"""Held-out link sign prediction: spectral baseline vs the trained model.

Protocol: hold out 20% of the edges, compute everything (features, model,
classifier) from the remaining 80%, then ask a fresh logistic regression
over concatenated node embeddings to predict the held-out signs. AUC is
threshold-free ranking quality; F1 scores the positive class at 0.5.

One seed per method to keep the demo short (about 35-40 s at 1 BLAS thread
on a two-core machine); the acceptance suite in tests/test_acceptance.py
runs the five-seed version. Run from the repository root:

    python demos/link_sign_benchmark.py
"""

import time
from pathlib import Path

from sgcn import TrainConfig, load_edge_list, run_experiment, to_undirected

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    graph = to_undirected(load_edge_list(DATA / "bitcoin_alpha.csv", "weighted-csv"))
    cache = {}
    print(f"{'method':10s} {'auc':>7s} {'f1':>7s} {'seconds':>8s}")
    for method in ("sse", "sgcn-1", "sgcn-1+", "sgcn-2"):
        started = time.time()
        report = run_experiment(graph, method, seed=0, feature_cache=cache)
        print(f"{method:10s} {report.auc:7.4f} {report.f1:7.4f} "
              f"{time.time() - started:8.1f}")

    print()
    print("Margin-term sweep (sgcn-2, seed 0):")
    for lam in (0.0, 1.0, 5.0, 10.0):
        report = run_experiment(
            graph, "sgcn-2", seed=0,
            train_cfg=TrainConfig(seed=0, margin_weight=lam),
            feature_cache=cache,
        )
        print(f"  lambda={lam:4.1f}  auc={report.auc:.4f}  f1={report.f1:.4f}")


if __name__ == "__main__":
    main()
