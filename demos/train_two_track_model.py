"""Train the two-track model on Bitcoin-Alpha and watch the loss move.

Every node keeps a "friend" vector and an "enemy" vector. The first layer
averages positive neighbors into the friend vector and negative neighbors
into the enemy vector; the second layer crosses the tracks so that enemies
of enemies strengthen the friend side. Training pulls the concatenated
embedding toward three goals at once: classify node pairs as
positive/negative/unlinked, order distances so friends sit closer than
strangers and strangers closer than enemies, and stay small.

Takes about 3 seconds at 1 BLAS thread on a two-core machine. Run from the
repository root:

    python demos/train_two_track_model.py
"""

from pathlib import Path

import numpy as np

from sgcn import SgcnConfig, TrainConfig, fit, load_edge_list, to_undirected
from sgcn.evaluation import model_input, split_and_features

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    graph = to_undirected(load_edge_list(DATA / "bitcoin_alpha.csv", "weighted-csv"))
    print(f"Bitcoin-Alpha: {graph.n} nodes, {graph.num_pos_edges}+ / "
          f"{graph.num_neg_edges}- edges")

    print("Splitting and computing spectral input features (64 columns)...")
    split, x = split_and_features(graph, 0.2, seed=0, dim=64)
    print(f"Split: {split.train.num_edges} train edges, {len(split.test)} held out")

    sgcn_cfg = SgcnConfig(d_in=64, d_hidden=32, layers=2)
    train_cfg = TrainConfig(seed=0, epochs=120)
    print(f"Training {sgcn_cfg.layers}-layer model, {train_cfg.epochs} epochs...")
    result = fit(split.train, model_input(x), train_cfg, sgcn_cfg)

    print()
    print("epoch  total   classifier  margin  regularizer")
    for epoch in range(0, train_cfg.epochs, 20):
        h = result.history[epoch]
        print(f"{epoch:5d}  {h.total:6.4f}  {h.classifier:10.4f}  "
              f"{h.margin:6.4f}  {h.regularizer:11.4f}")
    h = result.history[-1]
    print(f"{train_cfg.epochs - 1:5d}  {h.total:6.4f}  {h.classifier:10.4f}  "
          f"{h.margin:6.4f}  {h.regularizer:11.4f}")

    z = result.embeddings
    print()
    print(f"Final embeddings: {z.shape[0]} x {z.shape[1]} "
          f"(friend half | enemy half), entries in (-1, 1)")

    # A quick sanity read on the geometry the margins ask for: positive
    # pairs should sit closer than negative pairs on average.
    u, v, sign = split.train.edge_array().T
    d = np.sum((z[u] - z[v]) ** 2, axis=1)
    print(f"Mean squared distance: positive pairs {d[sign > 0].mean():.3f}, "
          f"negative pairs {d[sign < 0].mean():.3f}")


if __name__ == "__main__":
    main()
