import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from sgcn.graph import (
    SignedGraph,
    load_edge_list,
    neighbor_sets,
    split_train_test,
    to_undirected,
)
from sgcn import training
from sgcn.model import SgcnConfig, embed_all, init_params
from sgcn.training import (
    DivergenceError,
    MlgParams,
    SamplingError,
    TrainBatch,
    TrainConfig,
    _objective,
    fit,
    loss_parts,
    sample_batch,
)

from oracles import central_difference, gradients, random_signed_graph

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def small_config(**overrides):
    base = dict(batch_nodes=6, pairs_per_class=2, epochs=5, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def same_batch(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("pairs", "pos_triplets", "neg_triplets")
    )


NO_ROWS = np.empty((0, 3), dtype=np.intp)


def two_cliques(k=10):
    """Two positive cliques joined by negative edges: perfectly balanced."""
    edges = []
    for u in range(k):
        for v in range(u + 1, k):
            edges.append((u, v, 1))
            edges.append((u + k, v + k, 1))
    for u in range(0, k, 2):
        edges.append((u, u + k, -1))
    return SignedGraph.from_edges(2 * k, edges)


class TestSampleBatch:
    def test_deterministic_per_seed_and_epoch(self):
        g = two_cliques(6)
        cfg = small_config(batch_nodes=8)
        a = sample_batch(g, cfg, epoch=3)
        b = sample_batch(g, cfg, epoch=3)
        assert same_batch(a, b)
        assert a.class_weights == b.class_weights
        c = sample_batch(g, cfg, epoch=4)
        assert not same_batch(a, c)
        # A pure function of (seed, epoch): no state carries between calls,
        # and the settings that do not shape a batch do not change it.
        forward = [sample_batch(g, cfg, epoch) for epoch in range(5)]
        backward = [sample_batch(g, cfg, epoch) for epoch in reversed(range(5))]
        assert all(same_batch(x, y) for x, y in zip(forward, backward[::-1]))
        other = small_config(batch_nodes=8, margin_weight=0.0, learning_rate=1.0, epochs=1)
        assert same_batch(a, sample_batch(g, other, epoch=3))
        assert not same_batch(a, sample_batch(g, small_config(batch_nodes=8, seed=1), epoch=3))

    def test_pair_membership_honors_adjacency(self):
        rng = np.random.default_rng(1)
        g = random_signed_graph(rng, 12, edge_prob=0.4)
        batch = sample_batch(g, small_config(batch_nodes=12), epoch=0)
        for i, j, s in batch.pairs:
            pos, neg = neighbor_sets(g, i)
            if s == 1:
                assert j in pos
            elif s == -1:
                assert j in neg
            else:
                assert not g.has_edge(i, j) and i != j
        for i, j, k in batch.pos_triplets:
            assert j in neighbor_sets(g, i)[0]
            assert not g.has_edge(i, k) and k != i
        for i, j, k in batch.neg_triplets:
            assert j in neighbor_sets(g, i)[1]
            assert not g.has_edge(i, k) and k != i

    def test_fresh_no_link_partner_each_epoch(self):
        g = two_cliques(8)
        cfg = small_config(batch_nodes=16, pairs_per_class=3)
        a = sample_batch(g, cfg, epoch=0)
        b = sample_batch(g, cfg, epoch=1)
        assert not np.array_equal(a.pos_triplets, b.pos_triplets)

    def test_complete_positive_graph_fails(self):
        n = 6
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
        g = SignedGraph.from_edges(n, edges)
        with pytest.raises(SamplingError):
            sample_batch(g, small_config(batch_nodes=n), epoch=0)

    def test_inverse_frequency_weights(self):
        rng = np.random.default_rng(2)
        g = random_signed_graph(rng, 14, edge_prob=0.4, neg_frac=0.3)
        batch = sample_batch(g, small_config(batch_nodes=14), epoch=0)
        counts = {}
        for _, _, s in batch.pairs:
            counts[s] = counts.get(s, 0) + 1
        total = len(batch.pairs)
        for s, count in counts.items():
            assert batch.class_weights[s] == pytest.approx(total / (3.0 * count))

    def test_equal_counts_give_equal_weights(self):
        pairs = [(0, 1, 1), (0, 2, -1), (0, 3, 0)]
        counts = {1: 1, -1: 1, 0: 1}
        weights = {s: len(pairs) / (3.0 * c) for s, c in counts.items()}
        assert weights == {1: 1.0, -1: 1.0, 0: 1.0}

    @pytest.mark.parametrize("ppc", [1, 3, 8])
    def test_pairs_per_anchor_follow_degrees(self, ppc):
        rng = np.random.default_rng(7)
        g = random_signed_graph(rng, 40, edge_prob=0.3, neg_frac=0.3)
        batch = sample_batch(g, small_config(batch_nodes=25, pairs_per_class=ppc), epoch=2)
        anchors = np.unique(batch.pairs[:, 0])
        assert len(anchors) == 25
        for i in anchors:
            pos, neg = neighbor_sets(g, i)
            mine = batch.pairs[batch.pairs[:, 0] == i]
            for sign, nbrs, triplets in ((1, pos, batch.pos_triplets),
                                         (-1, neg, batch.neg_triplets)):
                chosen = mine[mine[:, 2] == sign, 1]
                assert len(chosen) == min(ppc, len(nbrs))
                assert len(set(chosen.tolist())) == len(chosen)
                assert set(chosen.tolist()) <= set(nbrs)
                linked = triplets[triplets[:, 0] == i, 1]
                assert sorted(linked.tolist()) == sorted(chosen.tolist())
            assert np.sum(mine[:, 2] == 0) == ppc

    def test_no_partner_is_the_anchor_or_linked_to_it(self):
        # Dense graphs, so that many first draws are rejected and redrawn.
        rng = np.random.default_rng(11)
        for trial in range(20):
            g = random_signed_graph(rng, 20, edge_prob=0.6, neg_frac=0.4)
            batch = sample_batch(g, small_config(batch_nodes=20, pairs_per_class=4,
                                                 seed=trial), epoch=trial)
            partners = np.vstack([
                batch.pairs[batch.pairs[:, 2] == 0][:, :2],
                batch.pos_triplets[:, [0, 2]],
                batch.neg_triplets[:, [0, 2]],
            ])
            for i, k in partners.tolist():
                assert k != i and not g.has_edge(i, k)

    @pytest.mark.dataset
    def test_bitcoin_alpha_batch_is_pinned(self):
        # Any change to the sampler's draw order changes this digest.
        g = to_undirected(load_edge_list(DATA_DIR / "bitcoin_alpha.csv", "weighted-csv"))
        batch = sample_batch(split_train_test(g, 0.2, seed=0).train,
                             TrainConfig(seed=0), epoch=0)
        assert [len(batch.pairs), len(batch.pos_triplets), len(batch.neg_triplets)] == [
            3762, 1105, 157]
        digest = hashlib.sha1()
        for rows in (batch.pairs, batch.pos_triplets, batch.neg_triplets):
            digest.update(rows.astype(np.int64).tobytes())
        assert digest.hexdigest() == "cc31ec9c7a4d333a449595546acfcd649bda5543"

    def test_isolated_anchor_contributes_only_unlinked_pairs(self):
        g = SignedGraph.from_edges(5, [(1, 2, 1), (3, 4, -1)])
        cfg = small_config(batch_nodes=5, pairs_per_class=2)
        batch = sample_batch(g, cfg, epoch=0)
        from_zero = [(i, j, s) for i, j, s in batch.pairs if i == 0]
        assert from_zero and all(s == 0 for _, _, s in from_zero)


class TestLoss:
    def _setup(self, seed=0, n=10):
        rng = np.random.default_rng(seed)
        g = random_signed_graph(rng, n, edge_prob=0.5)
        cfg = SgcnConfig(d_in=3, d_hidden=3, layers=2)
        params = init_params(cfg, seed)
        x = rng.standard_normal((n, 3))
        z = embed_all(g, x, params, cfg)
        mlg = MlgParams(
            theta=rng.standard_normal((3, 4 * cfg.d_hidden)) * 0.2,
            bias=rng.standard_normal(3) * 0.1,
        )
        batch = sample_batch(g, small_config(batch_nodes=n), epoch=0)
        return g, x, z, params, mlg, batch, cfg

    def test_zero_classifier_gives_log3_per_pair(self):
        g, x, z, params, mlg, batch, _ = self._setup()
        mlg = MlgParams.zeros(z.shape[1])
        uniform = TrainBatch(
            batch.pairs, batch.pos_triplets, batch.neg_triplets,
            {s: 1.0 for s in batch.class_weights},
        )
        cfg = small_config(margin_weight=0.0, reg_coeff=0.0)
        assert loss_parts(z, mlg, uniform, params, cfg).total == pytest.approx(np.log(3.0))

    def test_identical_embeddings_zero_margins(self):
        g, x, z, params, mlg, batch, _ = self._setup()
        z_same = np.tile(z[0], (z.shape[0], 1))
        cfg = small_config(reg_coeff=0.0)
        parts = loss_parts(z_same, mlg, batch, params, cfg)
        assert parts.margin == 0.0

    def test_lambda_zero_reg_zero_isolates_classifier(self):
        g, x, z, params, mlg, batch, _ = self._setup()
        cfg = small_config(margin_weight=0.0, reg_coeff=0.0)
        parts = loss_parts(z, mlg, batch, params, cfg)
        assert parts.margin == 0.0 and parts.regularizer == 0.0
        assert loss_parts(z, mlg, batch, params, cfg).total == parts.classifier

    def test_decomposition_is_additive(self):
        g, x, z, params, mlg, batch, _ = self._setup(seed=3)
        lam, reg = 2.5, 1e-3
        full = loss_parts(z, mlg, batch, params, small_config(margin_weight=lam, reg_coeff=reg))
        bare = loss_parts(z, mlg, batch, params, small_config(margin_weight=0.0, reg_coeff=0.0))
        margin_only = loss_parts(z, mlg, batch, params, small_config(margin_weight=lam, reg_coeff=0.0))
        assert full.margin >= 0.0 and full.regularizer >= 0.0
        assert full.classifier == pytest.approx(bare.classifier)
        assert margin_only.margin == pytest.approx(full.margin)
        assert full.total == pytest.approx(
            bare.classifier + margin_only.margin + full.regularizer
        )

    def test_classifier_invariant_to_common_shift(self):
        g, x, z, params, mlg, batch, _ = self._setup(seed=4)
        cfg = small_config(reg_coeff=0.0)
        before = loss_parts(z, mlg, batch, params, cfg).total
        shift = np.random.default_rng(0).standard_normal(mlg.theta.shape[1])
        shifted = MlgParams(theta=mlg.theta + shift, bias=mlg.bias + 0.7)
        after = loss_parts(z, shifted, batch, params, cfg).total
        assert after == pytest.approx(before, abs=1e-10)

    def test_margins_invariant_to_rotation_and_translation(self):
        g, x, z, params, mlg, batch, _ = self._setup(seed=5)
        cfg = small_config(reg_coeff=0.0)
        base = loss_parts(z, mlg, batch, params, cfg).margin
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((z.shape[1], z.shape[1])))
        moved = z @ q + rng.standard_normal(z.shape[1])
        assert loss_parts(moved, mlg, batch, params, cfg).margin == pytest.approx(base)

    def test_empty_pairs_rejected(self):
        g, x, z, params, mlg, batch, _ = self._setup()
        empty = TrainBatch(NO_ROWS, NO_ROWS, NO_ROWS, {})
        with pytest.raises(ValueError):
            loss_parts(z, mlg, empty, params, small_config()).total


class TestGradients:
    def test_pairless_batch_rejected(self):
        # The same refusal as loss_parts, not the gradient of the L2 term alone.
        g = SignedGraph.from_edges(6, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (4, 5, 1)])
        sgcn_cfg = SgcnConfig(d_in=2, d_hidden=2, layers=2)
        params = init_params(sgcn_cfg, 0)
        x = np.random.default_rng(10).standard_normal((6, 2))
        mlg = MlgParams.zeros(sgcn_cfg.embedding_dim)
        pairless = TrainBatch(NO_ROWS, np.array([[0, 1, 4]]), NO_ROWS, {})
        with pytest.raises(ValueError, match="no labeled pairs"):
            gradients(g, x, params, mlg, pairless, small_config(), sgcn_cfg)

    def test_regularizer_gradient_is_linear_in_parameters(self):
        # The classifier and margin parts are independent of reg_coeff, so
        # differencing two reg settings isolates the penalty's gradient,
        # which must be exactly 2 * reg * parameter.
        rng = np.random.default_rng(7)
        g = random_signed_graph(rng, 8, edge_prob=0.5)
        cfg = SgcnConfig(d_in=3, d_hidden=2, layers=2)
        params = init_params(cfg, 1)
        x = rng.standard_normal((8, 3))
        mlg = MlgParams(theta=rng.standard_normal((3, 8)), bias=np.zeros(3))
        batch = sample_batch(g, small_config(batch_nodes=8), epoch=0)
        reg = 1e-2
        lo_w, lo_m = gradients(g, x, params, mlg, batch,
                               small_config(margin_weight=0.0, reg_coeff=reg), cfg)
        hi_w, hi_m = gradients(g, x, params, mlg, batch,
                               small_config(margin_weight=0.0, reg_coeff=2 * reg), cfg)
        assert hi_m.theta - lo_m.theta == pytest.approx(2.0 * reg * mlg.theta)
        for w, g1, g2 in zip(
            params.all_weights(), lo_w.all_weights(), hi_w.all_weights()
        ):
            assert g2 - g1 == pytest.approx(2.0 * reg * w)

    def test_single_pair_classifier_gradient_symmetry(self):
        # One labeled pair, zero classifier: softmax is uniform, so the two
        # non-label rows of the theta gradient are identical and the label
        # row is -2x their value, all proportional to the class weight.
        rng = np.random.default_rng(8)
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)])
        sgcn_cfg = SgcnConfig(d_in=2, d_hidden=2, layers=1)
        params = init_params(sgcn_cfg, 0)
        x = rng.standard_normal((4, 2))
        mlg = MlgParams.zeros(sgcn_cfg.embedding_dim)
        omega = 1.7
        batch = TrainBatch(np.array([[0, 1, 1]]), NO_ROWS, NO_ROWS, {1: omega})
        cfg = small_config(margin_weight=0.0, reg_coeff=0.0)
        _, grad_mlg = gradients(g, x, params, mlg, batch, cfg, sgcn_cfg)
        label_row, other_rows = grad_mlg.theta[0], grad_mlg.theta[1:]
        assert other_rows[0] == pytest.approx(other_rows[1])
        assert label_row == pytest.approx(-2.0 * other_rows[0])
        z = embed_all(g, x, params, sgcn_cfg)
        features = np.concatenate([z[0], z[1]])
        assert other_rows[0] == pytest.approx(omega * features / 3.0)

    def test_matches_central_differences(self):
        # Zero weights run the hinge and L2 code too, scaled to exact zeros.
        failures = 0
        depths = set()
        settings = [dict(margin_weight=2.0, reg_coeff=1e-3), dict(margin_weight=0.0, reg_coeff=0.0)]
        for trial, weights in itertools.product(range(25), settings):
            rng = np.random.default_rng(500 + trial)
            n = int(rng.integers(6, 11))
            g = random_signed_graph(rng, n, edge_prob=0.5, neg_frac=0.35)
            if g.num_edges < 3:
                continue
            variant = "plus" if trial % 4 == 3 else "standard"
            layers = 1 if trial % 5 == 4 else 2
            if variant == "plus":
                layers = 2
            if trial >= 20:  # depth 3 runs the later-layer table twice
                variant, layers = "standard", 3
            sgcn_cfg = SgcnConfig(d_in=4, d_hidden=3, layers=layers, variant=variant)
            params = init_params(sgcn_cfg, int(rng.integers(10000)))
            x = rng.standard_normal((n, 4))
            mlg = MlgParams(
                theta=rng.standard_normal((3, 4 * 3)) * 0.3,
                bias=rng.standard_normal(3) * 0.1,
            )
            cfg = small_config(batch_nodes=n, seed=trial, **weights)
            try:
                batch = sample_batch(g, cfg, epoch=0)
            except SamplingError:
                continue
            grad_w, grad_mlg = gradients(g, x, params, mlg, batch, cfg, sgcn_cfg)

            def objective():
                z = embed_all(g, x, params, sgcn_cfg)
                return loss_parts(z, mlg, batch, params, cfg).total

            checks = [
                (params.w_friend[i], grad_w.w_friend[i]) for i in range(layers)
            ] + [
                (params.w_enemy[i], grad_w.w_enemy[i]) for i in range(layers)
            ] + [(mlg.theta, grad_mlg.theta), (mlg.bias, grad_mlg.bias)]
            for array, analytic in checks:
                fd = central_difference(objective, array, step=1e-5)
                denom = np.maximum(1e-2, np.maximum(np.abs(fd), np.abs(analytic)))
                rel = np.abs(fd - analytic) / denom
                if rel.max() >= 1e-4:
                    failures += 1
            depths.add(layers)
        assert failures == 0
        assert depths == {1, 2, 3}


class TestObjectiveGradient:
    @pytest.mark.parametrize("linked_sign", [1, -1], ids=["positive-only", "negative-only"])
    def test_dz_matches_central_differences(self, linked_sign):
        # Node 0 is i of one triplet and k of another, the pair (0, 1) is
        # drawn twice, and the other sign has no triplets.
        pairs = np.array([[0, 1, 1], [0, 1, 1], [2, 3, -1], [4, 1, 1], [0, 5, 0], [3, 4, 0]])
        triplets = np.array([[0, 1, 4], [5, 2, 0], [2, 3, 1]])
        pos, neg = (triplets, NO_ROWS) if linked_sign > 0 else (NO_ROWS, triplets)
        batch = TrainBatch(pairs, pos, neg, {1: 0.8, -1: 1.9, 0: 1.1})
        rng = np.random.default_rng(21)
        z = rng.standard_normal((6, 4))
        mlg = MlgParams(theta=rng.standard_normal((3, 8)), bias=rng.standard_normal(3))
        cfg = small_config(margin_weight=1.5, reg_coeff=1e-3)
        params = init_params(SgcnConfig(d_in=2, d_hidden=2), 0)
        slack = [np.sum((z[i] - z[j]) ** 2) - np.sum((z[i] - z[k]) ** 2) for i, j, k in triplets]
        # Active and inactive hinges, none near its kink, where the
        # difference quotient would straddle it.
        assert min(slack) < -0.1 and max(slack) > 0.1 and min(np.abs(slack)) > 0.1
        dz = _objective(z, mlg, batch, params, cfg)[1]
        fd = central_difference(lambda: loss_parts(z, mlg, batch, params, cfg).total, z)
        assert dz == pytest.approx(fd, rel=1e-6, abs=1e-8)


MODELS = {
    "sgcn-1": dict(layers=1),
    "sgcn-1+": dict(layers=2, variant="plus"),
    "sgcn-2": dict(layers=2),
}


class TestFit:
    @pytest.mark.parametrize("weights", [{}, dict(margin_weight=0.0, reg_coeff=0.0)],
                             ids=["default", "classifier-only"])
    @pytest.mark.parametrize("model", MODELS)
    def test_history_is_loss_parts_at_each_epoch(self, model, weights):
        # A run of e epochs stops at the weights that epoch e starts from, so
        # its final embeddings are the ones epoch e's history entry was read at.
        g = two_cliques(5)
        x = np.random.default_rng(9).standard_normal((g.n, 4))
        sgcn_cfg = SgcnConfig(d_in=4, d_hidden=3, **MODELS[model])
        cfg = small_config(batch_nodes=g.n, epochs=5, **weights)
        history = fit(g, x, cfg, sgcn_cfg).history
        for epoch, parts in enumerate(history):
            start = fit(g, x, small_config(batch_nodes=g.n, epochs=epoch, **weights), sgcn_cfg)
            batch = sample_batch(g, cfg, epoch)
            assert parts == loss_parts(start.embeddings, start.mlg, batch, start.params, cfg)

    def test_one_objective_pass_per_epoch(self, monkeypatch):
        # The history comes from the pass that gives the gradient.
        def refuse(*args, **kwargs):
            raise AssertionError("fit evaluated the objective a second time")

        monkeypatch.setattr(training, "loss_parts", refuse)
        g = two_cliques(4)
        x = np.random.default_rng(11).standard_normal((g.n, 3))
        result = fit(g, x, small_config(batch_nodes=g.n, epochs=3), SgcnConfig(d_in=3, d_hidden=2))
        assert len(result.history) == 3

    def test_vanishing_learning_rate_is_a_no_op(self):
        # The config type requires a positive rate, so "no update" is probed
        # with a vanishing one. Batches still resample each epoch, so only
        # the parameters (not the per-epoch losses) are expected to stand
        # still.
        g = two_cliques(5)
        x = np.random.default_rng(0).standard_normal((g.n, 4))
        sgcn_cfg = SgcnConfig(d_in=4, d_hidden=3, layers=2)
        cfg = small_config(batch_nodes=g.n, epochs=4, learning_rate=1e-12)
        result = fit(g, x, cfg, sgcn_cfg)
        fresh = init_params(sgcn_cfg, cfg.seed)
        for trained, orig in zip(result.params.all_weights(), fresh.all_weights()):
            assert trained == pytest.approx(orig, abs=1e-9)
        with pytest.raises(ValueError):
            small_config(learning_rate=0.0)

    @pytest.mark.parametrize("setting", ["margin_weight", "reg_coeff", "learning_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_settings_refused(self, setting, value):
        # Refused here rather than reported as divergence after an epoch.
        with pytest.raises(ValueError, match=f"{setting} must be finite"):
            small_config(**{setting: value})

    def test_first_epoch_identical_across_run_lengths(self):
        g = two_cliques(5)
        x = np.random.default_rng(1).standard_normal((g.n, 4))
        sgcn_cfg = SgcnConfig(d_in=4, d_hidden=3, layers=2)
        one = fit(g, x, small_config(batch_nodes=g.n, epochs=1), sgcn_cfg)
        two = fit(g, x, small_config(batch_nodes=g.n, epochs=2), sgcn_cfg)
        assert one.history[0].total == two.history[0].total

    def test_loss_descends_on_separable_instance(self):
        g = two_cliques(10)
        x = np.random.default_rng(2).standard_normal((g.n, 6))
        sgcn_cfg = SgcnConfig(d_in=6, d_hidden=4, layers=2)
        cfg = small_config(batch_nodes=g.n, pairs_per_class=3, epochs=60)
        result = fit(g, x, cfg, sgcn_cfg)
        assert result.history[-1].total < result.history[0].total

    def test_small_step_does_not_increase_fixed_batch_loss(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            g = random_signed_graph(rng, 10, edge_prob=0.5)
            if g.num_edges < 4:
                continue
            sgcn_cfg = SgcnConfig(d_in=3, d_hidden=3, layers=2)
            params = init_params(sgcn_cfg, trial)
            x = rng.standard_normal((10, 3))
            mlg = MlgParams(
                theta=rng.standard_normal((3, 12)) * 0.2, bias=np.zeros(3)
            )
            cfg = small_config(batch_nodes=10, seed=trial, margin_weight=1.0,
                               reg_coeff=1e-4)
            batch = sample_batch(g, cfg, epoch=0)
            z = embed_all(g, x, params, sgcn_cfg)
            before = loss_parts(z, mlg, batch, params, cfg).total
            grad_w, grad_mlg = gradients(g, x, params, mlg, batch, cfg, sgcn_cfg)
            lr = 1e-4
            for w, gw in zip(params.w_friend, grad_w.w_friend):
                w -= lr * gw
            for w, gw in zip(params.w_enemy, grad_w.w_enemy):
                w -= lr * gw
            stepped = MlgParams(
                theta=mlg.theta - lr * grad_mlg.theta,
                bias=mlg.bias - lr * grad_mlg.bias,
            )
            z2 = embed_all(g, x, params, sgcn_cfg)
            after = loss_parts(z2, stepped, batch, params, cfg).total
            assert after <= before + 1e-8

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("error::RuntimeWarning:sgcn.model")
    def test_divergence_reported_with_epoch(self):
        # Adam moves each weight by about the learning rate per epoch, so a
        # finite rate cannot blow up geometrically; a step of 1e160 makes the
        # L2 term overflow on the epoch after the first update.
        g = two_cliques(5)
        x = 1e3 * np.random.default_rng(4).standard_normal((g.n, 3))
        sgcn_cfg = SgcnConfig(d_in=3, d_hidden=3, layers=2)
        cfg = small_config(batch_nodes=g.n, epochs=40, learning_rate=1e160,
                           margin_weight=1e6)
        with pytest.raises(DivergenceError) as exc:
            fit(g, x, cfg, sgcn_cfg)
        assert exc.value.epoch > 0

    def test_first_step_bounded_by_learning_rate_under_heavy_margin(self):
        # The hinge terms have no margin constant, so their gradient grows
        # with the square of the embedding scale; at margin_weight=1e6 it
        # dwarfs the classifier term. The step size must still come from the
        # learning rate, not from the size of the hinge gradient.
        g = two_cliques(5)
        x = np.random.default_rng(7).standard_normal((g.n, 4))
        sgcn_cfg = SgcnConfig(d_in=4, d_hidden=3, layers=2)
        cfg = small_config(batch_nodes=g.n, epochs=1, margin_weight=1e6)
        result = fit(g, x, cfg, sgcn_cfg)
        fresh = init_params(sgcn_cfg, cfg.seed)
        bound = cfg.learning_rate * (1.0 + 1e-6)
        moves = [
            np.abs(trained - orig).max()
            for trained, orig in zip(result.params.all_weights(), fresh.all_weights())
        ]
        moves += [np.abs(result.mlg.theta).max(), np.abs(result.mlg.bias).max()]
        assert max(moves) <= bound
        assert max(moves) >= 0.5 * cfg.learning_rate

    def test_history_length_and_final_embedding_shape(self):
        g = two_cliques(4)
        x = np.random.default_rng(6).standard_normal((g.n, 3))
        sgcn_cfg = SgcnConfig(d_in=3, d_hidden=2, layers=2)
        cfg = small_config(batch_nodes=g.n, epochs=7)
        result = fit(g, x, cfg, sgcn_cfg)
        assert len(result.history) == 7
        assert result.embeddings.shape == (g.n, 4)
