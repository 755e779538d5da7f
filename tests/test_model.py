import numpy as np
import pytest

from sgcn.balance import reach_sets
from sgcn.graph import SignedGraph, neighbor_sets
from sgcn.model import (
    SgcnConfig,
    SgcnParams,
    embed_all,
    forward_pass,
    init_params,
)

from oracles import random_signed_graph


def mixed_path():
    # 0 -(+)- 1 -(-)- 2
    return SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])


def negative_path():
    # 0 -(-)- 1 -(-)- 2
    return SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1)])


def standard_config(cfg):
    """The standard variant at the shapes of ``cfg``, so it takes the same weights."""
    return SgcnConfig(d_in=cfg.d_in, d_hidden=cfg.d_hidden, layers=cfg.layers)


class TestConfig:
    def test_plus_requires_two_layers(self):
        with pytest.raises(ValueError):
            SgcnConfig(d_in=4, layers=3, variant="plus")
        SgcnConfig(d_in=4, layers=2, variant="plus")

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SgcnConfig(d_in=0)
        with pytest.raises(ValueError):
            SgcnConfig(d_in=4, layers=0)
        with pytest.raises(ValueError):
            SgcnConfig(d_in=4, variant="triple")


class TestInitParams:
    def test_deterministic(self):
        cfg = SgcnConfig(d_in=5, d_hidden=4, layers=2)
        a = init_params(cfg, seed=12)
        b = init_params(cfg, seed=12)
        for wa, wb in zip(a.all_weights(), b.all_weights()):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        cfg = SgcnConfig(d_in=64, d_hidden=32, layers=2)
        params = init_params(cfg, seed=0)
        assert params.w_friend[0].shape == (32, 128)
        assert params.w_friend[1].shape == (32, 96)
        assert params.w_enemy[0].shape == (32, 128)
        assert params.w_enemy[1].shape == (32, 96)

    def test_entries_within_uniform_bound(self):
        cfg = SgcnConfig(d_in=6, d_hidden=3, layers=3)
        params = init_params(cfg, seed=5)
        for layer, w in enumerate(params.w_friend):
            fan_in = 2 * 6 if layer == 0 else 3 * 3
            bound = np.sqrt(6.0 / (fan_in + 3))
            assert np.abs(w).max() <= bound


class TestForwardLayer1:
    def test_empty_neighborhood_contributes_zero(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        x = np.array([[0.3, -0.2], [0.5, 0.1]])
        cfg = SgcnConfig(d_in=2, d_hidden=2, layers=1)
        params = init_params(cfg, seed=1)
        (state,) = forward_pass(g, x, params, cfg)
        # No negative neighbors anywhere: enemy input is [0, x_i].
        expected = np.tanh(np.hstack([np.zeros_like(x), x]) @ params.w_enemy[0].T)
        assert state.enemy == pytest.approx(expected)

    def test_singleton_mean_is_the_neighbor(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        x = np.array([[0.3, -0.2], [0.5, 0.1]])
        cfg = SgcnConfig(d_in=2, d_hidden=2, layers=1)
        params = init_params(cfg, seed=1)
        (state,) = forward_pass(g, x, params, cfg)
        expected_row0 = np.tanh(params.w_friend[0] @ np.concatenate([x[1], x[0]]))
        assert state.friend[0] == pytest.approx(expected_row0)

    def test_matches_scalar_recomputation(self):
        # 3 nodes, hand-expanded matrix products, scalar by scalar.
        g = SignedGraph.from_edges(3, [(0, 1, 1), (0, 2, -1), (1, 2, 1)])
        x = np.array([[1.0, 2.0], [-1.0, 0.5], [0.25, -0.75]])
        cfg = SgcnConfig(d_in=2, d_hidden=1, layers=1)
        wf = np.array([[0.1, -0.2, 0.3, 0.4]])
        we = np.array([[-0.5, 0.6, 0.7, -0.8]])
        params = SgcnParams(w_friend=[wf], w_enemy=[we], rng_seed=0)
        (state,) = forward_pass(g, x, params, cfg)
        # Node 0: positive neighbors {1}, negative {2}.
        pos_mean = [(-1.0 + 0.5 * 0) / 1, 0.5]  # x_1
        f0 = np.tanh(0.1 * -1.0 + -0.2 * 0.5 + 0.3 * 1.0 + 0.4 * 2.0)
        e0 = np.tanh(-0.5 * 0.25 + 0.6 * -0.75 + 0.7 * 1.0 + -0.8 * 2.0)
        assert state.friend[0, 0] == pytest.approx(f0)
        assert state.enemy[0, 0] == pytest.approx(e0)
        # Node 1: positive neighbors {0, 2} -> mean of x_0 and x_2.
        mean = (x[0] + x[2]) / 2
        f1 = np.tanh(0.1 * mean[0] + -0.2 * mean[1] + 0.3 * -1.0 + 0.4 * 0.5)
        assert state.friend[1, 0] == pytest.approx(f1)

    def test_shape_mismatch(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        cfg = SgcnConfig(d_in=3, d_hidden=2, layers=1)
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            forward_pass(g, np.zeros((2, 2)), params, cfg)
        with pytest.raises(ValueError):
            forward_pass(g, np.zeros((5, 3)), params, cfg)


class TestForwardLayer:
    def test_all_positive_graph_keeps_cross_terms_zero(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        cfg = SgcnConfig(d_in=3, d_hidden=2, layers=2)
        params = init_params(cfg, seed=2)
        x = np.random.default_rng(0).standard_normal((4, 3))
        state1, state2 = forward_pass(g, x, params, cfg)
        # With no negative edges the enemy mean slot is zero, so the friend
        # track must equal the computation that drops that slot entirely.
        from sgcn.model import neighbor_mean_ops

        pos_mean, _ = neighbor_mean_ops(g)
        inputs = np.hstack(
            [pos_mean @ state1.friend, np.zeros_like(state1.friend), state1.friend]
        )
        assert state2.friend == pytest.approx(np.tanh(inputs @ params.w_friend[1].T))

    def test_enemy_of_enemy_reaches_friend_track(self):
        g = negative_path()
        cfg = SgcnConfig(d_in=2, d_hidden=2, layers=2)
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2))
        base = embed_all(g, x, params, cfg)
        x2 = x.copy()
        x2[2] += 1.0  # perturb node 2's features
        moved = embed_all(g, x2, params, cfg)
        h = cfg.d_hidden
        # Node 0's friend half must move: node 2 is an enemy of an enemy.
        assert np.abs(moved[0, :h] - base[0, :h]).max() > 1e-9

    def test_zero_weights_yield_zero_activation(self):
        g = mixed_path()
        cfg = SgcnConfig(d_in=2, d_hidden=3, layers=2)
        params = init_params(cfg, seed=4)
        for w in params.all_weights():
            w[:] = 0.0
        z = embed_all(g, np.ones((3, 2)), params, cfg)
        assert np.array_equal(z, np.zeros((3, 6)))


class TestPlusVariant:
    def test_all_positive_graph_matches_standard_friend_track(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1)])
        cfg = SgcnConfig(d_in=2, d_hidden=2, layers=2, variant="plus")
        params = init_params(cfg, seed=5)
        x = np.random.default_rng(2).standard_normal((4, 2))
        plus = forward_pass(g, x, params, cfg)[1]
        standard = forward_pass(g, x, params, standard_config(cfg))[1]
        assert plus.friend == pytest.approx(standard.friend)

    def test_no_negative_neighbors_reduces_to_self_slot(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        cfg = SgcnConfig(d_in=2, d_hidden=2, layers=2, variant="plus")
        params = init_params(cfg, seed=6)
        x = np.random.default_rng(3).standard_normal((3, 2))
        state1, plus = forward_pass(g, x, params, cfg)
        h = cfg.d_hidden
        inputs = np.hstack([np.zeros((3, h)), np.zeros((3, h)), state1.enemy])
        assert plus.enemy == pytest.approx(np.tanh(inputs @ params.w_enemy[1].T))

    def test_keeps_each_sign_on_its_own_track(self):
        g = SignedGraph.from_edges(
            3, [(0, 1, 1), (1, 2, -1), (0, 2, -1)]
        )
        cfg = SgcnConfig(d_in=2, d_hidden=2, layers=2, variant="plus")
        params = init_params(cfg, seed=7)
        x = np.random.default_rng(4).standard_normal((3, 2))
        state1, plus = forward_pass(g, x, params, cfg)
        from sgcn.model import neighbor_mean_ops

        pos_mean, neg_mean = neighbor_mean_ops(g)
        h = cfg.d_hidden
        zero = np.zeros((3, h))
        # Friend track: positive-neighbor means twice over, no enemy input.
        friend_in = np.hstack([pos_mean @ state1.friend, zero, state1.friend])
        # Enemy track: negative-neighbor means of enemy states, no crossing.
        enemy_in = np.hstack([zero, neg_mean @ state1.enemy, state1.enemy])
        assert plus.friend == pytest.approx(np.tanh(friend_in @ params.w_friend[1].T))
        assert plus.enemy == pytest.approx(np.tanh(enemy_in @ params.w_enemy[1].T))
        # On this mixed-sign instance the standard layer disagrees on both
        # tracks: the cross-track slots carry information the plus drops.
        standard = forward_pass(g, x, params, standard_config(cfg))[1]
        assert np.abs(standard.friend - plus.friend).max() > 1e-9
        assert np.abs(standard.enemy - plus.enemy).max() > 1e-9


class TestEmbedAll:
    def test_single_layer_concatenates_both_tracks(self):
        g = mixed_path()
        cfg = SgcnConfig(d_in=2, d_hidden=4, layers=1)
        params = init_params(cfg, seed=8)
        x = np.random.default_rng(5).standard_normal((3, 2))
        z = embed_all(g, x, params, cfg)
        (state,) = forward_pass(g, x, params, cfg)
        assert z.shape == (3, 8)
        assert z == pytest.approx(np.hstack([state.friend, state.enemy]))

    def test_width_is_twice_hidden(self):
        rng = np.random.default_rng(6)
        g = random_signed_graph(rng, 8, edge_prob=0.5)
        for layers, variant in ((1, "standard"), (2, "standard"), (2, "plus"), (3, "standard")):
            cfg = SgcnConfig(d_in=3, d_hidden=32, layers=layers, variant=variant)
            params = init_params(cfg, seed=9)
            z = embed_all(g, rng.standard_normal((8, 3)), params, cfg)
            assert z.shape == (8, 64)

    def test_tanh_keeps_entries_bounded(self):
        rng = np.random.default_rng(7)
        g = random_signed_graph(rng, 10, edge_prob=0.6)
        cfg = SgcnConfig(d_in=4, d_hidden=5, layers=3)
        params = init_params(cfg, seed=10)
        z = embed_all(g, 100.0 * rng.standard_normal((10, 4)), params, cfg)
        assert np.abs(z).max() < 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        for variant, layers in (("standard", 2), ("plus", 2), ("standard", 3)):
            g = random_signed_graph(rng, 9, edge_prob=0.5)
            cfg = SgcnConfig(d_in=3, d_hidden=4, layers=layers, variant=variant)
            params = init_params(cfg, seed=11)
            x = rng.standard_normal((9, 3))
            z = embed_all(g, x, params, cfg)
            perm = rng.permutation(9)
            relabeled = [
                (int(np.where(perm == u)[0][0]), int(np.where(perm == v)[0][0]), s)
                for u, v, s in g.edges()
            ]
            g2 = SignedGraph.from_edges(9, relabeled)
            z2 = embed_all(g2, x[perm], params, cfg)
            assert z2 == pytest.approx(z[perm], abs=1e-12)

    def test_locality_radius_matches_depth(self):
        # Path long enough that the far end sits > L hops from node 0.
        n = 7
        g = SignedGraph.from_edges(
            n, [(i, i + 1, 1 if i % 2 == 0 else -1) for i in range(n - 1)]
        )
        rng = np.random.default_rng(9)
        x = rng.standard_normal((n, 3))
        for layers in (1, 2, 3):
            cfg = SgcnConfig(d_in=3, d_hidden=3, layers=layers)
            params = init_params(cfg, seed=12)
            base = embed_all(g, x, params, cfg)
            x2 = x.copy()
            x2[layers + 1] += 5.0  # node at distance layers+1 from node 0
            moved = embed_all(g, x2, params, cfg)
            assert np.array_equal(base[0], moved[0])
            x3 = x.copy()
            x3[layers] += 5.0  # node at distance exactly layers
            moved = embed_all(g, x3, params, cfg)
            assert np.abs(moved[0] - base[0]).max() > 1e-12

    def test_first_layer_track_separation(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (0, 2, -1)])
        cfg = SgcnConfig(d_in=2, d_hidden=3, layers=1)
        params = init_params(cfg, seed=13)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 2))
        (base,) = forward_pass(g, x, params, cfg)
        x_neg = x.copy()
        x_neg[2] += 1.0  # negative neighbor of node 0
        (after,) = forward_pass(g, x_neg, params, cfg)
        assert np.array_equal(base.friend[0], after.friend[0])
        assert np.abs(after.enemy[0] - base.enemy[0]).max() > 1e-12
        x_pos = x.copy()
        x_pos[1] += 1.0  # positive neighbor of node 0
        (after,) = forward_pass(g, x_pos, params, cfg)
        assert np.array_equal(base.enemy[0], after.enemy[0])
        assert np.abs(after.friend[0] - base.friend[0]).max() > 1e-12

    def test_influence_sets_follow_balance_recursion(self):
        # Which input rows can move each track must equal the balanced /
        # unbalanced reach sets plus the direct neighborhood closure.
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_signed_graph(rng, 7, edge_prob=0.45, neg_frac=0.5)
            cfg = SgcnConfig(d_in=3, d_hidden=3, layers=2)
            params = init_params(cfg, seed=int(rng.integers(10000)))
            x = rng.standard_normal((7, 3))
            states = forward_pass(g, x, params, cfg)
            base = states[-1]
            for i in range(g.n):
                rs = reach_sets(g, i, 2)
                closure = {i}.union(*neighbor_sets(g, i))
                expected_friend = closure | rs.balanced_at(2)
                expected_enemy = closure | rs.unbalanced_at(2)
                influence_friend, influence_enemy = set(), set()
                for s in range(g.n):
                    x2 = x.copy()
                    x2[s] += 1.0
                    moved = forward_pass(g, x2, params, cfg)[-1]
                    if np.abs(moved.friend[i] - base.friend[i]).max() > 1e-12:
                        influence_friend.add(s)
                    if np.abs(moved.enemy[i] - base.enemy[i]).max() > 1e-12:
                        influence_enemy.add(s)
                assert influence_friend == expected_friend
                assert influence_enemy == expected_enemy

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        g = random_signed_graph(rng, 8, edge_prob=0.5)
        cfg = SgcnConfig(d_in=3, d_hidden=4, layers=2)
        params = init_params(cfg, seed=14)
        x = rng.standard_normal((8, 3))
        assert np.array_equal(embed_all(g, x, params, cfg), embed_all(g, x, params, cfg))

    def test_layer_count_mismatch(self):
        g = mixed_path()
        cfg2 = SgcnConfig(d_in=2, d_hidden=2, layers=2)
        cfg3 = SgcnConfig(d_in=2, d_hidden=2, layers=3)
        params = init_params(cfg2, seed=0)
        with pytest.raises(ValueError):
            embed_all(g, np.zeros((3, 2)), params, cfg3)
