"""Synthetic submodular and cascade environments, plus the edge-list loader."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from ksvfair import (
    CascadeEnv,
    GameOracle,
    Graph,
    SyntheticEnv,
    additive_game,
    cascade_exact,
    load_edge_list,
)
from ksvfair import envs
from reference import bfs_cascade_pull, scalar_gaussian_pull

DATA = Path(__file__).resolve().parent.parent / "data"


def make_synthetic(M=4, K=2, curvature=1.0, noise=None, **kw):
    means = np.linspace(0.2, 0.95, M)
    return SyntheticEnv(means, noise, budget=K, curvature=curvature, **kw)


def clipped_gaussian_mean(mu, sigma):
    """Analytic mean of N(mu, sigma^2) clipped to [0, 1]."""
    phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    Phi = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    a = (1 - mu) / sigma  # mass lost above 1
    b = mu / sigma  # mass gained below 0
    upper_loss = sigma * (phi(a) - a * (1 - Phi(a)))
    lower_gain = sigma * (phi(b) - b * (1 - Phi(b)))
    return mu - upper_loss + lower_gain


def path_graph(n):
    return Graph(n_nodes=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def triangle_graph():
    return Graph(n_nodes=3, edges=((0, 1), (1, 2), (0, 2)))


class TestSyntheticExact:
    def test_empty_coalition_is_zero(self):
        assert make_synthetic().exact(()) == 0.0

    def test_linear_limit_single_arm(self):
        env = SyntheticEnv([0.3, 0.6], budget=2, curvature=0.0)
        assert env.exact((0,)) == pytest.approx(0.3 / 0.9)
        assert env.exact((1,)) == pytest.approx(0.6 / 0.9)

    def test_full_budget_normalization(self):
        env = SyntheticEnv([0.5, 0.5], budget=2, curvature=1.0)
        assert env.exact((0, 1)) == pytest.approx(1.0)

    def test_concave_transform_hand_value(self):
        env = SyntheticEnv([0.5, 0.5], budget=2, curvature=1.0)
        expected = (1 - math.exp(-0.5)) / (1 - math.exp(-1.0))
        assert env.exact((0,)) == pytest.approx(expected, abs=1e-15)

    def test_oversize_query_rejected(self):
        env = make_synthetic(M=4, K=2)
        with pytest.raises(ValueError):
            env.exact((0, 1, 2))

    def test_extra_query_slack(self):
        env = make_synthetic(M=4, K=2, allow_extra_query=True)
        env.exact((0, 1, 2))  # size K+1 allowed
        with pytest.raises(ValueError):
            env.exact((0, 1, 2, 3))

    @pytest.mark.parametrize("curvature", [0.0, 0.5, 1.0, 3.0])
    def test_monotone_and_submodular_exhaustive(self, curvature):
        M, K = 6, 3
        env = make_synthetic(M=M, K=K, curvature=curvature)
        universe = range(M)
        # monotonicity: adding any arm never hurts
        for size in range(K):
            for S in itertools.combinations(universe, size):
                for i in universe:
                    if i in S:
                        continue
                    assert env.exact(tuple(sorted(S + (i,)))) >= env.exact(S) - 1e-12
        # diminishing returns: the same arm helps a superset no more
        for s_small in range(K - 1):
            for S in itertools.combinations(universe, s_small):
                for Sp in itertools.combinations(universe, s_small + 1):
                    if not set(S) <= set(Sp):
                        continue
                    for i in universe:
                        if i in Sp:
                            continue
                        gain_small = env.exact(tuple(sorted(S + (i,)))) - env.exact(S)
                        gain_big = env.exact(tuple(sorted(Sp + (i,)))) - env.exact(Sp)
                        assert gain_small >= gain_big - 1e-12


class TestSyntheticPull:
    def test_empty_set_pull_is_exactly_zero(self):
        env = make_synthetic(noise=np.full(4, 0.3))
        rng = np.random.default_rng(0)
        assert env.pull((), rng) == 0.0
        assert env.pull_mean((), 5, rng) == 0.0

    def test_zero_noise_pull_equals_exact(self):
        env = make_synthetic(noise=np.zeros(4))
        rng = np.random.default_rng(0)
        for S in [(0,), (1, 3)]:
            assert env.pull(S, rng) == env.exact(S)
            assert env.pull_mean(S, 7, rng) == env.exact(S)

    def test_pull_clipped_to_unit_interval(self):
        env = make_synthetic(noise=np.full(4, 0.8))
        rng = np.random.default_rng(1)
        draws = [env.pull((1, 2), rng) for _ in range(500)]
        assert all(0.0 <= d <= 1.0 for d in draws)

    def test_empirical_mean_converges(self):
        env = SyntheticEnv([0.4, 0.5, 0.6], [0.1, 0.15, 0.2], budget=2)
        rng = np.random.default_rng(2)
        S = (0, 2)
        n = 100_000
        mean = env.pull_mean(S, n, rng)
        sigma = math.sqrt((0.1**2 + 0.2**2) / 2)
        target = clipped_gaussian_mean(env.exact(S), sigma)
        assert abs(mean - target) < 3 * sigma / math.sqrt(n)

    def test_pull_mean_draws_like_scalar_normal(self):
        # the one-row batch consumes the stream as rng.normal(0, sigma, n) does
        env = make_synthetic(noise=np.linspace(0.1, 0.4, 4))
        S, n = (1, 3), 50
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        got = env.pull_mean(S, n, rng_a)
        draws = env.exact(S) + rng_b.normal(0.0, env._moment(S)[1], size=n)
        assert got == np.clip(draws, 0.0, 1.0).mean()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_shared_noise_level_used(self):
        env = SyntheticEnv([0.4, 0.5], [0.1, 0.2], budget=2, shared_noise_std=0.0)
        rng = np.random.default_rng(3)
        assert env.pull((0, 1), rng) == env.exact((0, 1))

    def test_pull_mean_many_matches_sets_order(self):
        env = make_synthetic(noise=np.zeros(4))
        rng = np.random.default_rng(4)
        sets = [(0,), (), (1, 2)]
        masks = np.zeros((len(sets), 4), dtype=bool)
        for row, s in zip(masks, sets):
            row[list(s)] = True
        out = env.pull_mean_many(masks, 3, rng)
        np.testing.assert_allclose(out, [env.exact(s) for s in sets], atol=0)

    def test_batched_noiseless_values_within_ulps_of_exact(self):
        # reduceat need not add a row left to right as exact does
        env = make_synthetic(M=8, K=4, noise=np.zeros(8), allow_extra_query=True)
        sets = [S for s in range(env.query_limit + 1) for S in itertools.combinations(range(8), s)]
        masks = np.zeros((len(sets), 8), dtype=bool)
        for row, S in zip(masks, sets):
            row[list(S)] = True
        out = env.pull_mean_many(masks, 3, np.random.default_rng(0))
        exact = np.array([env.exact(S) for S in sets])
        np.testing.assert_array_max_ulp(out, exact, maxulp=4)
        small = masks.sum(axis=1) <= 2
        np.testing.assert_array_equal(out[small], exact[small])

    @pytest.mark.parametrize(
        "masks",
        [np.ones((2, 3), dtype=bool), np.ones(4, dtype=bool), np.array([[1, 1, 1, 0]], dtype=bool)],
        ids=["wrong-width", "one-dim", "over-limit"],
    )
    def test_pull_mean_many_rejects_bad_masks(self, masks):
        env = make_synthetic(noise=np.zeros(4))
        with pytest.raises(ValueError):
            env.pull_mean_many(masks, 3, np.random.default_rng(0))

    def test_determinism_with_fixed_seed(self):
        env = make_synthetic(noise=np.full(4, 0.2))
        a = [env.pull((0, 1), np.random.default_rng(7)) for _ in range(3)]
        assert a[0] == a[1] == a[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticEnv([0.5, 1.5], budget=2)
        with pytest.raises(ValueError):
            SyntheticEnv([0.5, 0.5], [0.1, -0.1], budget=2)
        with pytest.raises(ValueError):
            SyntheticEnv([0.5, 0.5], budget=3)


class TestScalarPullBits:
    """``pull`` against the earlier ``np.clip(exact + normal(0, sigma))`` pull."""

    @staticmethod
    def assert_same_stream(oracle, seed=0):
        sets = [
            S for s in range(oracle.query_limit + 1)
            for S in itertools.combinations(range(oracle.n_arms), s)
        ]
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for S in sets:
            got = oracle.pull(S, rng_a)
            assert type(got) is float
            assert got == scalar_gaussian_pull(oracle, S, rng_b), S
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("curvature", [0.0, 0.25])
    @pytest.mark.parametrize("noise", ["per-arm", "shared", "zero"])
    def test_synthetic_every_coalition(self, curvature, noise):
        kw = {"shared_noise_std": 0.3} if noise == "shared" else {}
        stds = np.zeros(8) if noise == "zero" else np.linspace(0.1, 0.6, 8)
        env = make_synthetic(M=8, K=4, curvature=curvature, noise=stds, allow_extra_query=True, **kw)
        self.assert_same_stream(env)

    @pytest.mark.parametrize("noise_std", [0.0, 0.35])
    def test_game_oracle_every_coalition(self, noise_std):
        rng = np.random.default_rng(3)
        game = additive_game(rng.random(6) / 3, 4)
        self.assert_same_stream(GameOracle(game, noise_std, budget=3, allow_extra_query=True))


class TestCascade:
    def test_no_spread_returns_seed_fraction(self):
        env = CascadeEnv(path_graph(3), 0.0, budget=2)
        rng = np.random.default_rng(0)
        assert env.pull((0,), rng) == pytest.approx(1 / 3)
        assert env.pull((0, 2), rng) == pytest.approx(2 / 3)
        assert cascade_exact(env, (0,), 50, rng) == pytest.approx(1 / 3)

    def test_full_flooding_covers_component(self):
        # two components: a 3-path and an isolated pair
        g = Graph(n_nodes=5, edges=((0, 1), (1, 2), (3, 4)))
        env = CascadeEnv(g, 1.0, budget=2)
        rng = np.random.default_rng(0)
        assert env.pull((0,), rng) == pytest.approx(3 / 5)
        assert env.pull((3,), rng) == pytest.approx(2 / 5)
        assert env.pull((0, 3), rng) == pytest.approx(1.0)

    def test_triangle_full_probability(self):
        env = CascadeEnv(triangle_graph(), 1.0, budget=1)
        assert cascade_exact(env, (0,), 10, np.random.default_rng(0)) == pytest.approx(1.0)

    def test_path_expected_spread(self):
        # seed node 0 on 0-1-2: spread 1 + p + p^2 nodes on average
        env = CascadeEnv(path_graph(3), 0.5, budget=1)
        n = 40_000
        est = cascade_exact(env, (0,), n, np.random.default_rng(5))
        expected = (1 + 0.5 + 0.25) / 3
        assert abs(est - expected) < 3 * 0.28 / math.sqrt(n)

    def test_pull_bounds(self):
        env = CascadeEnv(path_graph(6), 0.4, budget=3)
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = env.pull((0, 3, 5), rng)
            assert 3 / 6 <= v <= 1.0

    def test_pull_reproducible(self):
        env = CascadeEnv(path_graph(6), 0.4, budget=3)
        a = [env.pull((0, 2), np.random.default_rng(11)) for _ in range(2)]
        assert a[0] == a[1]

    def test_exact_memoized_and_order_independent(self):
        env1 = CascadeEnv(path_graph(4), 0.3, budget=2, exact_sims=200, exact_seed=9)
        env2 = CascadeEnv(path_graph(4), 0.3, budget=2, exact_sims=200, exact_seed=9)
        a = env1.exact((0, 2))
        env2.exact((1,))  # different query order
        b = env2.exact((0, 2))
        assert a == b
        assert env1.exact((0, 2)) == a  # recomputed from the same per-coalition seed

    def test_invalid_seed_node(self):
        env = CascadeEnv(path_graph(3), 0.3, budget=2)
        with pytest.raises(ValueError):
            env.pull((0, 7), np.random.default_rng(0))


class TestLiveEdgePulls:
    """Live-edge pulls against the per-neighbour BFS oracle and against themselves."""

    def test_single_seed_spread_histogram_matches_bfs(self):
        g = load_edge_list(DATA / "toy_8.edges")
        env = CascadeEnv(g, 0.3, budget=1)
        n = 3000
        rng_live, rng_bfs = np.random.default_rng(21), np.random.default_rng(22)
        for seed in range(g.n_nodes):
            live = [round(env.pull((seed,), rng_live) * g.n_nodes) for _ in range(n)]
            bfs = [round(bfs_cascade_pull(g, 0.3, (seed,), rng_bfs) * g.n_nodes) for _ in range(n)]
            p_live = np.bincount(live, minlength=g.n_nodes + 1) / n
            p_bfs = np.bincount(bfs, minlength=g.n_nodes + 1) / n
            se = np.sqrt((p_live * (1 - p_live) + p_bfs * (1 - p_bfs)) / n)
            assert np.all(np.abs(p_live - p_bfs) <= 4 * se), (seed, p_live, p_bfs)

    @pytest.mark.parametrize("S", [(0,), (3, 97, 400)])
    def test_community_mean_spread_matches_bfs(self, S):
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, 0.1, budget=3)
        n = 300
        rng_live, rng_bfs = np.random.default_rng(31), np.random.default_rng(32)
        live = np.array([env.pull(S, rng_live) for _ in range(n)])
        bfs = np.array([bfs_cascade_pull(g, 0.1, S, rng_bfs) for _ in range(n)])
        se = math.sqrt((live.var(ddof=1) + bfs.var(ddof=1)) / n)
        assert abs(live.mean() - bfs.mean()) <= 4 * se

    def test_batch_matches_sequential_pulls(self):
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, 0.1, budget=3)
        S, n = (3, 97, 400), 75
        assert n > envs._CHUNK_DRAWS // g.n_edges  # spans more than one chunk
        rng_seq, rng_batch = np.random.default_rng(41), np.random.default_rng(41)
        sequential = math.fsum(env.pull(S, rng_seq) for _ in range(n)) / n
        batch = cascade_exact(env, S, n, rng_batch)
        assert batch == pytest.approx(sequential, rel=1e-15, abs=0)
        assert rng_seq.bit_generator.state == rng_batch.bit_generator.state


    def test_pull_mean_many_is_rowwise_sequential_pulls(self):
        env = CascadeEnv(load_edge_list(DATA / "toy_8.edges"), 0.3, budget=3)
        sets, n = [(0,), (), (6, 1, 4)], 5
        masks = np.zeros((len(sets), 8), dtype=bool)
        for row, S in zip(masks, sets):
            row[list(S)] = True
        rng_rows, rng_seq = np.random.default_rng(51), np.random.default_rng(51)
        out = env.pull_mean_many(masks, n, rng_rows)
        assert out.tolist() == [np.mean([env.pull(S, rng_seq) for _ in range(n)]) for S in sets]
        assert rng_rows.bit_generator.state == rng_seq.bit_generator.state


class TestLoadEdgeList(object):
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n1 2\n")
        g = load_edge_list(p)
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_dedup_and_self_loops(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 0\n0 1\n0 1\n")
        g = load_edge_list(p)
        assert g.n_nodes == 2
        assert g.n_edges == 1
        assert g.dropped_self_loops == 1
        assert g.dropped_duplicates == 1

    def test_reverse_orientation_is_duplicate(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("3 7\n7 3\n")
        g = load_edge_list(p)
        assert g.n_edges == 1

    def test_comments_and_dense_reindex(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# header\n10 20\n20 30\n")
        g = load_edge_list(p)
        assert g.n_nodes == 3
        # first-seen order: 10 -> 0, 20 -> 1, 30 -> 2
        assert g.edges == ((0, 1), (1, 2))

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1\n2 x\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_edge_list(p)

    def test_wrong_token_count(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="two tokens"):
            load_edge_list(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no edges"):
            load_edge_list(p)

    def test_community_stand_in_shape(self):
        g = load_edge_list("data/community_534.edges")
        assert g.n_nodes == 534
        assert g.n_edges == 8158


class TestGameOracle:
    def test_noiseless_wraps_game(self):
        game = additive_game([0.2, 0.3, 0.5], 2)
        oracle = GameOracle(game)
        rng = np.random.default_rng(0)
        assert oracle.pull((0, 2), rng) == game.value((0, 2))

    def test_budget_narrowing_with_slack(self):
        game = additive_game([0.2, 0.3, 0.5], 3)
        oracle = GameOracle(game, budget=2, allow_extra_query=True)
        rng = np.random.default_rng(0)
        assert oracle.query_limit == 3
        oracle.pull((0, 1, 2), rng)

    def test_slack_beyond_game_budget_rejected(self):
        game = additive_game([0.2, 0.3, 0.5], 2)
        with pytest.raises(ValueError):
            GameOracle(game, allow_extra_query=True)

    def test_restricted_game_backdoor(self):
        env = make_synthetic(M=4, K=2)
        g = env.restricted_game()
        assert g.value((0, 1)) == env.exact((0, 1))
