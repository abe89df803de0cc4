"""Synthetic submodular and cascade environments, plus the edge-list loader."""

import itertools
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksvfair import (
    CascadeEnv,
    CoalitionSizeError,
    Graph,
    SyntheticEnv,
    additive_game,
    load_edge_list,
)
from ksvfair import envs
from ksvfair.cli import load_config
from reference import (
    GameOracle,
    _gaussian_moment,
    bfs_cascade_pull,
    cascade_exact,
    frontier_spread_counts,
    gap_live_row,
    live_edge_spread,
    scalar_gaussian_pull,
)
from stats import binned_check, mean_check, proportions_check

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


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

    def test_caller_arrays_copied(self):
        means, stds = np.linspace(0.2, 0.95, 4), np.full(4, 0.2)
        env = SyntheticEnv(means, stds, budget=2)
        before = env.exact((0, 1)), env._moment((0, 1))
        means[0], stds[0] = 0.9, 0.0
        assert (env.exact((0, 1)), env._moment((0, 1))) == before
        mus, sigmas = env._moments(np.array([0, 1]), np.array([2]))
        assert (mus[0], sigmas[0]) == before[1]

    @pytest.mark.parametrize("name", ["means", "noise_stds", "_noise_sq"])
    def test_arrays_read_only(self, name):
        env = make_synthetic(noise=np.full(4, 0.2))
        with pytest.raises(ValueError, match="read-only"):
            getattr(env, name)[0] = 0.5

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

    @pytest.mark.parametrize("curvature", [0.0, 1.0])
    def test_empty_rows_are_positive_zero(self, curvature):
        env = make_synthetic(curvature=curvature, noise=np.full(4, 0.3))
        masks = np.array([[False] * 4, [True, False, True, False], [False] * 4])
        out = env.pull_mean_many(masks, 5, np.random.default_rng(0))
        assert out[[0, 2]].tobytes() == np.zeros(2).tobytes()
        assert np.float64(env.pull_mean((), 5, np.random.default_rng(0))).tobytes() == bytes(8)

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
        # one level shared by every arm is every coalition's level, up to an ulp
        env = SyntheticEnv(np.linspace(0.1, 0.9, 7), np.full(7, 0.2), budget=7)
        sets = [S for s in range(1, 8) for S in itertools.combinations(range(7), s)]
        masks = np.zeros((len(sets), 7), dtype=bool)
        for row, S in zip(masks, sets):
            row[list(S)] = True
        flat, lengths = np.flatnonzero(masks) % 7, masks.sum(axis=1)
        level = np.full(len(sets), 0.2)
        np.testing.assert_array_max_ulp(env._moments(flat, lengths)[1], level, maxulp=1)
        np.testing.assert_array_max_ulp(np.array([env._moment(S)[1] for S in sets]), level, maxulp=1)

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
        for level in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise levels"):
                SyntheticEnv([0.5, 0.5], [0.1, level], budget=2)


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
        stds = {"per-arm": np.linspace(0.1, 0.6, 8), "shared": np.full(8, 0.3), "zero": np.zeros(8)}[noise]
        env = make_synthetic(M=8, K=4, curvature=curvature, noise=stds, allow_extra_query=True)
        self.assert_same_stream(env)

    @pytest.mark.parametrize("noise_std", [0.0, 0.35])
    def test_game_oracle_every_coalition(self, noise_std):
        rng = np.random.default_rng(3)
        game = additive_game(rng.random(6) / 3, 4)
        self.assert_same_stream(GameOracle(game, noise_std, budget=3, allow_extra_query=True))


class TestOneRowPull:
    """``pull_mean(S, n, rng)`` runs the query primitive on a one-row batch:
    bit for bit ``pull_mean_many`` of S's one-row mask, on the same stream."""

    ORACLES = {
        "synthetic-per-arm": lambda: SyntheticEnv(
            np.linspace(0.05, 0.9, 16), np.linspace(0.1, 0.6, 16), budget=12, curvature=0.25
        ),
        "synthetic-shared": lambda: SyntheticEnv(
            np.linspace(0.05, 0.9, 16), np.full(16, 0.3), budget=12, curvature=0.25
        ),
        # arms 0-5 are noiseless, so a coalition of them alone draws nothing
        "synthetic-some-zero": lambda: SyntheticEnv(
            np.linspace(0.05, 0.9, 16), np.r_[np.zeros(6), np.linspace(0.1, 0.6, 10)], budget=12
        ),
        "game": lambda: GameOracle(additive_game(np.linspace(0.02, 0.2, 10), 10), 0.35, budget=9),
        "cascade": lambda: CascadeEnv(load_edge_list(DATA / "toy_8.edges"), 0.3, budget=6),
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_pull_mean_is_the_one_row_pull_mean_many(self, name):
        oracle = self.ORACLES[name]()
        M, limit = oracle.n_arms, oracle.query_limit
        pick = np.random.default_rng(29)
        # the empty coalition, arms 0-2 (noiseless in "synthetic-some-zero"),
        # a largest one (12 synthetic arms: past reduceat's 8-term block),
        # then random ones
        sets = [(), tuple(range(min(3, limit))), tuple(range(M - limit, M))]
        sets += [
            tuple(pick.choice(M, size=int(pick.integers(0, limit + 1)), replace=False).tolist())
            for _ in range(200)
        ]
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        for S in sets:
            n = int(pick.integers(1, 6))
            mask = np.zeros((1, M), dtype=bool)
            mask[0, list(S)] = True
            got = oracle.pull_mean(S, n, rng_a)  # S in draw order, not sorted
            want = oracle.pull_mean_many(mask, n, rng_b)
            assert type(got) is float
            assert np.float64(got).tobytes() == want[0].tobytes(), S
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("curvature", [0.0, 1.0])
    def test_synthetic_row_at_sweep_pull_counts(self, curvature):
        # SyntheticEnv.pull_mean computes its row in scalars: pin it at etcg's
        # 20 pulls and beyond, where numpy sums the draws in 8-term blocks, and
        # at the linear transform, on arms 0-5 noiseless and the rest noisy
        env = SyntheticEnv(
            np.linspace(0.05, 0.9, 16), np.r_[np.zeros(6), np.linspace(0.1, 0.6, 10)],
            budget=12, curvature=curvature,
        )
        pick = np.random.default_rng(31)
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(300):
            S = pick.choice(16, size=int(pick.integers(0, 13)), replace=False).tolist()
            n = int(pick.choice([1, 7, 8, 9, 20, 64]))
            mask = np.zeros((1, 16), dtype=bool)
            mask[0, S] = True
            got, want = env.pull_mean(S, n, rng_a), env.pull_mean_many(mask, n, rng_b)
            assert np.float64(got).tobytes() == want[0].tobytes(), (S, n)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestBatchedGaussianPrimitive:
    """``pull_mean_many`` against the clipped-normal formula on (mu, sigma) from
    ``_moments``: noiseless rows exact, noisy rows the mean of clipped
    ``mu + sigma * z`` with z one standard-normal block, byte for byte."""

    @pytest.mark.parametrize("name", ["synthetic-per-arm", "synthetic-shared", "synthetic-some-zero"])
    def test_mixed_batch(self, name):
        oracle = TestOneRowPull.ORACLES[name]()
        M, n = oracle.n_arms, 7
        pick = np.random.default_rng(41)
        # empty rows, rows of arms 0-5 (noiseless in "synthetic-some-zero"),
        # then noisy rows of 1-12 arms, shuffled together
        sets = [()] * 3 + [tuple(range(s)) for s in range(1, 7)]
        sets += [
            tuple(pick.choice(M, size=int(pick.integers(1, 13)), replace=False).tolist())
            for _ in range(40)
        ]
        masks = np.zeros((len(sets), M), dtype=bool)
        for row, S in zip(masks, sets):
            row[list(S)] = True
        masks = masks[pick.permutation(len(sets))]
        flat, lengths = np.flatnonzero(masks) % M, masks.sum(axis=1)
        mu, sigma = oracle._moments(flat, lengths)
        assert (sigma == 0).any() and (sigma > 0).any()
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
        got = oracle.pull_mean_many(masks, n, rng_a)
        z = rng_b.standard_normal((len(sets), n))
        noisy = np.clip(mu[:, None] + sigma[:, None] * z, 0, 1).mean(axis=1)
        want = np.where(sigma == 0, np.clip(mu, 0, 1), noisy)
        assert got.tobytes() == want.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestGaussianPullLaw:
    """The law of ``SyntheticEnv``'s batched pull means, by ``mean_check`` of
    ``tests/stats.py`` at level ALPHA: N_ROWS rows of N_PULLS pulls of one
    coalition against N_ROWS means of N_PULLS clipped normals drawn directly
    with ``rng.normal``.  The check passes for the clipped draw and rejects
    a named wrong variant at fixed seeds: the same normals without their
    clip.  The coalition's mean, 0.05, sits a sixth of its noise level 0.3
    above 0, so the clip moves a pull's mean to about 0.15."""

    ALPHA = 1e-3
    N_ROWS, N_PULLS = 2_000, 10

    @pytest.mark.parametrize("variant", ["clipped", "no clip"])
    def test_batched_means_match_clipped_normals(self, variant):
        env = SyntheticEnv([0.05, 0.5, 0.45], [0.3, 0.3, 0.3], budget=2, curvature=0.0)
        masks = np.zeros((self.N_ROWS, 3), dtype=bool)
        masks[:, 0] = True
        batched = env.pull_mean_many(masks, self.N_PULLS, np.random.default_rng(61))
        direct = np.random.default_rng(62).normal(env.exact((0,)), 0.3, (self.N_ROWS, self.N_PULLS))
        if variant == "clipped":
            direct = direct.clip(0.0, 1.0)
        check = mean_check(batched, direct.mean(axis=1), self.ALPHA)
        assert check.passes == (variant == "clipped"), check


class TestScalarSumBits:
    """The Python-float ``_moment`` against numpy's sums in ``tests/reference.py``."""

    @pytest.mark.parametrize("curvature", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("noise", ["per-arm", "shared", "partly-zero"])
    def test_shipped_game_every_coalition(self, curvature, noise):
        # all 60,459 nonempty coalitions of up to K + 1 = 6 of the 20 arms;
        # the pull draws one standard normal where the reference draws
        # normal(0, sigma), and neither draws for a noiseless coalition
        cfg = load_config(ROOT / "configs" / "synthetic_ksvfair.ini")
        stds = {
            "per-arm": cfg.noise_stds,
            "shared": np.full(cfg.M, 0.3),
            "partly-zero": np.where(np.arange(cfg.M) < 8, 0.0, cfg.noise_stds),
        }[noise]
        env = SyntheticEnv(cfg.means, stds, budget=cfg.K, curvature=curvature, allow_extra_query=True)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        n_sets = n_noiseless = 0
        for size in range(1, env.query_limit + 1):
            for S in itertools.combinations(range(env.n_arms), size):
                mu, sigma = _gaussian_moment(env, S)
                assert env._moment(S) == (mu, sigma), S
                assert env.exact(S) == mu, S
                assert env.pull(S, rng_a) == scalar_gaussian_pull(env, S, rng_b), S
                n_sets += 1
                n_noiseless += sigma == 0.0
        assert n_sets == 60_459
        # the coalitions of the first 8 arms alone: sum of C(8, k) for k = 1..6
        assert n_noiseless == (246 if noise == "partly-zero" else 0)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_large_coalitions_add_left_to_right(self):
        # numpy's sum adds eight or more entries in blocks, so these may differ by an ulp or so
        rng = np.random.default_rng(11)
        M = 30
        means = rng.uniform(0.05, 1.0, M)
        env = SyntheticEnv(means, rng.uniform(0.0, 0.5, M), budget=12, curvature=0.0)
        differ = 0
        for _ in range(2000):
            S = tuple(sorted(rng.choice(M, size=int(rng.integers(8, 13)), replace=False).tolist()))
            x = q = 0.0
            for i in S:
                x += float(means[i])
                q += float(env._noise_sq[i])
            assert env._moment(S) == (x / env._denom, math.sqrt(q / len(S))), S
            np.testing.assert_array_max_ulp(x, means[list(S)].sum(), maxulp=4)
            differ += x != means[list(S)].sum()
        assert differ > 0


class TestPullCount:
    """Every oracle refuses a mean of fewer than one pull, before drawing."""

    ORACLES = {
        "synthetic-noisy": lambda: make_synthetic(noise=np.full(4, 0.2)),
        "synthetic-noiseless": lambda: make_synthetic(),
        "game": lambda: GameOracle(additive_game([0.1, 0.2, 0.3, 0.4], 2), 0.3, budget=2),
        "cascade": lambda: CascadeEnv(load_edge_list(DATA / "toy_8.edges"), 0.3, budget=2),
    }

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_fewer_than_one_pull_rejected(self, name, n):
        oracle = self.ORACLES[name]()
        masks = np.zeros((2, oracle.n_arms), dtype=bool)
        masks[0, :2] = True
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="n >= 1"):
            oracle.pull_mean_many(masks, n, rng)
        with pytest.raises(ValueError, match="n >= 1"):
            oracle.pull_mean((0, 1), n, rng)
        assert rng.bit_generator.state == before


class TestOracleContract:
    """Every oracle on the 8-node toy graph's arm count: 1 <= K <= M at
    construction, and every query checked against the query limit, the arm
    range and duplicates before any draw.  A membership matrix cannot name a
    duplicate, and its out-of-range arm is a column past M."""

    M = 8
    ORACLES = {
        "synthetic": lambda K: SyntheticEnv(np.linspace(0.2, 0.95, 8), np.full(8, 0.2), budget=K),
        "game": lambda K: GameOracle(additive_game(np.linspace(0.05, 0.4, 8), 8), 0.2, budget=K),
        "cascade": lambda K: CascadeEnv(load_edge_list(DATA / "toy_8.edges"), 0.3, budget=K),
    }

    @staticmethod
    def queries(oracle, rng):
        """``exact``, ``pull`` and ``pull_mean`` of one coalition."""
        return [oracle.exact, lambda S: oracle.pull(S, rng), lambda S: oracle.pull_mean(S, 3, rng)]

    @pytest.mark.parametrize("K", [0, -2, 9])
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_budget_outside_one_to_m_rejected(self, name, K):
        with pytest.raises(ValueError, match=r"need 1 <= K <= M"):
            self.ORACLES[name](K)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_over_limit_coalition_rejected(self, name):
        oracle = self.ORACLES[name](2)
        assert (oracle.n_arms, oracle.budget, oracle.query_limit) == (self.M, 2, 2)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for query in self.queries(oracle, rng):
            with pytest.raises(CoalitionSizeError, match="exceeds query limit 2"):
                query((0, 1, 2))
        masks = np.zeros((2, self.M), dtype=bool)
        masks[0, :2] = masks[1, :3] = True
        with pytest.raises(CoalitionSizeError, match="exceeds query limit 2"):
            oracle.pull_mean_many(masks, 3, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("S", [(0, 8), (-1, 2), (1, 1)], ids=["past-m", "negative", "duplicate"])
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_invalid_member_rejected(self, name, S):
        oracle = self.ORACLES[name](2)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for query in self.queries(oracle, rng):
            with pytest.raises(ValueError, match="out of range|duplicate"):
                query(S)
        assert rng.bit_generator.state == before

    # True and False would read as arms 1 and 0 through operator.index
    @pytest.mark.parametrize(
        "member", [1.5, np.float64(2.0), True, False], ids=["float", "np.float64", "True", "False"]
    )
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_non_integral_member_rejected(self, name, member):
        # read with operator.index: a truncating read would query (0, 1)
        oracle = self.ORACLES[name](2)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for query in self.queries(oracle, rng):
            # an iterator is read once, and its members are checked as a tuple's are
            for members in ((0, member), iter((0, member))):
                with pytest.raises(TypeError):
                    query(members)
        assert rng.bit_generator.state == before
        # a numpy integer is the int it holds
        assert oracle.exact((np.int64(0), np.intp(2))) == oracle.exact((0, 2))

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_over_limit_row_anywhere_in_batch_rejected(self, name, position):
        oracle = self.ORACLES[name](3)
        rows = [(0, 1), (), (2,), (5, 6, 7), (4,)]
        rows[position] = (1, 3, 4, 6)
        masks = np.zeros((len(rows), self.M), dtype=bool)
        for mask, S in zip(masks, rows):
            mask[list(S)] = True
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(CoalitionSizeError, match="size 4 exceeds query limit 3"):
            oracle.pull_mean_many(masks, 3, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("shape", [(8,), (2, 7), (1, 2, 8)])
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_wrong_shape_membership_rejected(self, name, shape):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"expected an \(n_sets, 8\) membership matrix"):
            self.ORACLES[name](2).pull_mean_many(np.zeros(shape, dtype=bool), 3, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_empty_batch(self, name):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = self.ORACLES[name](2).pull_mean_many(np.zeros((0, self.M), dtype=bool), 3, rng)
        assert out.shape == (0,) and out.dtype == float
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n_sims", [0, -1])
    def test_cascade_world_count_below_one_rejected(self, n_sims):
        # a pull labels one world; exact_sims is the one world count a caller sets
        with pytest.raises(ValueError, match="exact_sims must be >= 1"):
            CascadeEnv(load_edge_list(DATA / "toy_8.edges"), 0.3, budget=2, exact_sims=n_sims)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_membership_column_past_m_rejected(self, name):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"\(n_sets, 8\)"):
            self.ORACLES[name](2).pull_mean_many(np.ones((1, self.M + 1), dtype=bool), 3, rng)
        assert rng.bit_generator.state == before


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

    def test_exact_order_independent(self):
        env1 = CascadeEnv(path_graph(4), 0.3, budget=2, exact_sims=200, exact_seed=9)
        env2 = CascadeEnv(path_graph(4), 0.3, budget=2, exact_sims=200, exact_seed=9)
        a = env1.exact((0, 2))
        env2.exact((1,))  # different query order
        b = env2.exact((0, 2))
        assert a == b
        assert env1.exact((0, 2)) == a  # recomputed from the same per-coalition seed

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_exact_stream_is_the_tuple_seeded_one(self, seed):
        env = CascadeEnv(path_graph(40), 0.3, budget=6, exact_sims=3, exact_seed=seed)
        rng = np.random.default_rng(seed % 1000)
        coalitions = [(), (0,), (39,)] + [
            tuple(sorted(rng.choice(40, size=k, replace=False).tolist())) for k in range(2, 7)
        ]
        for S in coalitions:
            state = np.random.default_rng((seed, *S)).bit_generator.state
            assert env._exact_rng(S).bit_generator.state == state
            if S:
                tuple_seeded = cascade_exact(env, S, 3, np.random.default_rng((seed, *S)))
                assert env.exact(S) == tuple_seeded

    def test_negative_exact_seed_rejected(self):
        with pytest.raises(ValueError, match="exact_seed"):
            CascadeEnv(path_graph(3), 0.3, budget=1, exact_seed=-1)

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 3])
    def test_exact_seed_past_one_word_rejected(self, seed):
        # the seed is one uint32 word of the per-coalition entropy
        with pytest.raises(ValueError, match=rf"exact_seed must lie in \[0, 2\*\*32\), got {seed}"):
            CascadeEnv(path_graph(3), 0.3, budget=1, exact_seed=seed)

    def test_invalid_seed_node(self):
        env = CascadeEnv(path_graph(3), 0.3, budget=2)
        with pytest.raises(ValueError):
            env.pull((0, 7), np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["_lo", "_hi"])
    def test_endpoint_rows_read_only(self, name):
        env = CascadeEnv(path_graph(4), 0.3, budget=2)
        row = getattr(env, name)
        assert row.ndim == 1 and row.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 2

    def test_community_values_pinned(self):
        # literal counts, so that a change to the kernel, the live-edge draw
        # or the exact seeding cannot pass unnoticed
        env = CascadeEnv(load_edge_list(DATA / "community_534.edges"), 0.1, budget=20, exact_sims=100)
        assert env.exact((3, 97, 400)) == 47552 / (534 * 100)  # nine chunks: eight of 12 worlds, one of 4
        assert env.exact(tuple(range(0, 534, 27))) == 47893 / (534 * 100)
        rng = np.random.default_rng(2026)
        pulls = [env.pull((3, 97, 400), rng) for _ in range(5)]
        assert pulls == [c / 534 for c in (457, 482, 479, 464, 465)]

    def test_community_one_world_values_pinned(self, monkeypatch):
        env = CascadeEnv(load_edge_list(DATA / "community_534.edges"), 0.1, budget=20, exact_sims=1)
        # exact at one world takes the one-world path, never the chunk kernel
        monkeypatch.setattr(env, "_spread_counts", lambda *args: pytest.fail("chunk kernel called"))
        assert env.exact((3, 97, 400)) == 489 / 534
        assert env.exact(tuple(range(0, 534, 27))) == 478 / 534

    def test_one_world_exact_is_the_chunk_count(self):
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, 0.1, budget=20, exact_sims=1)
        rng = np.random.default_rng(81)
        coalitions = [(0,), (533,), (3, 97, 400), tuple(range(0, 534, 27))] + [
            tuple(sorted(rng.choice(534, size=k, replace=False).tolist())) for k in range(1, 21)
        ]
        for S in coalitions:
            rng_world, rng_chunk = env._exact_rng(S), env._exact_rng(S)
            count = env._spread_counts(S, *env._chunk_edges(1, rng_chunk), 1)[0]
            assert env.exact(S) == cascade_exact(env, S, 1, rng_world) == count / 534
            assert rng_world.bit_generator.state == rng_chunk.bit_generator.state

    @pytest.mark.parametrize("edges", [((0, 1), (1, 4)), ((0, 1), (1, 3)), ((-1, 1),)])
    def test_edge_endpoint_outside_graph_rejected(self, edges):
        # in a batch, world 0's node 4 would be world 1's node 1
        with pytest.raises(ValueError, match="edge endpoints"):
            CascadeEnv(Graph(n_nodes=3, edges=edges), 0.3, budget=1)


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
        assert n > envs._CHUNK_DRAWS // max(env._gap_block, env.n_arms)  # spans more than one chunk
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


class ZeroUniforms:
    """A generator stand-in whose every uniform is 0."""

    def random(self, size):
        return np.zeros(size)


def live_ids(env, n_worlds, rng, chunk=500):
    """The live edges of n_worlds successive worlds as a pair of rows: each
    live edge's world and edge id."""
    worlds, edges = [], []
    for start in range(0, n_worlds, chunk):
        world, edge = env._chunk_edges(min(chunk, n_worlds - start), rng)
        worlds.append(world + start)
        edges.append(edge)
    return np.concatenate(worlds), np.concatenate(edges)


class TestLiveEdgeDraw:
    """The geometric-gap draw of a world's live edges: edge for edge against
    the gap walk of ``reference.gap_live_row``, on its edge cases against a
    closed form, and chunk for chunk against successive worlds."""

    @pytest.mark.parametrize(
        "name, p", [("community_534", 0.1), ("community_534", 0.3), ("toy_8", 0.3), ("toy_8", 0.9)]
    )
    def test_world_edges_are_the_gap_walk(self, name, p):
        g = load_edge_list(DATA / f"{name}.edges")  # toy_8 has an odd edge count, 13
        env = CascadeEnv(g, p, budget=3)
        S = (0, 5, 7)
        for seed in range(12):
            rng, rng_walk = np.random.default_rng(seed), np.random.default_rng(seed)
            row = gap_live_row(g.n_edges, p, env._gap_block, rng_walk)
            assert env._world_edges(rng).tolist() == np.flatnonzero(row).tolist()
            assert rng.bit_generator.state == rng_walk.bit_generator.state
            rng_pull = np.random.default_rng(seed)
            assert env.pull(S, rng_pull) == live_edge_spread(g, row, S) / g.n_nodes
            assert rng_pull.bit_generator.state == rng.bit_generator.state

    def test_block_size(self):
        g = load_edge_list(DATA / "community_534.edges")
        blocks = {p: CascadeEnv(g, p, budget=1)._gap_block for p in (0.0, 1e-9, 0.1, 0.3, 1.0)}
        assert blocks == {0.0: 0, 1e-9: 17, 0.1: 995, 0.3: 2712, 1.0: g.n_edges + 1}
        assert CascadeEnv(path_graph(3), 0.5, budget=1)._gap_block == 3  # E + 1

    @pytest.mark.parametrize("graph", [path_graph(3), Graph(4, ())], ids=["p0", "no-edges"])
    def test_nothing_to_draw(self, graph):
        # p = 0 (no division by log1p(0)) or no edges at all: no draw, no live edge
        env = CascadeEnv(graph, 0.0 if graph.n_edges else 0.5, budget=2)
        assert env._gap_block == 0
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        dead = [False] * graph.n_edges
        for S in [(0,), (0, 2)]:
            assert env.pull(S, rng) == live_edge_spread(graph, dead, S) / graph.n_nodes
            assert cascade_exact(env, S, 50, rng) == len(S) / graph.n_nodes
        assert [ids.size for ids in env._chunk_edges(7, rng)] == [0, 0]
        none = np.zeros(0, dtype=np.intp)
        assert env._spread_counts((1,), none, none, 3).tolist() == [1, 1, 1]
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("name", ["toy_8", "community_534"])
    def test_certain_activation_makes_every_edge_live(self, name):
        g = load_edge_list(DATA / f"{name}.edges")
        env = CascadeEnv(g, 1.0, budget=3)
        rng = np.random.default_rng(1)
        assert env._world_edges(rng).tolist() == list(range(g.n_edges))
        world, edge = env._chunk_edges(3, rng)
        assert world.tolist() == [w for w in range(3) for _ in range(g.n_edges)]
        assert edge.tolist() == list(range(g.n_edges)) * 3
        S = (0, 2)
        flooded = live_edge_spread(g, [True] * g.n_edges, S) / g.n_nodes
        assert env.pull(S, rng) == flooded
        assert cascade_exact(env, S, 40, rng) == pytest.approx(flooded, rel=1e-15)

    @pytest.mark.parametrize("p", [1e-9, 1e-300])
    def test_tiny_probability_gaps_clipped(self, p):
        # the largest uniform below 1 makes the longest gap: 4e10 edges at
        # p = 1e-9, 4e301 at p = 1e-300; each is clipped at E + 1
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, p, budget=3)
        E, m = g.n_edges, env._gap_block
        ids = env._gap_ids(np.full(m, np.nextafter(1.0, 0.0)))
        assert ids.dtype == np.intp
        assert ids.tolist() == [(j + 1) * (E + 1) - 1 for j in range(m)]
        rng = np.random.default_rng(3)
        assert [env._world_edges(rng).size for _ in range(50)] == [0] * 50
        assert env.pull((0, 9), rng) == 2 / g.n_nodes

    @pytest.mark.parametrize("p", [0.0044, 0.0046, 0.02, 0.1, 0.4, 1.0])
    def test_gap_clip_skipped_only_where_it_cannot_bind(self, p):
        # the largest uniform below 1 makes the longest gap; where the clip
        # is skipped it stays below E, so the ids are the clipped ones
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, p, budget=3)
        E, m = g.n_edges, env._gap_block
        assert env._clip_gaps == (p == 0.0044)
        u = np.full(m, np.nextafter(1.0, 0.0))
        clipped = np.minimum(np.log1p(-u) / env._log_q, E).astype(np.intp).cumsum() + np.arange(m)
        assert env._gap_ids(u).tolist() == clipped.tolist()

    @pytest.mark.parametrize("name", ["toy_8", "community_534"])
    def test_zero_uniform_is_a_gap_of_one(self, name):
        # log1p(-0) is 0, so every gap is 1 and every edge live
        g = load_edge_list(DATA / f"{name}.edges")
        env = CascadeEnv(g, 0.1, budget=3)
        ids = env._gap_ids(np.zeros(env._gap_block))
        assert ids.tolist() == list(range(env._gap_block))
        assert env._world_edges(ZeroUniforms()).tolist() == list(range(g.n_edges))
        S = (1,)
        assert env.pull(S, ZeroUniforms()) == live_edge_spread(g, [True] * g.n_edges, S) / g.n_nodes

    def test_chunk_is_successive_worlds(self):
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, 0.1, budget=3)
        rng_chunk, rng_worlds = np.random.default_rng(5), np.random.default_rng(5)
        world, edge = env._chunk_edges(32, rng_chunk)
        worlds = [env._world_edges(rng_worlds) for _ in range(32)]
        assert world.tolist() == [w for w, ids in enumerate(worlds) for _ in ids]
        assert edge.tolist() == np.concatenate(worlds).tolist()
        assert rng_chunk.bit_generator.state == rng_worlds.bit_generator.state

    @pytest.mark.parametrize("slack", [-900, -163])
    def test_shortfall_keeps_sequential_pulls(self, monkeypatch, slack):
        # a smaller block slack makes blocks end before the last edge: at
        # -900 every world's first block (79 gaps) does, at -163 (816 gaps,
        # about pE) some worlds' do and some do not
        monkeypatch.setattr(envs, "_GAP_SLACK", slack)
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, 0.1, budget=3)
        S, n = (3, 97, 400), 75
        first = env._gap_ids(np.random.default_rng(41).random((n, env._gap_block)))
        short = int((first[:, -1] < g.n_edges - 1).sum())
        assert short == n if slack == -900 else 0 < short < n
        rng_seq, rng_batch = np.random.default_rng(41), np.random.default_rng(41)
        counts = [round(env.pull(S, rng_seq) * g.n_nodes) for _ in range(n)]
        assert cascade_exact(env, S, n, rng_batch) == sum(counts) / (g.n_nodes * n)
        assert rng_seq.bit_generator.state == rng_batch.bit_generator.state


def live_edge_variant(graph, variant, budget=20):
    """The cascade at p = 0.10, or one of its negative controls: the draw at
    p = 0.11, or gaps without their +1 (the ramp that adds them zeroed)."""
    env = CascadeEnv(graph, 0.11 if variant == "p=0.11" else 0.10, budget=budget)
    if variant == "no +1":
        env._ramp = np.zeros_like(env._ramp)
    return env


class TestLiveEdgeLaw:
    """The law of the live-edge draw, by the two-sample checks of
    ``tests/stats.py`` at level ALPHA.  Each check passes for the cascade at
    p = 0.10 and rejects named wrong variants at fixed seeds: the draw at
    p = 0.11, and gaps without their +1.  Gaps without their +1 repeat ids
    but leave the set of live edges with the right law (a geometric gap
    conditioned to be at least 1 is again geometric), so only the checks
    that count repeated ids, per edge and per world, can reject them."""

    ALPHA = 1e-3
    N_TOY = 20_000

    @pytest.fixture(scope="class")
    def toy(self):
        """toy_8, and N_TOY BFS spreads per seed node at p = 0.10, coded
        seed * 9 + spread, one bin per (seed node, spread) pair."""
        g = load_edge_list(DATA / "toy_8.edges")
        rng = np.random.default_rng(91)
        bfs = [
            node * 9 + round(bfs_cascade_pull(g, 0.1, (node,), rng) * 8)
            for node in range(8)
            for _ in range(self.N_TOY)
        ]
        return g, np.array(bfs)

    def toy_pulls(self, env, rng):
        return np.array(
            [node * 9 + round(env.pull((node,), rng) * 8) for node in range(8) for _ in range(self.N_TOY)]
        )

    @pytest.mark.parametrize("variant", ["p=0.10", "p=0.11"])
    def test_toy_spreads_per_seed_node_match_bfs(self, toy, variant):
        g, bfs = toy
        pulls = self.toy_pulls(live_edge_variant(g, variant, 1), np.random.default_rng(92))
        check = binned_check(pulls, bfs, self.ALPHA)
        assert check.passes == (variant == "p=0.10"), check

    @pytest.mark.parametrize("variant", ["p=0.10", "p=0.11"])
    def test_community_mean_spread_matches_bfs(self, variant):
        g = load_edge_list(DATA / "community_534.edges")
        S, n = (3, 97, 400), 300
        rng_bfs, rng = np.random.default_rng(93), np.random.default_rng(94)
        bfs = [bfs_cascade_pull(g, 0.1, S, rng_bfs) for _ in range(n)]
        env = live_edge_variant(g, variant, 3)
        check = mean_check([env.pull(S, rng) for _ in range(n)], bfs, self.ALPHA)
        assert check.passes == (variant == "p=0.10"), check

    @pytest.mark.parametrize("variant", ["p=0.10", "p=0.11", "no +1"])
    def test_each_edge_live_at_rate_p(self, variant):
        # each edge's live count over N worlds against a Binomial(N, 0.1)
        # draw per edge, one bin per edge
        g = load_edge_list(DATA / "community_534.edges")
        n_worlds = 20_000
        _, edge = live_ids(live_edge_variant(g, variant), n_worlds, np.random.default_rng(95))
        counts = np.bincount(edge, minlength=g.n_edges)
        expected = np.random.default_rng(96).binomial(n_worlds, 0.1, g.n_edges)
        check = proportions_check(counts, n_worlds, expected, n_worlds, self.ALPHA)
        assert check.passes == (variant == "p=0.10"), check

    @pytest.mark.parametrize("variant", ["p=0.10", "p=0.11", "no +1"])
    def test_live_count_per_world_is_binomial(self, variant):
        g = load_edge_list(DATA / "community_534.edges")
        n_worlds = 20_000
        world, _ = live_ids(live_edge_variant(g, variant), n_worlds, np.random.default_rng(97))
        counts = np.bincount(world, minlength=n_worlds)
        expected = np.random.default_rng(98).binomial(g.n_edges, 0.1, n_worlds)
        check = binned_check(counts, expected, self.ALPHA, bins=np.arange(0, g.n_edges + 9, 8))
        assert check.passes == (variant == "p=0.10"), check


@st.composite
def small_live_worlds(draw):
    """A small graph, a few worlds of live edges over it, and a seed set.

    Besides paths, stars and path components, a graph may be random edges in
    either orientation (often leaving isolated nodes), a cycle (every degree
    2) or a matching (every degree 1, one node isolated when n is odd)."""
    shape = draw(st.sampled_from(["path", "reversed path", "star", "components", "random", "cycle", "matching"]))
    n = draw(st.integers(1, 12))
    if shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "reversed path":
        edges = [(i + 1, i) for i in reversed(range(n - 1))]
    elif shape == "star":
        centre = draw(st.integers(0, n - 1))
        edges = [(centre, i) for i in range(n) if i != centre]
    elif shape == "random":
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)) if pairs else []
        edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in chosen]
    elif shape == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)] if n >= 3 else []
    elif shape == "matching":
        edges = [(i, i + 1) for i in range(0, n - 1, 2)]
    else:
        # consecutive blocks, each a path numbered in random order
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        edges = []
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            block = draw(st.permutations(range(lo, hi)))
            edges += list(zip(block[:-1], block[1:]))
    graph = Graph(n_nodes=n, edges=tuple(edges))
    n_worlds = draw(st.integers(1, 4))
    fill = draw(st.sampled_from(["random", "none", "all"]))
    if fill == "random":
        cells = st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))
        live = np.array(draw(st.lists(cells, min_size=n_worlds, max_size=n_worlds)), dtype=bool)
    else:
        live = np.full((n_worlds, len(edges)), fill == "all")
    S = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))))
    return graph, live, S


class TestSpreadKernel:
    """The component-labelling kernel, on a chunk of worlds and one world at
    a time, against the frontier sweep it replaced and against a
    node-by-node walk of each world's live edges."""

    @staticmethod
    def assert_counts_equal_references(env, S, live):
        counts = env._spread_counts(S, *np.nonzero(live), len(live))
        assert counts.dtype.kind == "i"
        frontier = frontier_spread_counts(env, S, live).tolist()
        walked = [live_edge_spread(env.graph, row, S) for row in live]
        assert counts.tolist() == frontier
        assert counts.tolist() == walked
        world_counts = [env._world_count(S, np.flatnonzero(row)) for row in live]
        assert world_counts == frontier
        assert world_counts == walked

    @pytest.mark.parametrize("chunk", [1, 32, 75])
    def test_community_worlds_in_chunks(self, chunk):
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, 0.1, budget=20)
        live = np.random.default_rng(61).random((200, g.n_edges)) < 0.1
        coalitions = [(0,), (3, 97, 400), tuple(range(0, 534, 27))]
        for S in coalitions:
            for start in range(0, len(live), chunk):
                self.assert_counts_equal_references(env, S, live[start : start + chunk])

    @settings(max_examples=300, deadline=None)
    @given(small_live_worlds())
    # a seed whose only edge is dead, beside a live path it is not on
    @example((Graph(4, ((0, 1), (1, 2), (3, 2))), np.array([[True, True, False]]), (3,)))
    # a star's leaf as the seed: its one edge dead in world 0, live in world 1
    @example((Graph(4, ((1, 0), (1, 2), (1, 3))), np.array([[False] * 3, [True, False, False]]), (0,)))
    def test_small_graphs(self, case):
        graph, live, S = case
        self.assert_counts_equal_references(CascadeEnv(graph, 0.5, budget=1), S, live)

    @pytest.mark.parametrize("numbering", ["forward", "backward", "random"])
    def test_long_path_labels_are_component_minima(self, numbering):
        # a pass count growing with the path length would take 10^5 passes here
        n = 100_000
        order = {
            "forward": np.arange(n),
            "backward": np.arange(n)[::-1],
            "random": np.random.default_rng(71).permutation(n),
        }[numbering]
        # the path twice, as two worlds of one batch: nodes v and n + v
        u = np.concatenate((order[:-1], order[:-1] + n))
        v = np.concatenate((order[1:], order[1:] + n))
        labels = envs._component_labels(2 * n, u, v)
        assert labels.tolist() == [0] * n + [n] * n


class TestNodeNumbering:
    """``CascadeEnv`` labels its worlds with the nodes renumbered by
    descending degree, ties in id order; the components, and so every reach
    count, are those of the original ids."""

    @staticmethod
    def assert_same_partition(env, live_rows):
        ends = np.array(env.graph.edges, dtype=np.intp).reshape(-1, 2)
        n = env.n_arms
        for row in live_rows:
            edge = np.flatnonzero(row)
            original = envs._component_labels(n, ends[edge].min(axis=1), ends[edge].max(axis=1))
            renumbered = envs._component_labels(n, env._lo[edge], env._hi[edge]).take(env._node)
            # two nodes share a component in one numbering exactly when they do in the other
            pairs = set(zip(original.tolist(), renumbered.tolist()))
            assert len(pairs) == len(set(original.tolist())) == len(set(renumbered.tolist()))

    @pytest.mark.parametrize("name", ["toy_8", "community_534"])
    def test_node_map_is_a_read_only_permutation(self, name):
        g = load_edge_list(DATA / f"{name}.edges")
        env = CascadeEnv(g, 0.1, budget=3)
        assert env._node.dtype == np.intp
        assert sorted(env._node.tolist()) == list(range(g.n_nodes))
        with pytest.raises(ValueError, match="read-only"):
            env._node[0] = 1
        # the first hook's precondition, after renumbering
        assert np.all(env._lo <= env._hi)
        ends = env._node.take(np.array(g.edges))
        assert env._lo.tolist() == ends.min(axis=1).tolist()
        assert env._hi.tolist() == ends.max(axis=1).tolist()

    def test_hubs_first_ties_in_id_order(self):
        # degrees 1, 1, 1, 3, 2, 0, 0: the hub 3, then 4, then 0, 1, 2, 5, 6 as they were
        env = CascadeEnv(Graph(7, ((3, 0), (1, 3), (3, 4), (2, 4))), 0.5, budget=1)
        assert env._node.tolist() == [2, 3, 4, 0, 1, 5, 6]
        assert env._lo.tolist() == [0, 0, 0, 1]
        assert env._hi.tolist() == [2, 3, 1, 4]
        g = load_edge_list(DATA / "community_534.edges")
        degree = np.bincount(np.array(g.edges).ravel(), minlength=g.n_nodes)
        by_degree = np.lexsort((np.arange(g.n_nodes), -degree))
        assert CascadeEnv(g, 0.1, budget=3)._node.take(by_degree).tolist() == list(range(g.n_nodes))

    @pytest.mark.parametrize("p", [0.02, 0.1, 0.4])
    def test_community_worlds_same_partition(self, p):
        g = load_edge_list(DATA / "community_534.edges")
        env = CascadeEnv(g, p, budget=3)
        rng = np.random.default_rng(101)
        live = np.zeros((40, g.n_edges), dtype=bool)
        for row in live:
            row[env._world_edges(rng)] = True
        self.assert_same_partition(env, live)

    @settings(max_examples=300, deadline=None)
    @given(small_live_worlds())
    def test_small_graphs_same_partition(self, case):
        graph, live, _ = case
        env = CascadeEnv(graph, 0.5, budget=1)
        assert np.all(env._lo <= env._hi)
        self.assert_same_partition(env, live)


class TestCascadePickle:
    """A pickled ``CascadeEnv``, as ``run_experiment`` sends it to a worker
    process, is rebuilt from its arguments: its index arrays carry numpy's
    canonical intp dtype object, which keeps ``np.minimum.at`` on its fast path."""

    def test_round_trip_rebuilds_the_env(self):
        env = CascadeEnv(
            load_edge_list(DATA / "community_534.edges"),
            0.1,
            budget=4,
            exact_sims=7,
            exact_seed=3,
            allow_extra_query=True,
        )
        copy = pickle.loads(pickle.dumps(env))
        for name in ("_node", "_lo", "_hi", "_ramp"):
            assert getattr(copy, name).dtype is np.dtype(np.intp), name
            assert getattr(copy, name).tobytes() == getattr(env, name).tobytes(), name
            assert not getattr(copy, name).flags.writeable, name
        assert (copy.query_limit, copy.exact_seed, copy.exact_sims) == (5, 3, 7)
        assert (copy.budget, copy.activation_p, copy.graph) == (4, 0.1, env.graph)
        rng_a, rng_b = np.random.default_rng(23), np.random.default_rng(23)
        for S in [(0,), (3, 17), (1, 2, 5, 8, 13)]:
            assert copy.pull(S, rng_a) == env.pull(S, rng_b), S
            assert copy.exact(S) == env.exact(S), S
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        strict = CascadeEnv(load_edge_list(DATA / "toy_8.edges"), 0.3, budget=2)
        assert pickle.loads(pickle.dumps(strict)).query_limit == 2


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

    @pytest.mark.parametrize("noise_std", [-0.1, math.nan, math.inf])
    def test_noise_std_must_be_finite_and_nonnegative(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            GameOracle(additive_game([0.1, 0.2, 0.3, 0.4], 3), noise_std)

    def test_slack_beyond_game_budget_rejected(self):
        game = additive_game([0.2, 0.3, 0.5], 2)
        with pytest.raises(ValueError):
            GameOracle(game, allow_extra_query=True)

    def test_restricted_game_backdoor(self):
        env = make_synthetic(M=4, K=2)
        g = env.restricted_game()
        assert g.value((0, 1)) == env.exact((0, 1))
