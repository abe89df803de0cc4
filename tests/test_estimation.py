"""Monte-Carlo marginal estimators: exactness, soundness, pull accounting."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from ksvfair import (
    CascadeEnv,
    CoalitionSizeError,
    PolicyState,
    RoundEstimates,
    SyntheticEnv,
    additive_game,
    confidence_radius,
    load_edge_list,
    muras_round,
    shapley_estimation,
)
from ksvfair.cli import load_config
from ksvfair.estimation import _prefix_chains
from reference import (
    FixedOrderings,
    GameOracle,
    _set_masks,
    prefix_shapley_within,
    random_table_game,
    scalar_muras_round,
    scalar_shapley_estimation,
)

ROOT = Path(__file__).resolve().parent.parent
TOY_8 = ROOT / "data" / "toy_8.edges"


def submodular_oracle(M=4, K=4, noise=0.0, **kw):
    means = np.linspace(0.25, 0.9, M)
    stds = None if noise == 0.0 else np.full(M, noise)
    return SyntheticEnv(means, stds, budget=K, curvature=1.5, **kw)


class TestShapleyEstimation:
    def test_additive_noiseless_is_exact(self):
        oracle = GameOracle(additive_game([0.2, 0.3, 0.5], 3))
        for R, L in [(1, 1), (4, 2), (10, 5)]:
            est = shapley_estimation((0, 1, 2), oracle, R, L, np.random.default_rng(0))
            for a, w in zip(range(3), [0.2, 0.3, 0.5]):
                assert est.estimates[a] == pytest.approx(w, abs=1e-12)

    def test_two_member_exhaustive_orderings(self):
        oracle = submodular_oracle()
        S = (1, 3)
        rng = FixedOrderings(S, [(1, 3), (3, 1)], np.random.default_rng(0))
        est = shapley_estimation(S, oracle, 2, 1, rng)
        psi = prefix_shapley_within(oracle.exact, S)
        for a in S:
            assert est.estimates[a] == pytest.approx(psi[a], abs=1e-12)

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_exhaustive_orderings_reproduce_within_set_value(self, size):
        oracle = submodular_oracle()
        S = tuple(range(size))
        perms = list(itertools.permutations(S))
        rng = FixedOrderings(S, perms, np.random.default_rng(0))
        est = shapley_estimation(S, oracle, len(perms), 1, rng)
        psi = prefix_shapley_within(oracle.exact, S)
        for a in S:
            assert est.estimates[a] == pytest.approx(psi[a], abs=1e-12)

    def test_radius_covers_target(self):
        # noisy oracle: the combined ordering + smoothing radius at
        # delta1 = delta2 = 0.05 must cover the within-set value in at
        # least 95 of 100 seeded trials
        M, R, L = 6, 200, 200
        oracle = submodular_oracle(M=M, K=3, noise=0.2)
        S = (0, 2, 5)
        psi = prefix_shapley_within(oracle.exact, S)
        radius = confidence_radius(1, R, L, M, 0.05, 0.05)
        hits = 0
        trials = 100
        for seed in range(trials):
            est = shapley_estimation(S, oracle, R, L, np.random.default_rng(seed))
            if all(abs(est.estimates[a] - psi[a]) <= radius for a in S):
                hits += 1
        assert hits >= 95

    def test_pull_accounting_literal(self):
        oracle = GameOracle(additive_game([0.2, 0.3, 0.5], 3))
        est = shapley_estimation((0, 1), oracle, 3, 2, np.random.default_rng(0))
        assert est.pulls_consumed == 3 * 2 * 2 * 2


    def test_deterministic_given_seed(self):
        oracle = submodular_oracle(noise=0.3)
        runs = [
            shapley_estimation((0, 1, 3), oracle, 5, 4, np.random.default_rng(42)).estimates
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_empty_set_rejected(self):
        oracle = submodular_oracle()
        with pytest.raises(ValueError):
            shapley_estimation((), oracle, 1, 1, np.random.default_rng(0))

    def test_over_limit_coalition_rejected_before_any_draw(self):
        oracle = submodular_oracle(M=4, K=2, noise=0.3)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(CoalitionSizeError, match="exceeds query limit 2"):
            shapley_estimation((2, 0, 1), oracle, 3, 2, rng)
        assert rng.bit_generator.state == before

    # True and False would read as arms 1 and 0 through operator.index
    @pytest.mark.parametrize(
        "member", [1.5, np.float64(2.0), True, False], ids=["float", "np.float64", "True", "False"]
    )
    def test_non_integral_member_rejected_before_any_draw(self, member):
        oracle = submodular_oracle(M=4, K=2, noise=0.3)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(TypeError):
            shapley_estimation((0, member), oracle, 3, 2, rng)
        assert rng.bit_generator.state == before
        # numpy integers are the ints they hold, in the caller's order
        got = shapley_estimation(np.array([2, 0]), oracle, 3, 2, np.random.default_rng(1))
        want = shapley_estimation([2, 0], oracle, 3, 2, np.random.default_rng(1))
        assert got.coalition == want.coalition == (0, 2)
        assert got.estimates.tobytes() == want.estimates.tobytes()

    def test_estimates_cover_exactly_the_coalition(self):
        oracle = submodular_oracle()
        est = shapley_estimation((2, 1), oracle, 2, 1, np.random.default_rng(0))
        assert est.arms.tolist() == [1, 2]
        assert np.isnan(est.estimates).tolist() == [True, False, False, True]
        assert np.isnan(est.squares).tolist() == [True, False, False, True]


def noisy_oracle(kind, K, extra=False):
    """An 8-arm oracle of each kind, noisy where the kind allows it."""
    M = 8
    if kind == "synthetic":
        means = np.linspace(0.2, 0.95, M)
        return SyntheticEnv(
            means, np.linspace(0.1, 0.3, M), budget=K, curvature=1.5, allow_extra_query=extra
        )
    if kind == "game":
        game = random_table_game(M, M, np.random.default_rng(5))
        return GameOracle(game, 0.2, budget=K, allow_extra_query=extra)
    return CascadeEnv(
        load_edge_list(TOY_8), 0.3, budget=K, exact_sims=10, allow_extra_query=extra
    )


def assert_same_round(new, old, rng_new, rng_old, M):
    """Array estimates equal the scalar dicts exactly, NaN elsewhere, same stream."""
    arms = sorted(old.estimates)
    assert new.arms.tolist() == arms
    assert new.estimates[arms].tolist() == [old.estimates[a] for a in arms]
    assert new.squares[arms].tolist() == [old.squares[a] for a in arms]
    rest = np.setdiff1d(np.arange(M), arms)
    assert np.isnan(new.estimates[rest]).all() and np.isnan(new.squares[rest]).all()
    assert (new.n_perms, new.pulls_consumed) == (old.n_perms, old.pulls_consumed)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


KINDS = ["synthetic", "game", "cascade"]
COALITIONS = {1: (5,), 3: (6, 1, 3), 8: (4, 0, 7, 2, 6, 1, 5, 3)}


class TestArrayMatchesScalar:
    """The array estimators reproduce the scalar reference bit for bit."""

    @pytest.mark.parametrize("supplied", [False, True], ids=["drawn", "supplied"])
    # "paired": every marginal is a (without, with) pair of fresh means
    @pytest.mark.parametrize("k", [1, 3, 8], ids=lambda k: f"paired-{k}")
    @pytest.mark.parametrize("kind", KINDS)
    def test_shapley_estimation(self, kind, k, supplied):
        oracle = noisy_oracle(kind, max(k, 3))
        S = COALITIONS[k]
        perms, R = None, 4
        if supplied:
            # five chosen orderings, handed to the estimator through its generator
            draw = np.random.default_rng(11)
            perms = [tuple(draw.permutation(S).tolist()) for _ in range(5)]
            R = len(perms)
        for seed in range(3):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = rng_new if perms is None else FixedOrderings(S, perms, rng_new)
            new = shapley_estimation(S, oracle, R, 3, draws)
            old = scalar_shapley_estimation(S, oracle, R, 3, rng_old, permutations=perms)
            assert_same_round(new, old, rng_new, rng_old, 8)
            assert new.coalition == tuple(sorted(S))

    @pytest.mark.parametrize("K", [1, 3, 8])
    @pytest.mark.parametrize("kind", KINDS)
    def test_muras_round(self, kind, K):
        oracle = noisy_oracle(kind, K, extra=K < 8)
        for seed in range(3):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            new = muras_round(oracle, 3, rng_new)
            old = scalar_muras_round(oracle, 8, K, 3, rng_old)
            assert_same_round(new, old, rng_new, rng_old, 8)
            assert new.coalition == old.coalition

    @staticmethod
    def shipped_game():
        """The benchmark's 20-arm game, its R and L, with room for muras' K + 1 probe."""
        cfg = load_config(ROOT / "configs" / "synthetic_ksvfair.ini")
        env = SyntheticEnv(
            cfg.means, cfg.noise_stds, budget=cfg.K, curvature=cfg.curvature, allow_extra_query=True
        )
        assert (cfg.M, cfg.K, cfg.policy.R, cfg.policy.L) == (20, 5, 50, 20)
        return env, cfg.policy.R, cfg.policy.L

    def test_shapley_estimation_at_benchmark_shape(self):
        oracle, R, L = self.shipped_game()
        S = (17, 2, 9, 4, 11)
        for seed in range(3):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            new = shapley_estimation(S, oracle, R, L, rng_new)
            old = scalar_shapley_estimation(S, oracle, R, L, rng_old)
            assert_same_round(new, old, rng_new, rng_old, 20)

    def test_muras_round_at_benchmark_shape(self):
        oracle, _, L = self.shipped_game()
        for seed in range(3):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            new = muras_round(oracle, L, rng_new)
            old = scalar_muras_round(oracle, 20, 5, L, rng_old)
            assert_same_round(new, old, rng_new, rng_old, 20)
            assert new.coalition == old.coalition


class TestPrefixChains:
    """``_prefix_chains`` against masks of the explicit prefix sets."""

    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "chain"])
    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_matches_explicit_prefixes(self, k, paired):
        M, R = 9, 7
        rng = np.random.default_rng(k)
        orders = np.array([rng.choice(M, size=k, replace=False) for _ in range(R)])
        # paired: each position's (without, with) sizes 0, 1, 1, 2, ..., k; chain: 0..k
        sizes = [s for p in range(k) for s in (p, p + 1)] if paired else list(range(k + 1))
        got = _prefix_chains(orders, M, np.array(sizes))
        assert got.shape == (R, len(sizes), M)
        want = _set_masks([tuple(order[:p]) for order in orders.tolist() for p in sizes], M)
        assert np.array_equal(got.reshape(-1, M), want)


def muras_expectation(game, M, K):
    """Exact per-arm expectation of one uniform-round estimate, by enumeration.

    The sampled coalition is uniform over K-subsets with a uniform internal
    order, so members contribute their within-set value and outsiders their
    marginal on the full coalition.
    """
    out = np.zeros(M)
    subsets = list(itertools.combinations(range(M), K))
    for S in subsets:
        psi = prefix_shapley_within(game.value, S)
        for a in range(M):
            if a in S:
                out[a] += psi[a] / len(subsets)
            else:
                out[a] += (
                    game.value(tuple(sorted(S + (a,)))) - game.value(S)
                ) / len(subsets)
    return out


class TestMurasRound:
    def test_additive_noiseless_gives_weights(self):
        w = [0.1, 0.2, 0.3, 0.4]
        game = additive_game(w, 3)  # room for the K+1 probe
        oracle = GameOracle(game, budget=2, allow_extra_query=True)
        est = muras_round(oracle, 3, np.random.default_rng(0))
        assert est.arms.tolist() == [0, 1, 2, 3]
        for a in range(4):
            assert est.estimates[a] == pytest.approx(w[a], abs=1e-12)

    def test_null_arm_estimate_zero(self):
        game = additive_game([0.4, 0.0, 0.6], 3)
        oracle = GameOracle(game, budget=2, allow_extra_query=True)
        for seed in range(5):
            est = muras_round(oracle, 2, np.random.default_rng(seed))
            assert est.estimates[1] == pytest.approx(0.0, abs=1e-12)

    def test_round_average_matches_enumeration_oracle(self):
        M, K = 5, 2
        game = random_table_game(M, K + 1, np.random.default_rng(17))
        oracle = GameOracle(game, budget=K, allow_extra_query=True)
        rng = np.random.default_rng(1)
        R = 500
        acc = np.zeros(M)
        for _ in range(R):
            est = muras_round(oracle, 1, rng)
            acc += est.estimates / R
        np.testing.assert_allclose(acc, muras_expectation(game, M, K), atol=0.02)

    def test_pull_accounting(self):
        game = additive_game([0.2, 0.3, 0.4, 0.1], 3)
        oracle = GameOracle(game, budget=2, allow_extra_query=True)
        est = muras_round(oracle, 5, np.random.default_rng(0))
        assert est.pulls_consumed == 2 * 5 * 4

    def test_oversize_probe_rejected_in_strict_mode(self):
        oracle = GameOracle(additive_game([0.2, 0.3, 0.4], 2))
        with pytest.raises(ValueError):
            muras_round(oracle, 1, np.random.default_rng(0))

    def test_coalition_reported(self):
        game = additive_game([0.2, 0.3, 0.4, 0.1], 3)
        oracle = GameOracle(game, budget=2, allow_extra_query=True)
        est = muras_round(oracle, 1, np.random.default_rng(0))
        assert len(est.coalition) == 2


class TestRunningMean:
    def test_matches_direct_mean(self):
        # PolicyState.absorb folds one observation per call into the mean
        values = np.random.default_rng(0).random(10_000)
        state = PolicyState(1)
        arm = np.array([0])
        for v in values:
            state.absorb(RoundEstimates(np.array([v]), np.array([v * v]), arm, 1, 1))
        assert state.counts[0] == len(values)
        assert state.mean[0] == pytest.approx(values.mean(), abs=1e-12)
