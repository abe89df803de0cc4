"""Exact value computations, axiom checks, and game constructors."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksvfair import (
    CoalitionSizeError,
    RestrictedGame,
    additive_game,
    carrier_exact_values,
    carrier_game,
    classical_shapley,
    coverage_game,
    exact_k_shapley,
    marginal_contribution,
    mix_games,
    sampled_k_shapley,
    verify_axioms,
)
from ksvfair import games
from ksvfair.envs import CascadeEnv, load_edge_list
from ksvfair.games import (
    MAX_EXACT_COALITIONS,
    _linearity_gap,
    checked_coalition,
    exact_cost,
    k_efficiency_gap,
    null_players,
    symmetric_pairs,
)

from reference import (
    collapsed_k_shapley,
    definitional_k_shapley,
    dividend_k_shapley,
    moebius_dividends,
    random_table_game,
    sampled_marginals,
    scalar_sampled_k_shapley,
    table_game,
)

COMMUNITY = Path(__file__).resolve().parent.parent / "data" / "community_534.edges"


def null_arm_game(weights, budget, null_arm):
    """Additive game extended with one arm that never contributes."""
    w = list(weights)
    w.insert(null_arm, 0.0)
    return additive_game(w, budget)


class TestRestrictedGame:
    def test_oversize_query_raises(self):
        g = additive_game([0.2, 0.3, 0.5], 2)
        with pytest.raises(CoalitionSizeError):
            g.value((0, 1, 2))

    def test_duplicate_members_rejected(self):
        g = additive_game([0.2, 0.3, 0.5], 2)
        with pytest.raises(ValueError):
            g.value((1, 1))

    def test_out_of_range_rejected(self):
        g = additive_game([0.2, 0.3], 2)
        with pytest.raises(ValueError):
            g.value((0, 5))

    def test_empty_coalition_is_zero(self):
        g = additive_game([0.2, 0.3, 0.5], 2)
        assert g.value(()) == 0.0

    def test_nonzero_empty_valuation_rejected(self):
        with pytest.raises(ValueError):
            RestrictedGame(3, 2, lambda S: 1.0)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            RestrictedGame(3, 4, lambda S: 0.0)


class TestCoalitionMembers:
    """Members are read with ``operator.index``: numpy integers are ints, and
    a non-integral or ``bool`` member raises ``TypeError`` instead of being
    read as an arm, whether the members come as a tuple or an iterator."""

    # True and False would read as arms 1 and 0 through operator.index
    @pytest.mark.parametrize(
        "member", [1.5, np.float64(2.0), True, False], ids=["float", "np.float64", "True", "False"]
    )
    def test_non_integral_member_raises_type_error(self, member):
        g = additive_game([0.2, 0.3, 0.5, 0.7], 2)
        calls = {
            "RestrictedGame.value": lambda wrap, m: g.value(wrap((0, m))),
            "marginal_contribution": lambda wrap, m: marginal_contribution(g, 0, wrap((m,))),
            "carrier_game": lambda wrap, m: carrier_game(4, 2, wrap((m,)), 1.0).value((2, 3)),
            "carrier_exact_values": lambda wrap, m: carrier_exact_values(4, 2, wrap((m,)), 1.0),
        }
        for name, call in calls.items():
            # an iterator is read once, and its members are checked as a tuple's are
            for wrap in (tuple, iter):
                # a numpy integer is the int it holds
                assert np.array_equal(call(wrap, np.int64(2)), call(wrap, 2)), name
                with pytest.raises(TypeError):
                    call(wrap, member)

    def test_error_order(self):
        # unreadable member, then duplicate, then range, then size
        cases = [
            ((3, 2.5, 2, 99, 5, 6), TypeError, "integer"),
            ((3, 3, 99, 5, 6), ValueError, "duplicate"),
            ((3, 99, 5, 6), ValueError, "out of range"),
            ((3, 4, 5), CoalitionSizeError, "exceeds budget 2"),
        ]
        for members, error, match in cases:
            with pytest.raises(error, match=match) as info:
                checked_coalition(members, 8, 2, "budget")
            assert type(info.value) is error, members

    @pytest.mark.parametrize("base", [(-1,), (5,), (0, 7)])
    def test_carrier_values_range_check_their_base(self, base):
        # -1 must not reach numpy's negative indexing, which credits arm 4
        with pytest.raises(ValueError, match="out of range"):
            carrier_exact_values(5, 2, base, 1.0)


class TestMarginalContribution:
    def test_additive_marginal_is_weight(self):
        g = additive_game([0.2, 0.3, 0.5], 2)
        assert marginal_contribution(g, 2, (0,)) == pytest.approx(0.5)

    def test_null_player_marginal_is_zero(self):
        g = null_arm_game([0.4, 0.6], 3, null_arm=2)
        for S in [(), (0,), (1,), (0, 1)]:
            assert marginal_contribution(g, 2, S) == 0.0

    def test_coverage_marginal_hand_enumerated(self):
        # ground sets {x,y} and {y,z}: adding arm 1 to {0} covers one new element
        g = coverage_game([{0, 1}, {1, 2}], 3, 2)
        assert marginal_contribution(g, 1, (0,)) == pytest.approx(1 / 3)

    def test_arm_already_in_coalition(self):
        g = additive_game([0.2, 0.3, 0.5], 2)
        with pytest.raises(ValueError):
            marginal_contribution(g, 0, (0,))

    def test_coalition_too_large(self):
        g = additive_game([0.2, 0.3, 0.5], 2)
        with pytest.raises(CoalitionSizeError):
            marginal_contribution(g, 2, (0, 1))


class TestExactValues:
    def test_additive_game_returns_weights(self):
        w = [0.2, 0.3, 0.5]
        phi = exact_k_shapley(additive_game(w, 2))
        np.testing.assert_allclose(phi.values, w, atol=0)

    def test_carrier_game_closed_form(self):
        # M=4, K=2, D={0,1}: members split the efficiency total
        # alpha * C(2,0) / C(3,1) = 1/3 equally -> 1/6 each.
        phi = exact_k_shapley(carrier_game(4, 2, (0, 1), 1.0))
        np.testing.assert_allclose(phi.values, [1 / 6, 1 / 6, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(phi.values, carrier_exact_values(4, 2, (0, 1), 1.0), atol=1e-15)

    def test_singleton_carrier_gets_full_worth(self):
        phi = exact_k_shapley(carrier_game(4, 2, (0,), 0.7))
        np.testing.assert_allclose(phi.values, [0.7, 0.0, 0.0, 0.0], atol=1e-15)

    def test_carrier_worth_on_supersets_only(self):
        g = carrier_game(4, 2, (0,), 1.0)
        assert g.value((0, 2)) == 1.0
        g2 = carrier_game(4, 2, (0, 1), 1.0)
        assert g2.value((0, 2)) == 0.0
        assert g2.value((0, 1)) == 1.0

    def test_carrier_too_large_rejected(self):
        with pytest.raises(ValueError):
            carrier_game(4, 2, (0, 1, 2), 1.0)

    @pytest.mark.xfail(
        strict=True,
        reason="alpha/|D| for a multi-member carrier in a truly restricted game "
        "contradicts the efficiency identity; see notes ledger",
    )
    def test_multi_member_carrier_alpha_over_d_literal(self):
        phi = exact_k_shapley(carrier_game(4, 2, (0, 1), 1.0))
        np.testing.assert_allclose(phi.values, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_coverage_game_matches_independent_oracles(self):
        g = coverage_game([{0, 1}, {1, 2}, {2, 3, 4}, {5}], 6, 2)
        phi = exact_k_shapley(g).values
        # frozen from the collapsed counting oracle
        np.testing.assert_allclose(
            phi,
            [0.3055555555555556, 0.2777777777777778, 0.4722222222222222, 1 / 6],
            atol=1e-12,
        )
        np.testing.assert_allclose(phi, collapsed_k_shapley(g), atol=1e-12)
        np.testing.assert_allclose(phi, dividend_k_shapley(g), atol=1e-12)

    def test_enumeration_guard(self, monkeypatch):
        # the old M <= 20, K <= 8 limits are the cost bound
        assert MAX_EXACT_COALITIONS == exact_cost(20, 8) == 263_949
        with pytest.raises(ValueError, match="guard"):
            exact_k_shapley(additive_game(np.full(40, 0.1), 9))
        # the bound counts valuations: 6 + 15 + 20 coalitions of 1..3 of 6 arms
        calls = []
        g = RestrictedGame(6, 3, lambda S: calls.append(S) or 0.1 * len(S))
        assert exact_cost(6, 3) == 41
        # the guard reads the bound at call time
        monkeypatch.setattr(games, "MAX_EXACT_COALITIONS", 40)
        with pytest.raises(ValueError, match="guard"):
            exact_k_shapley(g)
        calls.clear()
        monkeypatch.setattr(games, "MAX_EXACT_COALITIONS", 41)
        phi = exact_k_shapley(g)
        assert len(calls) == 41
        np.testing.assert_allclose(phi.values, np.full(6, 0.1), atol=1e-12)

    @pytest.mark.parametrize(
        "seed,M,K",
        [(0, 5, 2), (1, 6, 3), (2, 7, 3), (3, 8, 4), (4, 6, 1), (5, 7, 6), (6, 6, 6)],
    )
    def test_random_games_match_dividend_oracle(self, seed, M, K):
        g = random_table_game(M, K, np.random.default_rng(seed))
        phi = exact_k_shapley(g).values
        np.testing.assert_allclose(phi, dividend_k_shapley(g), atol=1e-12)
        np.testing.assert_allclose(phi, definitional_k_shapley(g), atol=1e-12)
        np.testing.assert_allclose(phi, collapsed_k_shapley(g), atol=1e-12)

    @pytest.mark.parametrize("M,K", [(6, 1), (7, 3), (6, 6)])
    def test_each_feasible_coalition_valued_once(self, M, K):
        calls = []
        table = random_table_game(M, K, np.random.default_rng(9))

        def worth(S):
            calls.append(S)
            return table.value(S)

        g = RestrictedGame(M, K, worth)
        calls.clear()  # construction checks the empty coalition
        exact_k_shapley(g)
        assert len(calls) == sum(math.comb(M, s) for s in range(1, K + 1))
        assert len(set(calls)) == len(calls)


class TestClassicalShapley:
    def test_unanimity_game(self):
        g = carrier_game(3, 3, (0, 1, 2), 1.0)
        phi = classical_shapley(g)
        np.testing.assert_allclose(phi.values, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_additive_weights(self):
        w = [0.1, 0.4, 0.5]
        phi = classical_shapley(additive_game(w, 3))
        np.testing.assert_allclose(phi.values, w, atol=1e-12)

    def test_glove_game(self):
        g = table_game(3, 3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 0.0, (0, 1, 2): 1.0})
        phi = classical_shapley(g)
        np.testing.assert_allclose(phi.values, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)

    def test_requires_full_budget(self):
        with pytest.raises(ValueError):
            classical_shapley(additive_game([0.5, 0.5, 0.5], 2))

    def test_enumeration_guard(self):
        # 11! orderings: refused before any valuation
        calls = []
        g = RestrictedGame(11, 11, lambda S: calls.append(S) or 0.1 * len(S))
        calls.clear()  # construction checks the empty coalition
        with pytest.raises(ValueError, match="guard: M=11 exceeds 10"):
            classical_shapley(g)
        assert calls == []

    @pytest.mark.parametrize("seed,M", [(10, 4), (11, 5), (12, 6)])
    def test_full_budget_reduction(self, seed, M):
        g = random_table_game(M, M, np.random.default_rng(seed))
        np.testing.assert_allclose(
            exact_k_shapley(g).values, classical_shapley(g).values, atol=1e-10
        )


class TestCarrierBasis:
    def test_moebius_reconstruction_small_instance(self):
        # every feasible worth equals the sum of dividends of its subsets:
        # the carrier games span the feasible-game space
        g = random_table_game(4, 2, np.random.default_rng(7))
        lam = moebius_dividends(g)
        for size in range(1, 3):
            for S in itertools.combinations(range(4), size):
                recon = sum(
                    lam[D]
                    for k in range(1, size + 1)
                    for D in itertools.combinations(S, k)
                )
                assert recon == pytest.approx(g.value(S), abs=1e-12)

    def test_two_carrier_combination_reproduces_game(self):
        u1 = carrier_game(4, 2, (0,), 1.0)
        u2 = carrier_game(4, 2, (1, 2), 1.0)

        def combined(S):
            return 0.4 * u1.value(S) + 0.6 * u2.value(S)

        g = RestrictedGame(4, 2, combined)
        for size in range(0, 3):
            for S in itertools.combinations(range(4), size):
                assert g.value(S) == pytest.approx(
                    0.4 * u1.value(S) + 0.6 * u2.value(S), abs=1e-15
                )
        expected = 0.4 * carrier_exact_values(4, 2, (0,), 1.0) + 0.6 * carrier_exact_values(
            4, 2, (1, 2), 1.0
        )
        np.testing.assert_allclose(exact_k_shapley(g).values, expected, atol=1e-12)


class TestAxioms:
    def test_carrier_game_all_axioms(self):
        g = carrier_game(4, 2, (0, 1), 1.0)
        report = verify_axioms(g, exact_k_shapley(g), 1e-12)
        assert report.symmetry_ok
        assert report.linearity_ok
        assert report.null_player_ok
        assert report.k_efficiency_ok
        assert report.max_violation < 1e-12

    def test_additive_k_efficiency_identity(self):
        w = [0.2, 0.3, 0.5, 0.1]
        g = additive_game(w, 2)
        phi = exact_k_shapley(g)
        assert k_efficiency_gap(g, phi) < 1e-12
        assert phi.values.sum() == pytest.approx(sum(w), abs=1e-12)

    def test_random_frozen_game_efficiency(self):
        g = random_table_game(6, 3, np.random.default_rng(99))
        report = verify_axioms(g, exact_k_shapley(g), 1e-9)
        assert report.k_efficiency_ok
        assert report.max_violation < 1e-9

    def test_symmetric_pair_detection(self):
        # arms 0 and 1 carry identical weights: symmetric; 2 differs
        g = additive_game([0.4, 0.4, 0.7], 2)
        assert symmetric_pairs(g) == [(0, 1)]

    def test_null_player_detection_and_value(self):
        g = null_arm_game([0.4, 0.6, 0.3], 3, null_arm=1)
        assert null_players(g) == [1]
        phi = exact_k_shapley(g)
        assert phi.values[1] == 0.0

    def test_adding_null_player_leaves_values_unchanged(self):
        base = additive_game([0.4, 0.6, 0.3], 2)
        extended = null_arm_game([0.4, 0.6, 0.3], 2, null_arm=3)
        phi_base = exact_k_shapley(base).values
        phi_ext = exact_k_shapley(extended).values
        np.testing.assert_allclose(phi_ext[:3], phi_base, atol=1e-12)
        assert phi_ext[3] == 0.0


class TestLinearity:
    def _pair(self):
        rng = np.random.default_rng(5)
        return random_table_game(5, 2, rng), random_table_game(5, 2, rng)

    def test_degenerate_mixtures(self):
        g1, g2 = self._pair()
        phi1 = exact_k_shapley(g1).values
        assert _linearity_gap(g1, g2, 0.0, phi1) <= 1e-14
        assert _linearity_gap(g1, g2, 1.0, phi1) <= 1e-14

    def test_interior_mixture(self):
        g1, g2 = self._pair()
        assert _linearity_gap(g1, g2, 0.3, exact_k_shapley(g1).values) <= 1e-12

    def test_dimension_mismatch(self):
        g1 = additive_game([0.5, 0.5], 2)
        g2 = additive_game([0.5, 0.5, 0.5], 2)
        with pytest.raises(ValueError, match="share arm count"):
            mix_games(g1, g2, 0.5)

    def test_mixture_value_pointwise(self):
        g1, g2 = self._pair()
        mixed = mix_games(g1, g2, 0.25)
        for S in [(0,), (1, 3), (2, 4)]:
            assert mixed.value(S) == pytest.approx(
                0.25 * g1.value(S) + 0.75 * g2.value(S), abs=1e-15
            )


class TestRelabeling:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_permuting_labels_permutes_values(self, seed):
        rng = np.random.default_rng(seed)
        M, K = 5, 3
        g = random_table_game(M, K, rng)
        perm = rng.permutation(M)
        # relabeled game: arm perm[i] plays the role arm i played before
        inverse = np.argsort(perm)

        def relabeled(S):
            return g.value(tuple(sorted(int(inverse[a]) for a in S)))

        g2 = RestrictedGame(M, K, relabeled)
        phi = exact_k_shapley(g).values
        phi2 = exact_k_shapley(g2).values
        np.testing.assert_allclose(phi2[perm], phi, atol=1e-12)


class TestSampledValues:
    def test_sampled_estimator_converges_on_small_game(self):
        g = random_table_game(5, 2, np.random.default_rng(21))
        exact = exact_k_shapley(g).values
        est = sampled_k_shapley(g.value, 5, 2, 20_000, np.random.default_rng(0))
        assert est.kind == "estimated"
        # every arm is drawn many times, so the tolerance below stays finite
        assert np.isfinite(est.stderr).all()
        np.testing.assert_allclose(est.values, exact, atol=4 * np.max(est.stderr) + 5e-3)

    def test_each_distinct_prefix_valued_once(self):
        table = random_table_game(6, 3, np.random.default_rng(4))
        calls = []

        def counted(S):
            calls.append(S)
            return table.value(S)

        est = sampled_k_shapley(counted, 6, 3, 200, np.random.default_rng(5))
        # replay the draws: one coalition, then one ordering of it, per sample
        rng, prefixes = np.random.default_rng(5), set()
        for _ in range(200):
            order = rng.choice(6, size=3, replace=False)[rng.permutation(3)]
            prefixes.update(tuple(sorted(order[:j].tolist())) for j in range(1, 4))
        assert sorted(calls) == sorted(prefixes)
        ref = sampled_k_shapley(table.value, 6, 3, 200, np.random.default_rng(5))
        assert est.values.tobytes() == ref.values.tobytes()
        assert est.stderr.tobytes() == ref.stderr.tobytes()

    def test_unsampled_arm_fails_before_any_valuation(self):
        # 3 samples of 2 arms cannot cover 20 arms: the coverage check comes
        # after the draws and before the first valuation
        calls = []

        def counted(S):
            calls.append(S)
            return 0.1 * len(S)

        with pytest.raises(ValueError, match="never sampled"):
            sampled_k_shapley(counted, 20, 2, 3, np.random.default_rng(0))
        assert calls == []

    def test_sampled_estimator_additive_zero_variance(self):
        w = [0.2, 0.3, 0.5]
        est = sampled_k_shapley(additive_game(w, 2).value, 3, 2, 500, np.random.default_rng(1))
        np.testing.assert_allclose(est.values, w, atol=1e-12)
        # variance of identical samples cancels only to float precision
        np.testing.assert_allclose(est.stderr, 0.0, atol=1e-7)


def _random_sampler_case(seed: int):
    """A random table game and sample count: M in 3..11, K in 1..min(M, 5),
    and from about M / K samples (some arms drawn once, some draws missing
    an arm) up to 59."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 12))
    K = int(rng.integers(1, min(M, 5) + 1))
    n = int(rng.integers(M // K + 1, 60))
    return random_table_game(M, K, rng).value, M, K, n


class TestSampledMatchesScalar:
    """The flat-list sampler against the earlier per-prefix loop
    (``reference.scalar_sampled_k_shapley``): the same valuation calls in
    the same order, the same values byte for byte and the same generator
    state afterwards.  Its stderr is checked against ``np.std(ddof=1) /
    sqrt(h)`` of each arm's replayed marginals: within 8 ulp of that value
    (the cases here differ by at most 3), or, where an arm's marginals agree up to rounding and
    both are rounding noise, within 8 ulp of its largest marginal; an arm
    drawn once reports inf."""

    # 8 ulp, relative to the expected stderr or to the arm's largest marginal
    ULP_BOUND = 8 * np.finfo(float).eps

    def check(self, valuation, M, K, n, seed):
        """Run both samplers from ``default_rng(seed)``; returns the
        library's estimate, or None when both reject the draw."""
        calls, ref_calls = [], []
        worth = {}

        def counted(S):
            calls.append(S)
            worth[S] = v = valuation(S)
            return v

        def ref_counted(S):
            ref_calls.append(S)
            return valuation(S)

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            est = sampled_k_shapley(counted, M, K, n, rng)
        except ValueError as exc:
            with pytest.raises(ValueError, match="never sampled"):
                scalar_sampled_k_shapley(ref_counted, M, K, n, ref_rng)
            assert calls == ref_calls == [] and "never sampled" in str(exc)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            return None
        ref = scalar_sampled_k_shapley(ref_counted, M, K, n, ref_rng)
        assert calls == ref_calls
        assert est.values.tobytes() == ref.values.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        marginals = sampled_marginals(worth, M, K, n, np.random.default_rng(seed))
        hits = np.array([len(d) for d in marginals])
        assert np.array_equal(np.isinf(est.stderr), hits == 1)
        for a in np.flatnonzero(hits > 1):
            d = np.array(marginals[a])
            expected, top = np.std(d, ddof=1) / math.sqrt(len(d)), np.abs(d).max()
            scale = top if expected < 1e-9 * top else expected
            assert abs(est.stderr[a] - expected) <= self.ULP_BOUND * scale, (a, est.stderr[a], expected)
        return est

    def test_random_table_games(self):
        results = [self.check(*_random_sampler_case(seed), seed) for seed in range(30)]
        covered = [est for est in results if est is not None]
        assert len(covered) >= 20
        # the cases include arms drawn once and draws that miss an arm
        assert any(np.isinf(est.stderr).any() for est in covered)
        assert len(covered) < len(results)

    def test_additive_game_with_arms_drawn_once(self):
        # 2 samples of 2 of 3 arms: two arms are drawn once and read inf
        est = self.check(additive_game([0.2, 0.3, 0.5], 2).value, 3, 2, 2, 0)
        assert np.isinf(est.stderr).sum() == 2

    def test_cut_community_target(self):
        # the benchmark's cut cascade_community.ini target: one world per
        # coalition, 180 samples from default_rng(0)
        env = CascadeEnv(load_edge_list(COMMUNITY), 0.1, budget=20, exact_sims=1)
        est = self.check(env.restricted_game().value, 534, 20, 180, 0)
        # one of the 534 arms is drawn once; the population variance read 0 there
        assert np.isinf(est.stderr).sum() == 1
