"""Fair-target construction, regret accounting, and diagnostic ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksvfair import (
    FairnessLedger,
    fair_policy,
    merit_to_selection,
    regret_slope,
)


class TestFairPolicy:
    def test_uniform_values(self):
        mv = fair_policy(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        np.testing.assert_allclose(mv.probs, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_pure_normalization(self):
        mv = fair_policy(np.array([0.6, 0.3, 0.1]), 1)
        np.testing.assert_allclose(mv.probs, [0.6, 0.3, 0.1], atol=1e-12)

    def test_water_filling_consistent_with_normalizer(self):
        mv = fair_policy(np.array([0.9, 0.05, 0.05]), 2)
        np.testing.assert_allclose(mv.probs, [1.0, 0.5, 0.5], atol=1e-12)

    def test_negative_values_clipped(self):
        mv = fair_policy(np.array([0.5, -0.2, 0.5]), 2)
        assert mv.probs[1] == 0.0
        np.testing.assert_allclose(mv.probs, [1.0, 0.0, 1.0], atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fair_policy(np.array([0.0, -0.1, 0.0]), 1)

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, c):
        phi = np.array([0.1, 0.3, 0.2, 0.4])
        a = fair_policy(phi, 2).probs
        b = fair_policy(c * phi, 2).probs
        np.testing.assert_allclose(a, b, atol=1e-9)


def one_row_l1(pi_star, pi_t) -> float:
    """One round's L1 distance, as ``FairnessLedger.from_run`` of a one-row run."""
    return float(FairnessLedger.from_run(pi_star, np.asarray(pi_t)[None, :]).l1[0])


class TestFairnessRegretStep:
    def test_identical_policies(self):
        pi = np.array([0.5, 0.5])
        assert one_row_l1(pi, pi) == 0.0

    def test_hand_arithmetic(self):
        assert one_row_l1(np.array([0.5, 0.5]), np.array([0.7, 0.3])) == pytest.approx(0.4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            one_row_l1(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.random(6), rng.random(6), rng.random(6)
        dab = one_row_l1(a, b)
        assert dab == pytest.approx(one_row_l1(b, a))
        assert one_row_l1(a, a) == 0.0
        assert dab <= one_row_l1(a, c) + one_row_l1(c, b) + 1e-12
        if not np.allclose(a, b):
            assert dab > 0

    def test_bounded_by_twice_budget(self):
        K, M = 3, 8
        star = np.full(M, K / M)
        worst = np.zeros(M)
        worst[:K] = 1.0
        assert one_row_l1(star, worst) <= 2 * K


class TestFairnessLedger:
    def test_cumulative_is_monotone(self):
        led = FairnessLedger(np.array([0.5, 0.2, 0.0, 0.3]))
        fr = led.fr_cum
        assert np.all(np.diff(fr) >= 0)
        assert fr[-1] == pytest.approx(1.0)

    def test_from_run_matches_stepwise(self):
        rng = np.random.default_rng(0)
        star = np.array([0.5, 0.8, 0.7])
        mat = rng.random((20, 3))
        led = FairnessLedger.from_run(star, mat)
        direct = [np.abs(star - row).sum() for row in mat]
        np.testing.assert_allclose(led.l1, direct, atol=1e-12)


class TestMeritToSelection:
    def test_proportional_counts_give_flat_ratios(self):
        phi = np.array([0.1, 0.2, 0.3, 0.4])
        counts = (phi * 1000).astype(int)
        ratios = merit_to_selection(phi, counts, 1000)
        assert np.allclose(ratios, ratios[0])

    def test_uniform_counts_give_ratios_proportional_to_merit(self):
        phi = np.array([0.1, 0.2, 0.4])
        ratios = merit_to_selection(phi, np.array([50, 50, 50]), 100)
        np.testing.assert_allclose(ratios / ratios[0], phi / phi[0], atol=1e-12)

    def test_zero_count_is_nan(self):
        ratios = merit_to_selection(np.array([0.5, 0.5]), np.array([10, 0]), 10)
        assert np.isnan(ratios[1]) and not np.isinf(ratios).any()

    def test_rescaling_leaves_cov_invariant(self):
        phi = np.array([0.1, 0.25, 0.4])
        counts = np.array([10, 35, 55])
        r1 = merit_to_selection(phi, counts, 100)
        r2 = merit_to_selection(7.3 * phi, counts, 100)
        cov = lambda r: np.std(r) / np.mean(r)
        assert cov(r1) == pytest.approx(cov(r2))

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            merit_to_selection(np.array([0.5]), np.array([0]), 0)


class TestRegretSlope:
    def test_linear_series(self):
        led = FairnessLedger(np.full(400, 0.7))
        assert regret_slope(led) == pytest.approx(1.0, abs=0.05)

    def test_three_quarter_series(self):
        t = np.arange(1, 2001, dtype=float)
        fr = 2.3 * t**0.75
        led = FairnessLedger(np.diff(fr, prepend=0.0))
        assert regret_slope(led) == pytest.approx(0.75, abs=0.02)

    def test_short_ledger_rejected(self):
        with pytest.raises(ValueError):
            regret_slope(FairnessLedger(np.full(50, 0.1)))

    def test_degenerate_ledger_rejected(self):
        with pytest.raises(ValueError):
            regret_slope(FairnessLedger(np.zeros(300)))
