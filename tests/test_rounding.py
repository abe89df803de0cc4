"""Exact-size subset sampling with prescribed marginals, and score normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksvfair import MarginalVector, RepeatedPickError, normalize_to_marginals, rrs_sample
from reference import scalar_rrs_sample
from stats import proportions_check


def empirical_frequencies(pi, K, n_draws, rng):
    M = len(np.asarray(pi))
    counts = np.zeros(M)
    for _ in range(n_draws):
        S = rrs_sample(pi, K, rng)
        assert len(S) == K
        assert len(set(S)) == K
        counts[list(S)] += 1
    return counts / n_draws


class TestMarginalVector:
    def test_valid_vector(self):
        mv = MarginalVector([0.5, 0.5, 1.0])
        assert mv.probs.dtype == float
        np.testing.assert_array_equal(mv.probs, [0.5, 0.5, 1.0])

    def test_entry_above_one_rejected(self):
        with pytest.raises(ValueError):
            MarginalVector(np.array([1.2, 0.8]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            MarginalVector(np.array([-0.1, 1.0, 1.1]))

    def test_non_integer_total_rejected(self):
        with pytest.raises(ValueError):
            MarginalVector(np.array([0.5, 0.7]))


class TestNormalizeToMarginals:
    def test_uniform(self):
        probs = normalize_to_marginals([0.25, 0.25, 0.25, 0.25], 2)
        np.testing.assert_allclose(probs, [0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_plain_normalization(self):
        probs = normalize_to_marginals([0.6, 0.3, 0.1], 1)
        np.testing.assert_allclose(probs, [0.6, 0.3, 0.1], atol=1e-12)

    def test_single_cap_redistribution(self):
        probs = normalize_to_marginals([0.9, 0.05, 0.05], 2)
        np.testing.assert_allclose(probs, [1.0, 0.5, 0.5], atol=1e-12)

    def test_cascading_caps(self):
        # first pass caps arm 0, redistribution then pushes arm 1 over
        probs = normalize_to_marginals([10.0, 1.0, 0.1, 0.1], 3)
        assert probs[0] == 1.0
        assert probs[1] == 1.0
        np.testing.assert_allclose(probs[2:], [0.5, 0.5], atol=1e-12)
        assert probs.sum() == pytest.approx(3.0, abs=1e-9)

    def test_ranking_preserved_up_to_cap_ties(self):
        raw = np.array([0.05, 0.4, 0.1, 0.3, 0.15])
        probs = normalize_to_marginals(raw, 3)
        capped = probs >= 1.0
        # capped entries are exactly the largest raw scores
        assert raw[capped].min() >= raw[~capped].max()
        # among uncapped entries the order is untouched
        free_raw = raw[~capped]
        free_out = probs[~capped]
        assert np.all(np.argsort(free_out, kind="stable") == np.argsort(free_raw, kind="stable"))

    def test_zero_scores_stay_zero(self):
        probs = normalize_to_marginals([0.5, 0.0, 0.5, 0.2], 2)
        assert probs[1] == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_marginals([0.0, 0.0, 0.0], 1)

    def test_support_smaller_than_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            normalize_to_marginals([1.0, 0.0, 0.0], 2)

    @pytest.mark.parametrize(
        "raw, K",
        [([np.nan, 1.0, 1.0], 1), ([1e308, 1e308, 1.0], 2), ([np.inf, 1.0, 1.0], 2)],
        ids=["nan", "overflowing-sum", "inf"],
    )
    @pytest.mark.filterwarnings("error")  # the error comes with no warning before it
    def test_non_finite_sum_rejected(self, raw, K):
        with pytest.raises(ValueError, match="positive finite sum, got (nan|inf)"):
            normalize_to_marginals(raw, K)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_marginals([0.5, -0.1, 0.6], 2)

    def test_drift_past_the_cap_moves_to_next_entry(self):
        # water-filling leaves [1/3, 1 - 2 ulp, 1, 2/3], 4.4e-16 short of K;
        # the largest uncapped entry has room for only half of that
        probs = normalize_to_marginals([0.1, 0.3, 3.0, 0.2], 3)
        assert probs[1] == 1.0 and probs[2] == 1.0
        assert probs[3] > 2 / 3
        assert probs.sum() == 3.0

    @given(
        st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=12),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_sums_to_budget_and_bounded(self, raw, K):
        if K > len(raw):
            K = len(raw)
        probs = normalize_to_marginals(raw, K)
        # a plain array, valid by construction: rrs_sample is its one check
        assert type(probs) is np.ndarray and probs.shape == (len(raw),)
        assert abs(probs.sum() - K) <= 1e-9
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0 + 1e-12)

    def test_drift_stays_within_four_ulp_and_never_repeats_a_pick(self):
        # water-filling leaves the sum a few ulp off K for a few percent of
        # inputs (one float add cannot cancel the summation error), and
        # rrs_sample stretches its last cut to K by that much; pin the size
        # of that drift and that no draw picks an arm twice because of it
        rng = np.random.default_rng(2026)
        worst, tried = 0.0, 0
        while tried < 20_000:
            M = int(rng.integers(2, 21))
            K = int(rng.integers(1, M + 1))
            raw = rng.random(M) ** 3  # skewed, so some entries cap at 1
            raw[rng.random(M) < 0.2] = 0.0
            if np.count_nonzero(raw) < K:
                continue
            tried += 1
            probs = normalize_to_marginals(raw, K)
            worst = max(worst, abs(float(probs.sum()) - K) / np.spacing(float(K)))
            S = rrs_sample(probs, K, rng)  # raises RepeatedPickError on a repeat
            assert len(S) == K
        assert worst <= 4


class _FixedRng:
    """Identity permutation and a fixed offset, to place the cut points by hand."""

    def __init__(self, offset):
        self.offset = offset

    def permutation(self, n):
        return np.arange(n)

    def random(self):
        return self.offset


class TestRrsSample:
    def test_repeated_pick_raises(self):
        # the sum is 1e-10 short of K, within tolerance; stretching the last
        # cut to K widens the capped arm's interval past 1, so an offset just
        # below 1 puts both points in it
        pi = np.array([0.5 - 1e-10, 0.5, 1.0])
        with pytest.raises(RepeatedPickError, match="picked twice"):
            rrs_sample(pi, 2, _FixedRng(1 - 1e-11))
        assert rrs_sample(pi, 2, _FixedRng(0.5)) == (1, 2)

    def test_entries_clipped_to_unit_interval(self):
        # unclipped, the -5e-10 entry pulls arm 1's cut below the offset and
        # the point lands in arm 2's interval instead
        pi = np.array([-5e-10, 0.5, 0.5 + 5e-10])
        assert rrs_sample(pi, 1, _FixedRng(0.4999999997)) == (1,)

    def test_matches_scalar_sampler(self):
        # same picks and the same generator use as the reference sampler,
        # on vectors with entries capped at 1 and entries a hair outside [0, 1]
        vectors = [np.array([1 + 5e-10, 0.5, 0.5 - 5e-10, -1e-10, 1e-10])]
        draw = np.random.default_rng(9)
        while len(vectors) < 200:
            M = int(draw.integers(2, 21))
            K = int(draw.integers(1, M + 1))
            raw = draw.random(M) ** 3
            raw[draw.random(M) < 0.25] *= 50
            if np.count_nonzero(raw) >= K:
                vectors.append(normalize_to_marginals(raw, K))
        assert sum(int(np.any(p == 1.0)) for p in vectors) > 50
        for i, pi in enumerate(vectors):
            K = round(float(pi.sum()))
            rng_new, rng_old = np.random.default_rng(i), np.random.default_rng(i)
            for _ in range(20):
                assert rrs_sample(pi, K, rng_new) == scalar_rrs_sample(pi, K, rng_old)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_degenerate_marginals_return_support(self):
        pi = np.array([1.0, 0.0, 1.0, 0.0])
        for seed in range(10):
            assert rrs_sample(pi, 2, np.random.default_rng(seed)) == (0, 2)

    def test_output_size_always_k(self):
        rng = np.random.default_rng(0)
        pi = normalize_to_marginals([0.9, 0.6, 0.3, 0.2], 2)
        for _ in range(500):
            S = rrs_sample(pi, 2, rng)
            assert len(S) == 2 and len(set(S)) == 2

    def test_uniform_marginals_frequencies(self):
        M, K, n = 5, 2, 20_000
        pi = np.full(M, K / M)
        freq = empirical_frequencies(pi, K, n, np.random.default_rng(1))
        band = 3 * np.sqrt((K / M) * (1 - K / M) / n)
        assert np.all(np.abs(freq - K / M) < band)

    def test_skewed_marginals_frequencies(self):
        pi = np.array([0.9, 0.6, 0.3, 0.2])
        n = 20_000
        freq = empirical_frequencies(pi, 2, n, np.random.default_rng(2))
        band = 3 * np.sqrt(pi * (1 - pi) / n) + 1e-9
        assert np.all(np.abs(freq - pi) < band)

    def test_zero_probability_never_sampled(self):
        pi = np.array([0.0, 1.0, 0.5, 0.5])
        rng = np.random.default_rng(3)
        for _ in range(300):
            assert 0 not in rrs_sample(pi, 2, rng)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rrs_sample(np.array([0.5, 0.5, 0.5]), 2, np.random.default_rng(0))

    def test_entry_outside_unit_rejected(self):
        with pytest.raises(ValueError):
            rrs_sample(np.array([1.5, 0.5]), 2, np.random.default_rng(0))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_property_exact_size_on_random_marginals(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 13))
        K = int(rng.integers(1, M + 1))
        raw = rng.random(M) + 1e-3
        pi = normalize_to_marginals(raw, K)
        S = rrs_sample(pi, K, rng)
        assert len(S) == K and len(set(S)) == K
        assert all(0 <= a < M for a in S)


class TestInclusionLaw:
    """``rrs_sample``'s inclusion counts against its marginals, by
    ``proportions_check`` of ``tests/stats.py`` at level ALPHA: each arm's
    count over N_DRAWS draws against one Binomial(N_REF, marginal) draw for
    that arm, one bin per arm.  The check passes against the marginals the
    sampler was given and rejects a named wrong variant at fixed seeds: the
    same counts against the marginals with one moved by 0.01 (arm 2's, 0.25
    to 0.26)."""

    ALPHA = 1e-3
    N_DRAWS, N_REF = 50_000, 500_000
    PI = np.array([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.6, 0.6])

    @pytest.fixture(scope="class")
    def counts(self):
        rng = np.random.default_rng(71)
        counts = np.zeros(len(self.PI), dtype=np.int64)
        for _ in range(self.N_DRAWS):
            counts[list(rrs_sample(self.PI, 3, rng))] += 1
        return counts

    @pytest.mark.parametrize("variant", ["given", "one moved by 0.01"])
    def test_inclusion_counts_match_marginals(self, counts, variant):
        claimed = self.PI.copy()
        if variant == "one moved by 0.01":
            claimed[2] += 0.01
        expected = np.random.default_rng(72).binomial(self.N_REF, claimed)
        check = proportions_check(counts, self.N_DRAWS, expected, self.N_REF, self.ALPHA)
        assert check.passes == (variant == "given"), check
