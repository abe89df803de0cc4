"""The two-sample law checks of ``tests/stats.py``: hand values, a
false-alarm rate at or below the stated level when both samples share one
law, and rejection of a shifted law."""

import math

import numpy as np
import pytest

from stats import binned_check, mean_check, proportions_check


def four_sd_above(reps, alpha):
    """The largest rejection count within four binomial standard deviations
    of reps * alpha."""
    return reps * alpha + 4 * math.sqrt(reps * alpha * (1 - alpha))


def test_exact_binomial_hand_values():
    # 10 successes against none in equal trials: both all-or-nothing splits
    # of Binomial(10, 1/2), 2 / 2^10
    check = proportions_check([10], 500, [0], 500, 0.01)
    assert check.p_value == pytest.approx(2 / 1024, rel=1e-12)
    assert not check.passes
    # an even split is the likeliest outcome, so its p-value is 1
    assert proportions_check([5], 500, [5], 500, 0.01).p_value == pytest.approx(1.0)


def test_bonferroni_counts_bins_with_any_success():
    check = proportions_check([10, 0, 3, 0], 500, [0, 0, 3, 0], 500, 0.01)
    assert check.statistic == 2
    assert check.p_value == pytest.approx(2 * 2 / 1024, rel=1e-12)


def test_mean_check_false_alarm_rate():
    # unequal sizes and shapes, one mean
    rng = np.random.default_rng(0)
    alpha, reps = 0.05, 2000
    rejected = sum(
        not mean_check(rng.normal(1.0, 1.0, 200), rng.exponential(1.0, 300), alpha).passes
        for _ in range(reps)
    )
    assert rejected <= four_sd_above(reps, alpha)


def test_binned_check_false_alarm_rate():
    rng = np.random.default_rng(1)
    alpha, reps = 0.05, 500
    rejected = sum(
        not binned_check(rng.poisson(4.0, 400), rng.poisson(4.0, 600), alpha).passes for _ in range(reps)
    )
    assert rejected <= four_sd_above(reps, alpha)


def test_shifted_laws_rejected():
    rng = np.random.default_rng(2)
    assert not mean_check(rng.normal(0.3, 1.0, 500), rng.normal(0.0, 1.0, 500), 1e-3).passes
    assert not binned_check(rng.poisson(5.0, 2000), rng.poisson(4.0, 2000), 1e-3).passes
    edges = np.arange(0, 40, 5)
    assert not binned_check(rng.poisson(15.0, 2000), rng.poisson(13.0, 2000), 1e-3, bins=edges).passes
