"""Two-sample law checks with a stated false-alarm rate, numpy only.

Each check asks whether two samples could come from one law and returns a
``Check``: the test statistic, a p-value and the level α it is read at.  A
check ``passes`` when its p-value is at least α, so when the two laws are
equal it fails with probability at most α (up to the normal approximation
of ``mean_check``).  A test that uses a check states α and pairs the check
with a negative control: a named wrong variant, at fixed seeds, that the
same check must reject.

* ``mean_check``: two independent samples of a real quantity, compared by
  Welch's z statistic on their means (normal approximation, so for samples
  of a few hundred or more).
* ``proportions_check``: per bin, a count of successes in n_a trials
  against one in n_b trials, each bin by the exact conditional binomial
  test, with a Bonferroni correction over the bins that saw any success.
* ``binned_check``: two samples of a discrete quantity, binned, then
  ``proportions_check`` over the bins: each bin's count is binomial in the
  sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    """One two-sample check: statistic, p-value (Bonferroni-corrected where
    there are bins) and the level it is read at."""

    statistic: float
    p_value: float
    alpha: float

    @property
    def passes(self) -> bool:
        return self.p_value >= self.alpha


def mean_check(a, b, alpha: float) -> Check:
    """Welch's two-sample z check of equal means; the statistic is |z|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    z = abs(float(a.mean() - b.mean())) / se
    return Check(z, math.erfc(z / math.sqrt(2)), alpha)


def _binomial_two_sided(k: int, t: int, q: float, log_fact: np.ndarray) -> float:
    """Two-sided exact p-value of k successes in t Binomial(t, q) trials:
    the total probability of every outcome no likelier than k."""
    j = np.arange(t + 1)
    with np.errstate(divide="ignore"):
        log_pmf = log_fact[t] - log_fact[j] - log_fact[t - j] + j * np.log(q) + (t - j) * np.log1p(-q)
    pmf = np.exp(log_pmf)
    return min(1.0, float(pmf[pmf <= pmf[k] * (1 + 1e-7)].sum()))


def proportions_check(x_a, n_a: int, x_b, n_b: int, alpha: float) -> Check:
    """Per-bin check that x_a[i] successes in n_a trials and x_b[i] in n_b
    trials share one success probability.

    Given the bin's total t = x_a[i] + x_b[i], equal probabilities make
    x_a[i] Binomial(t, n_a / (n_a + n_b)); each bin's p-value is that exact
    test's, and the check's p-value is the smallest, times the number of
    bins with t > 0 (Bonferroni).  The statistic is that number of bins.
    """
    x_a, x_b = np.asarray(x_a, dtype=np.int64), np.asarray(x_b, dtype=np.int64)
    if x_a.shape != x_b.shape:
        raise ValueError(f"bin counts differ in shape: {x_a.shape} vs {x_b.shape}")
    totals = x_a + x_b
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, int(totals.max(initial=0)) + 1)))))
    q = n_a / (n_a + n_b)
    used = np.flatnonzero(totals)
    p_min = min(
        (_binomial_two_sided(int(x_a[i]), int(totals[i]), q, log_fact) for i in used), default=1.0
    )
    return Check(float(len(used)), min(1.0, p_min * max(1, len(used))), alpha)


def binned_check(a, b, alpha: float, bins=None) -> Check:
    """Two samples of a discrete quantity, binned (one bin per integer value
    when ``bins`` is None, else ``np.histogram`` bin edges), checked bin by
    bin with ``proportions_check``."""
    a, b = np.asarray(a), np.asarray(b)
    if bins is None:
        lo = int(min(a.min(), b.min()))
        x_a = np.bincount(a - lo)
        x_b = np.bincount(b - lo, minlength=len(x_a))
        x_a = np.pad(x_a, (0, len(x_b) - len(x_a)))
    else:
        x_a, _ = np.histogram(a, bins)
        x_b, _ = np.histogram(b, bins)
    return proportions_check(x_a, len(a), x_b, len(b), alpha)
