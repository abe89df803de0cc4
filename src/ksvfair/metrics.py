"""Fair-target policy, fairness regret, and merit-to-selection diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rounding import MarginalVector, normalize_to_marginals


@dataclass(frozen=True)
class FairnessLedger:
    """Per-round L1 distance to the fair policy and its running total."""

    l1: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.l1, dtype=float)
        if arr.ndim != 1:
            raise ValueError("per-round distances must be a 1-d array")
        object.__setattr__(self, "l1", arr)

    @property
    def fr_cum(self) -> np.ndarray:
        return np.cumsum(self.l1)

    @property
    def n_rounds(self) -> int:
        return len(self.l1)

    @classmethod
    def from_run(cls, pi_star, pi_rounds) -> "FairnessLedger":
        """Build from a fair vector and a (rounds, M) matrix of played policies."""
        star = np.asarray(pi_star, float)
        mat = np.asarray(pi_rounds, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != len(star):
            raise ValueError("policy matrix must be (rounds, M) matching the fair vector")
        diff = mat - star
        return cls(np.abs(diff, out=diff).sum(axis=1))


def fair_policy(true_phi, K: int) -> MarginalVector:
    """Merit-proportional selection probabilities: K * phi / sum(phi), capped at 1.

    Negative values (possible for adversarial games) are clipped to 0 first,
    matching the [0, 1] convention the bandit analysis assumes.
    """
    clipped = np.maximum(np.asarray(true_phi, float), 0.0)
    if clipped.sum() <= 0:
        raise ValueError("all values are zero or negative; no fair policy exists")
    return MarginalVector(normalize_to_marginals(clipped, K))


def merit_to_selection(true_phi, counts, total_rounds: int) -> np.ndarray:
    """Per-arm value divided by empirical selection frequency.

    Arms never selected get NaN rather than infinity so downstream
    aggregation can treat them as undefined.
    """
    if total_rounds <= 0:
        raise ValueError("total_rounds must be positive")
    phi = np.asarray(true_phi, float)
    n = np.asarray(counts, dtype=float)
    if phi.shape != n.shape:
        raise ValueError("values and counts must align")
    freq = n / total_rounds
    out = np.full(len(phi), np.nan)
    nonzero = n > 0
    out[nonzero] = phi[nonzero] / freq[nonzero]
    return out


def regret_slope(ledger: FairnessLedger) -> float:
    """Least-squares slope of log cumulative regret against log round index.

    Fitted over the second half of the run only, where transients have
    decayed; a sublinear-regret policy shows a slope well below 1 there.
    """
    n = ledger.n_rounds
    if n < 100:
        raise ValueError(f"need at least 100 rounds, got {n}")
    fr = ledger.fr_cum
    start = n // 2
    window = fr[start:]
    if np.any(window <= 0):
        raise ValueError("cumulative regret is zero in the fit window; slope undefined")
    t = np.arange(start + 1, n + 1, dtype=float)
    slope, _ = np.polyfit(np.log(t), np.log(window), 1)
    return float(slope)
