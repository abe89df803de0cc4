"""Sampling exactly-K subsets with prescribed per-arm inclusion probabilities.

The sampler is systematic: permute the arms, lay their probabilities end to
end on [0, K), and slice with K points spaced exactly one apart at a random
offset.  Total mass K gives exactly K picks; entries capped at 1 make a
double pick impossible; each arm's interval length equals its probability,
so marginals are matched exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-9


class RepeatedPickError(ValueError):
    """The systematic sampler landed two cut points in one arm's interval."""


def _check_marginals(p: np.ndarray) -> float:
    """Validate a probability vector; returns its total."""
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("probs must be a nonempty 1-d array")
    if p.min() < -SUM_TOL or p.max() > 1 + SUM_TOL:
        raise ValueError("entries must lie in [0, 1]")
    total = float(p.sum())
    if abs(total - round(total)) > SUM_TOL:
        raise ValueError(f"entries must sum to an integer budget, got {total}")
    return total


@dataclass(frozen=True)
class MarginalVector:
    """Per-arm inclusion probabilities summing to an integer budget."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        _check_marginals(p)
        object.__setattr__(self, "probs", p)


def normalize_to_marginals(raw, K: int) -> np.ndarray:
    """Scale nonnegative scores to inclusion probabilities summing to K.

    Starts from K * raw / sum(raw); any entry above 1 is capped and the
    excess mass is redistributed proportionally over the uncapped entries,
    iterating until all entries fit (water-filling).  Zero scores stay at
    probability zero, so at least K entries must be positive; otherwise no
    valid vector exists and a ValueError is raised, as it is for scores
    whose sum is not finite.  The result preserves the ranking of the raw
    scores up to ties created by capping.  The array is valid by
    construction; ``rrs_sample`` checks what it is given.
    """
    raw = np.asarray(raw, dtype=float)
    M = len(raw)
    if (raw < 0).any():
        raise ValueError("raw scores must be nonnegative")
    if not 1 <= K <= M:
        raise ValueError(f"need 1 <= K <= M, got K={K}, M={M}")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected just below
        total = float(raw.sum())
    if not 0 < total < np.inf:  # a NaN score or an overflowing sum fails too
        raise ValueError(f"raw scores must have a positive finite sum, got {total}")
    support = int(np.count_nonzero(raw))
    if support < K:
        raise ValueError(
            f"only {support} positive scores but K={K}; marginals <= 1 cannot sum to K"
        )
    probs = K * raw / total
    capped = np.zeros(M, dtype=bool)
    while True:
        over = (probs > 1.0) & ~capped
        if not over.any():
            break
        capped |= over
        probs[capped] = 1.0
        free = ~capped
        mass = K - int(capped.sum())
        free_total = float(raw[free].sum())
        if mass <= 0 or free_total <= 0:
            probs[free] = 0.0
            break
        probs[free] = mass * raw[free] / free_total
    # absorb float drift into the largest uncapped entry; whatever the cap at 1
    # leaves over moves on to the next largest uncapped entry with room
    drift = K - float(probs.sum())
    if drift != 0.0:
        free_idx = np.flatnonzero(~capped & (probs > 0))
        for target in free_idx[np.argsort(-probs[free_idx], kind="stable")]:
            shifted = probs[target] + drift
            probs[target] = min(shifted, 1.0)
            drift = shifted - probs[target]
            if drift == 0.0:
                break
    return probs


def rrs_sample(pi, K: int, rng) -> tuple[int, ...]:
    """Draw exactly K distinct arms with inclusion probabilities matching pi."""
    probs = np.asarray(pi, dtype=float)
    total = _check_marginals(probs)
    if abs(total - K) > SUM_TOL:
        raise ValueError(f"marginals sum to {total}, expected budget {K}")
    perm = rng.permutation(len(probs))
    # entries may sit up to SUM_TOL outside [0, 1]; clip before laying them end to end
    cuts = probs[perm].clip(0.0, 1.0).cumsum()
    cuts[-1] = K
    picked = np.sort(perm[cuts.searchsorted(rng.random() + np.arange(K), side="right")]).tolist()
    if len(set(picked)) < K:
        raise RepeatedPickError(
            f"arm picked twice in {tuple(picked)}; marginals drifted off their sum"
        )
    return tuple(picked)
