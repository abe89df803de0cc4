"""Sampling exactly-K subsets whose inclusion frequencies match target marginals.

Scores are normalized to probabilities summing to K (capping any entry above
1 and redistributing the excess), then the systematic sampler draws subsets
of exactly K arms with those marginals, with no independence assumptions.
"""

import numpy as np

from ksvfair import normalize_to_marginals, rrs_sample

np.set_printoptions(precision=4, suppress=True)

raw = np.array([0.9, 0.05, 0.05])
probs = normalize_to_marginals(raw, K=2)
print("scores", raw, "-> marginals", probs, "(note the cap at 1)")

pi = normalize_to_marginals(np.array([0.9, 0.6, 0.3, 0.2]), K=2)
print("\ntarget marginals:", pi)

rng = np.random.default_rng(0)
n = 50_000
counts = np.zeros(4)
for _ in range(n):
    S = rrs_sample(pi, 2, rng)
    assert len(S) == 2
    counts[list(S)] += 1
freq = counts / n
sd = np.sqrt(pi * (1 - pi) / n)
print("empirical frequencies:", freq)
print("z-scores vs target:   ", (freq - pi) / sd)
print(f"\nevery draw has exactly K members; frequencies match within noise")
