"""Monte-Carlo estimation of within-coalition marginals from noisy pulls.

The estimator walks random orderings of a coalition and smooths each prefix
value with repeated pulls.  With more orderings (R) the ordering noise
vanishes; with more pulls per prefix (L) the reward noise vanishes.  The
combined two-term confidence radius bounds both at once.
"""

import itertools
import math

import numpy as np

from ksvfair import SyntheticEnv, confidence_radius, shapley_estimation

np.set_printoptions(precision=4, suppress=True)

means = np.linspace(0.25, 0.9, 6)
# every arm has noise level 0.2, so every coalition's reward noise is 0.2 too
env = SyntheticEnv(means, np.full(6, 0.2), budget=4, curvature=1.5)
S = (0, 2, 3, 5)

# ground truth: within-coalition value by enumerating all orderings; like
# the estimates, it is indexed by arm and NaN outside the coalition
truth = np.full(env.n_arms, np.nan)
truth[list(S)] = 0.0
for perm in itertools.permutations(S):
    prev, prefix = 0.0, []
    for a in perm:
        prefix.append(a)
        cur = env.exact(tuple(sorted(prefix)))
        truth[a] += (cur - prev) / math.factorial(len(S))
        prev = cur
print("exact within-coalition values:", truth)

print(f"\n{'R':>5} {'L':>4} {'max err':>9} {'radius':>8}")
for R, L in [(20, 5), (100, 20), (500, 50), (2000, 100)]:
    est = shapley_estimation(S, env, R, L, np.random.default_rng(0))
    err = np.abs(est.estimates[est.arms] - truth[est.arms]).max()
    radius = confidence_radius(1, R, L, env.n_arms, 0.05, 0.05)
    print(f"{R:>5} {L:>4} {err:>9.4f} {radius:>8.3f}")
print("last estimates:", est.estimates)

print("\npull accounting is literal: R * |S| * 2 * L per call")
est = shapley_estimation(S, env, 50, 10, np.random.default_rng(1))
print("  R=50, L=10, |S|=4 ->", est.pulls_consumed, "pulls")
