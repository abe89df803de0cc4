"""Monte-Carlo marginal-contribution estimation from noisy coalition pulls.

Two estimators live here.  ``shapley_estimation`` works within a selected
coalition: it walks random orderings and credits each member with smoothed
prefix marginals.  ``muras_round`` covers every arm in one shot: members of
a uniformly drawn coalition get prefix marginals, outsiders get their
marginal on top of the full coalition (which touches a coalition one past
the budget, so the oracle must allow the extra query size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import checked_coalition


@dataclass(frozen=True, eq=False)
class RoundEstimates:
    """Per-arm estimates from one estimation call, as length-M arrays.

    ``estimates[a]`` is arm a's mean marginal over the sampled orderings;
    ``squares[a]`` the matching mean of squared per-ordering marginals
    (lets callers pool variances across rounds).  Both are NaN outside
    ``arms``, the sorted ids of the estimated arms.  ``n_perms`` is the
    number of orderings behind each mean.  ``pulls_consumed`` counts every
    oracle pull the call made, with no sharing assumed.
    """

    estimates: np.ndarray
    squares: np.ndarray
    arms: np.ndarray
    n_perms: int
    pulls_consumed: int
    coalition: tuple[int, ...] | None = None


def pull_cost(n_marginals: int, L: int) -> int:
    """Literal pulls of an estimation call: every marginal is the difference
    of two fresh L-pull means.  A ``shapley_estimation`` call on a k-arm
    coalition estimates R * k marginals, a ``muras_round`` on M arms M."""
    return 2 * L * n_marginals


def _prefix_chains(orders: np.ndarray, M: int, sizes: np.ndarray) -> np.ndarray:
    """(R, len(sizes), M) membership of each ordering's prefixes of each given size.

    An arm is in the size-p prefix when its position in the ordering is
    below p; arms outside the ordering get position k and join no prefix.
    """
    R, k = orders.shape
    position = np.full((R, M), k, dtype=np.intp)
    position[np.arange(R)[:, None], orders] = np.arange(k)
    return position[:, None, :] < sizes[:, None]


def shapley_estimation(S, oracle, R: int, L: int, rng) -> RoundEstimates:
    """Estimate within-coalition marginals for every member of S.

    Draws R orderings of S uniformly with replacement, as one
    ``rng.permuted`` call on R rows of positions in S.  For each ordering
    and each member, the values of the prefix with and without the member
    are estimated as means of L fresh pulls each, and the differences are
    averaged over orderings.  Pull accounting is literal (``pull_cost``),
    every prefix value drawn independently.

    All prefixes go to the oracle as one membership matrix, from one
    comparison, ordering by ordering: without- then with-member row per
    position.  A coalition the oracle would reject raises before any draw.
    """
    members = list(S)
    k, M = len(members), oracle.n_arms
    if k == 0:
        raise ValueError("cannot estimate an empty coalition")
    coalition = checked_coalition(members, M, oracle.query_limit, "query limit")
    arms = np.array(coalition, dtype=np.intp)
    # the caller's order, not the sorted one, decides which arm each permuted index names
    members = np.array(members, dtype=np.intp)
    if R < 1 or L < 1:
        raise ValueError("R and L must be >= 1")
    orders = members[rng.permuted(np.arange(k)[None].repeat(R, 0), axis=1)]

    # prefix sizes 0, 1, 1, 2, 2, ..., k: each position's without/with pair
    masks = _prefix_chains(orders, M, np.arange(1, 2 * k + 1) // 2).reshape(-1, M)
    pairs = oracle.pull_mean_many(masks, L, rng).reshape(R, k, 2)
    d = pairs[..., 1] - pairs[..., 0]
    # bincount adds each arm's terms in ordering order, like a running sum
    flat = orders.ravel()
    est = np.bincount(flat, weights=(d / R).ravel(), minlength=M)
    sq = np.bincount(flat, weights=(d * d / R).ravel(), minlength=M)
    outside = np.ones(M, dtype=bool)
    outside[members] = False
    est[outside] = sq[outside] = np.nan
    return RoundEstimates(est, sq, arms, R, pull_cost(R * k, L), coalition=coalition)


def muras_round(oracle, L: int, rng) -> RoundEstimates:
    """One uniform-sampling estimation round covering all M arms.

    Reads M and K from the oracle's ``n_arms`` and ``budget``.  Samples a
    random ordering of all arms, keeps a uniform K-subsequence S (relative
    order preserved).  Arms inside S get prefix marginals along S; arms
    outside get the marginal of joining the full S, a coalition of size
    K + 1, which the oracle must accept.  Every marginal is the mean of L
    paired fresh pulls, so the round consumes 2 * L * M pulls.
    """
    M, K = oracle.n_arms, oracle.budget
    if L < 1:
        raise ValueError("L must be >= 1")
    order = rng.permutation(M)
    positions = np.sort(rng.choice(M, size=K, replace=False))
    in_order = order[positions]
    chain = _prefix_chains(in_order[None, :], M, np.arange(K + 1))[0]
    inside = chain[-1]
    outside = order[~inside[order]]
    # one (without, with) pair of rows per arm: members along the chain,
    # then each outsider on top of the full coalition
    pairs = np.empty((M, 2, M), dtype=bool)
    pairs[:K, 0], pairs[:K, 1] = chain[:-1], chain[1:]
    pairs[K:] = inside
    pairs[np.arange(K, M), 1, outside] = True
    means = oracle.pull_mean_many(pairs.reshape(2 * M, M), L, rng).reshape(M, 2)
    est = np.empty(M)
    est[np.concatenate((in_order, outside))] = means[:, 1] - means[:, 0]
    coalition = tuple(np.flatnonzero(inside).tolist())
    return RoundEstimates(est, est * est, np.arange(M), 1, pull_cost(M, L), coalition)
