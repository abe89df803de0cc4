"""Independent oracles for cross-checking the library's value computations.

These deliberately take different routes than the library: the dividend
oracle goes through the Moebius transform and the carrier decomposition,
the definitional oracle averages within-coalition values over every
budget-sized coalition, the prefix oracle brute-forces orderings, and the
BFS cascade oracle tries each neighbour in turn instead of drawing live
edges.  Keep them slow and obvious.

The scalar estimators and sampler are the library's earlier one-tuple-at-a-
time code, kept so the array versions can be checked against them exactly:
same estimates, same pull counts and the same generator state afterwards.

The collapsed oracle counts enclosing coalitions instead of enumerating
them.  The library's ``exact_k_shapley`` now uses that same collapsed sum,
so agreement with it checks the vectorization only, not the formula; the
dividend and definitional oracles are the independent checks.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np


def moebius_dividends(game) -> dict[tuple[int, ...], float]:
    """Dividend of every feasible nonempty coalition: sum over subsets with signs."""
    M, K = game.n_arms, game.budget
    out: dict[tuple[int, ...], float] = {}
    for size in range(1, K + 1):
        for D in itertools.combinations(range(M), size):
            total = 0.0
            for k in range(size + 1):
                for E in itertools.combinations(D, k):
                    total += (-1) ** (size - k) * game.value(E)
            out[D] = total
    return out


def dividend_k_shapley(game) -> np.ndarray:
    """Value via the carrier decomposition: dividends split equally, scaled
    by how many budget-sized coalitions enclose the carrier.

    Rests on two facts checked separately in the test suite: the value is
    linear in the game, and a carrier coalition's worth splits as
    dividend * C(M-|D|, K-|D|) / (|D| * C(M-1, K-1)) among its members.
    """
    M, K = game.n_arms, game.budget
    denom = math.comb(M - 1, K - 1)
    phi = np.zeros(M)
    for D, lam in moebius_dividends(game).items():
        share = lam * math.comb(M - len(D), K - len(D)) / (len(D) * denom)
        for i in D:
            phi[i] += share
    return phi


def collapsed_k_shapley(game) -> np.ndarray:
    """Single sum over small subsets, weighting by the count of enclosing coalitions."""
    M, K = game.n_arms, game.budget
    fact = [math.factorial(j) for j in range(K + 1)]
    denom = math.comb(M - 1, K - 1) * fact[K]
    phi = np.zeros(M)
    for i in range(M):
        others = [a for a in range(M) if a != i]
        acc = 0.0
        for s in range(K):
            w = fact[s] * fact[K - s - 1] * math.comb(M - 1 - s, K - 1 - s)
            for S in itertools.combinations(others, s):
                acc += w * (
                    game.value(tuple(sorted(S + (i,)))) - game.value(S)
                )
        phi[i] = acc / denom
    return phi


def definitional_k_shapley(game) -> np.ndarray:
    """Value straight from the definition: for each arm, average its
    within-coalition Shapley value over the budget-sized coalitions that
    contain it, expanding each one over every subset of its other members."""
    M, K = game.n_arms, game.budget
    fact = [math.factorial(j) for j in range(K + 1)]
    weights = [fact[s] * fact[K - s - 1] / fact[K] for s in range(K)]
    masks = [[j for j in range(K - 1) if mask >> j & 1] for mask in range(1 << (K - 1))]
    phi = np.zeros(M)
    for i in range(M):
        others = [a for a in range(M) if a != i]
        acc = 0.0
        for rest in itertools.combinations(others, K - 1):
            for bits in masks:
                S = tuple(rest[j] for j in bits)
                acc += weights[len(S)] * (game.value(tuple(sorted(S + (i,)))) - game.value(S))
        phi[i] = acc / math.comb(M - 1, K - 1)
    return phi


def prefix_shapley_within(value_fn, members) -> dict[int, float]:
    """Within-coalition Shapley by enumerating every ordering of ``members``."""
    members = list(members)
    out = {a: 0.0 for a in members}
    n_perms = math.factorial(len(members))
    for perm in itertools.permutations(members):
        prefix: list[int] = []
        prev = float(value_fn(()))
        for a in perm:
            prefix.append(a)
            cur = float(value_fn(tuple(sorted(prefix))))
            out[a] += (cur - prev) / n_perms
            prev = cur
    return out


def bfs_cascade_pull(graph, p: float, S, rng) -> float:
    """One independent cascade by breadth-first search: every newly active
    node tries each inactive neighbour once, with a fresh coin per try.
    Returns the activated fraction of the graph."""
    adjacency: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    for u, v in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    active = [False] * graph.n_nodes
    for node in S:
        active[node] = True
    frontier = list(S)
    n_active = len(frontier)
    while frontier:
        new: list[int] = []
        for node in frontier:
            for nbr in adjacency[node]:
                if not active[nbr] and rng.random() < p:
                    active[nbr] = True
                    new.append(nbr)
        n_active += len(new)
        frontier = new
    return n_active / graph.n_nodes


def random_table_game(M: int, K: int, rng):
    """Frozen random game: every feasible coalition gets an independent worth in [0, 1]."""
    from ksvfair import table_game

    table = {}
    for size in range(1, K + 1):
        for S in itertools.combinations(range(M), size):
            table[S] = float(rng.random())
    return table_game(M, K, table)


def _set_masks(sets, M: int) -> np.ndarray:
    """Membership matrix with one row per coalition tuple, in order."""
    masks = np.zeros((len(sets), M), dtype=bool)
    for row, S in zip(masks, sets):
        row[list(S)] = True
    return masks


def scalar_shapley_estimation(S, oracle, R, L, rng, *, reuse_prefix=False, permutations=None):
    """Permutation-sampling estimate built prefix by prefix as sorted tuples.

    Returns ``estimates`` and ``squares`` as dicts over the members of S.
    """
    members = [int(a) for a in S]
    if permutations is None:
        perms = [[members[j] for j in rng.permutation(len(members))] for _ in range(R)]
    else:
        perms = [list(p) for p in permutations]
        R = len(perms)

    sets: list[tuple[int, ...]] = []
    for perm in perms:
        prefix: list[int] = []
        for a in perm:
            if not reuse_prefix or not prefix:
                sets.append(tuple(sorted(prefix)))
            sets.append(tuple(sorted(prefix + [a])))
            prefix.append(a)
    means = oracle.pull_mean_many(_set_masks(sets, oracle.n_arms), L, rng)

    est = {a: 0.0 for a in members}
    sq = {a: 0.0 for a in members}
    idx = 0
    for perm in perms:
        prev = None
        for a in perm:
            if not reuse_prefix or prev is None:
                base = means[idx]
                idx += 1
            else:
                base = prev
            with_a = means[idx]
            idx += 1
            d = with_a - base
            est[a] += d / R
            sq[a] += d * d / R
            prev = with_a
    if reuse_prefix:
        pulls = R * (len(members) + 1) * L
    else:
        pulls = R * len(members) * 2 * L
    return SimpleNamespace(estimates=est, squares=sq, n_perms=R, pulls_consumed=pulls)


def scalar_muras_round(oracle, M, K, L, rng):
    """One uniform round built as sorted tuples; dict estimates over all arms."""
    order = rng.permutation(M)
    positions = np.sort(rng.choice(M, size=K, replace=False))
    in_order = [int(order[j]) for j in positions]
    coalition = tuple(sorted(in_order))
    chosen = set(in_order)
    outside = [int(a) for a in order if int(a) not in chosen]

    sets: list[tuple[int, ...]] = []
    for j, a in enumerate(in_order):
        prefix = in_order[:j]
        sets.append(tuple(sorted(prefix)))
        sets.append(tuple(sorted(prefix + [a])))
    for a in outside:
        sets.append(coalition)
        sets.append(tuple(sorted(coalition + (a,))))
    means = oracle.pull_mean_many(_set_masks(sets, M), L, rng)

    est: dict[int, float] = {}
    sq: dict[int, float] = {}
    idx = 0
    for a in in_order + outside:
        d = float(means[idx + 1] - means[idx])
        est[a], sq[a] = d, d * d
        idx += 2
    return SimpleNamespace(
        estimates=est, squares=sq, n_perms=1, pulls_consumed=2 * L * M, coalition=coalition
    )


def scalar_rrs_sample(pi, K: int, rng) -> tuple[int, ...]:
    """Systematic sampler that builds a MarginalVector and checks picks pairwise."""
    from ksvfair import MarginalVector, RepeatedPickError

    probs = MarginalVector(np.asarray(pi, dtype=float)).probs
    total = float(probs.sum())
    if abs(total - K) > 1e-9:
        raise ValueError(f"marginals sum to {total}, expected budget {K}")
    probs = np.clip(probs, 0.0, 1.0)
    perm = rng.permutation(len(probs))
    cuts = np.cumsum(probs[perm])
    cuts[-1] = float(K)
    offset = rng.random()
    points = offset + np.arange(K)
    picked = tuple(sorted(perm[np.searchsorted(cuts, points, side="right")].tolist()))
    if any(picked[j] == picked[j + 1] for j in range(K - 1)):
        raise RepeatedPickError(f"arm picked twice in {picked}")
    return picked
