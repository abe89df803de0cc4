"""Independent oracles for cross-checking the library's value computations.

These deliberately take different routes than the library: the dividend
oracle goes through the Moebius transform and the carrier decomposition,
the definitional oracle averages within-coalition values over every
budget-sized coalition, the prefix oracle brute-forces orderings, and the
BFS cascade oracle tries each neighbour in turn instead of drawing live
edges.  Keep them slow and obvious.

The collapsed oracle counts enclosing coalitions instead of enumerating
them.  The library's ``exact_k_shapley`` now uses that same collapsed sum,
so agreement with it checks the vectorization only, not the formula; the
dividend and definitional oracles are the independent checks.
"""

from __future__ import annotations

import itertools
import math

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
