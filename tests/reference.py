"""Independent oracles for cross-checking the library's value computations.

These deliberately take different routes than the library: the dividend
oracle goes through the Moebius transform and the carrier decomposition,
the definitional oracle averages within-coalition values over every
budget-sized coalition, the prefix oracle brute-forces orderings, and the
BFS cascade oracle tries each neighbour in turn instead of drawing live
edges, and the live-edge walk follows one world's live edges node by node.
Keep them slow and obvious.

The scalar estimators and sampler are the library's earlier one-tuple-at-a-
time code, kept so the array versions can be checked against them exactly:
same estimates, same pull counts and the same generator state afterwards.
The scalar fair-target sampler is ``sampled_k_shapley``'s earlier loop, with
its numpy-scalar per-arm sums and one-pass population variance, and the
marginal replay lists each arm's prefix marginals from a worth table, so the
sampler's values and its ddof-1 standard errors can be pinned separately.

The round-by-round stop rule is the runners' earlier ``while`` loop over
``_round_allowed``, kept so the up-front schedule can be checked against it.
``reference_run_ksvfair`` writes the optimistic merit loop in plain floats
from the paper and the docstrings (warm-up, radii, optimistic values,
water-filling, running means and pools) over the scalar estimator and
sampler, making the library's generator calls in the library's order.

The CSV writers and the scalar Gaussian pull are the library's earlier
``csv.writer`` + ``format(x, ".12g")`` writers and ``np.clip`` pull, kept so
the faster code can be pinned to them byte for byte and bit for bit.  The
comparison writer reads the finished runs with ``csv.DictReader`` itself,
not through the library's readers.

``cascade_exact`` is the library's earlier public n-world cascade mean, a
thin wrapper over the spread mean that ``pull`` and ``exact`` share, and
``FixedOrderings`` hands ``shapley_estimation`` chosen orderings through
its generator, so exhaustive-ordering tests need no library keyword.

The frontier sweep is the library's earlier level-by-level cascade kernel,
kept so the component-labelling kernel can be pinned to it count for count.
The gap walk draws one world's live edges one uniform at a time, so the
array draw of geometric gaps can be pinned to it edge for edge.

``table_game`` and ``GameOracle`` are the library's earlier table-backed
game and noisy game wrapper, kept as fixtures: any game as an oracle, with
the synthetic environment's clipped-normal pull and draw.

The collapsed oracle counts enclosing coalitions instead of enumerating
them.  The library's ``exact_k_shapley`` now uses that same collapsed sum,
so agreement with it checks the vectorization only, not the formula; the
dividend and definitional oracles are the independent checks.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from ksvfair.envs import SyntheticEnv, ValuationOracle, _segments, _spread_mean
from ksvfair.games import RestrictedGame, ShapleyVector


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


def live_edge_spread(graph, live_row, S) -> int:
    """Nodes reachable from S in one world, walking the live edges of
    ``graph.edges`` (``live_row[i]`` says whether edge i is live)."""
    adjacency: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    for (u, v), is_live in zip(graph.edges, live_row):
        if is_live:
            adjacency[u].append(v)
            adjacency[v].append(u)
    seen = set(S)
    stack = list(seen)
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen)


def gap_live_row(n_edges: int, p: float, block: int, rng) -> list[bool]:
    """One world's live edges, walked gap by gap in Python floats: draw
    ``block`` uniforms at a time, step 1 + floor(log1p(-u) / log1p(-p))
    edges per uniform, mark each edge landed on, and stop drawing once a
    block ends at or past the last edge.  For 0 < p < 1."""
    live = [False] * n_edges
    position = -1
    while position < n_edges - 1:
        for u in rng.random(block).tolist():
            position += 1 + math.floor(math.log1p(-u) / math.log1p(-p))
            if position < n_edges:
                live[position] = True
    return live


def frontier_spread_counts(env, S, live: np.ndarray) -> np.ndarray:
    """The earlier ``CascadeEnv._spread_counts``: worlds swept together as one
    graph on nodes w * n + v, one frontier level per pass."""
    n_worlds, n = live.shape[0], env.n_arms
    ends = np.asarray(env.graph.edges, dtype=np.intp).reshape(-1, 2)
    world, edge = np.divmod(np.flatnonzero(live), live.shape[1])
    u, v = ends[edge].T + world * n
    # each live edge as two arcs, u -> v and v -> u
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    active = np.zeros(n_worlds * n, dtype=bool)
    active[(np.arange(n_worlds)[:, None] * n + np.asarray(S)).ravel()] = True
    frontier = active
    while True:
        reached = np.zeros_like(active)
        reached[dst[frontier[src]]] = True
        frontier = np.greater(reached, active, out=reached)  # reached and not yet active
        if not frontier.any():
            break
        active |= frontier
    return np.count_nonzero(active.reshape(n_worlds, n), axis=1)


def cascade_exact(env, members, n_sims: int, rng) -> float:
    """Mean activated fraction over n_sims cascades from a seed set, drawn
    as n_sims successive ``env.pull`` calls would draw them: the library's
    n-world spread mean, which ``pull`` runs at one world and ``exact`` at
    ``exact_sims`` worlds."""
    return _spread_mean(env, env._checked(members), n_sims, rng)


def table_game(n_arms: int, budget: int, table: dict) -> RestrictedGame:
    """Game backed by an explicit coalition -> worth table (missing entries are 0)."""
    tbl = {tuple(sorted(map(int, S))): float(v) for S, v in table.items()}
    return RestrictedGame(n_arms, budget, lambda S: tbl.get(S, 0.0))


def random_table_game(M: int, K: int, rng):
    """Frozen random game: every feasible coalition gets an independent worth in [0, 1]."""
    table = {}
    for size in range(1, K + 1):
        for S in itertools.combinations(range(M), size):
            table[S] = float(rng.random())
    return table_game(M, K, table)


def scalar_sampled_k_shapley(valuation, n_arms: int, budget: int, n_samples: int, rng) -> ShapleyVector:
    """The library's earlier ``sampled_k_shapley``: per prefix, a numpy-scalar
    ``sums[a] += d`` and ``sqs[a] += d * d``; stderr from the one-pass
    population variance, so an arm drawn once reports 0."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    M, K = int(n_arms), int(budget)
    orders = []
    for _ in range(n_samples):
        coalition = rng.choice(M, size=K, replace=False)
        orders.append(coalition[rng.permutation(K)])
    hits = np.bincount(np.concatenate(orders), minlength=M)
    if np.any(hits == 0):
        missing = np.flatnonzero(hits == 0)
        raise ValueError(f"arms {missing.tolist()} never sampled; increase n_samples")
    sums = np.zeros(M)
    sqs = np.zeros(M)
    worth: dict[tuple[int, ...], float] = {}
    for order in orders:
        prev = 0.0
        prefix: list[int] = []
        for a in order:
            prefix.append(int(a))
            S = tuple(sorted(prefix))
            cur = worth.get(S)
            if cur is None:
                cur = worth[S] = float(valuation(S))
            d = cur - prev
            sums[a] += d
            sqs[a] += d * d
            prev = cur
    mean = sums / hits
    var = np.maximum(sqs / hits - mean**2, 0.0)
    stderr = np.sqrt(var / hits)
    return ShapleyVector(mean, "estimated", stderr=stderr)


def sampled_marginals(worth: dict, n_arms: int, budget: int, n_samples: int, rng) -> list[list[float]]:
    """Each arm's prefix marginals, in draw order, for the sampler's draws
    from ``rng``, with every prefix looked up in ``worth`` (sorted tuple ->
    value) rather than valued."""
    out: list[list[float]] = [[] for _ in range(n_arms)]
    for _ in range(n_samples):
        order = rng.choice(n_arms, size=budget, replace=False)[rng.permutation(budget)]
        prev = 0.0
        for j in range(1, budget + 1):
            cur = worth[tuple(sorted(order[:j].tolist()))]
            out[int(order[j - 1])].append(cur - prev)
            prev = cur
    return out


def _set_masks(sets, M: int) -> np.ndarray:
    """Membership matrix with one row per coalition tuple, in order."""
    masks = np.zeros((len(sets), M), dtype=bool)
    for row, S in zip(masks, sets):
        row[list(S)] = True
    return masks


class FixedOrderings:
    """A generator whose ``permuted`` returns the given orderings of the
    coalition S, as positions in S, and which forwards every other draw to
    ``rng``: ``shapley_estimation`` on S then walks exactly those orderings,
    one per row, and draws its pulls from ``rng``."""

    def __init__(self, S, orderings, rng):
        members = list(S)
        self.positions = np.array([[members.index(a) for a in p] for p in orderings], dtype=np.intp)
        self.rng = rng

    def permuted(self, x, axis):
        assert axis == 1 and np.shape(x) == self.positions.shape
        return self.positions

    def __getattr__(self, name):
        return getattr(self.rng, name)


def scalar_shapley_estimation(S, oracle, R, L, rng, *, permutations=None):
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
            sets.append(tuple(sorted(prefix)))
            sets.append(tuple(sorted(prefix + [a])))
            prefix.append(a)
    means = oracle.pull_mean_many(_set_masks(sets, oracle.n_arms), L, rng)

    est = {a: 0.0 for a in members}
    sq = {a: 0.0 for a in members}
    idx = 0
    for perm in perms:
        for a in perm:
            d = means[idx + 1] - means[idx]
            idx += 2
            est[a] += d / R
            sq[a] += d * d / R
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


def scalar_normalize_to_marginals(raw, K: int) -> list[float]:
    """Water-filling in plain floats: scale to sum K, cap entries above 1 and
    rescale the uncapped rest until none exceeds 1, then add the float drift
    to the largest uncapped entries, each up to the cap.  Sums run left to
    right, which need not be numpy's order."""
    M = len(raw)
    probs = [K * r / sum(raw) for r in raw]
    capped = [False] * M
    while any(p > 1.0 and not c for p, c in zip(probs, capped)):
        capped = [c or p > 1.0 for p, c in zip(probs, capped)]
        mass = K - sum(capped)
        free_total = sum(r for r, c in zip(raw, capped) if not c)
        stuck = mass <= 0 or free_total <= 0  # nothing left to share: the rest get 0
        probs = [1.0 if c else 0.0 if stuck else mass * r / free_total for r, c in zip(raw, capped)]
        if stuck:
            break
    drift = K - sum(probs)
    if drift != 0.0:
        free = [a for a in range(M) if not capped[a] and probs[a] > 0]
        for a in sorted(free, key=lambda a: -probs[a]):
            shifted = probs[a] + drift
            probs[a] = min(shifted, 1.0)
            drift = shifted - probs[a]
            if drift == 0.0:
                break
    return probs


def reference_run_ksvfair(cfg, oracle, rng, seed=None) -> SimpleNamespace:
    """``run_ksvfair`` round by round in plain floats, over
    ``scalar_shapley_estimation`` and ``scalar_rrs_sample``.

    Rounds 1..ceil(M/K) play K consecutive arms mod M, one ordering at one
    pull per mean.  Every later round forms each arm's optimistic value
    min(mean + radius, 1), water-fills it into marginals summing to K, draws
    the coalition and estimates it with R orderings of L pulls.  The radius
    is the two-term Hoeffding radius; in 'adaptive' mode an arm with two or
    more pooled marginals takes the smaller of it and the Bernstein bonus.
    Each round's estimates join the running means as one observation per
    member, clipped at 0, and their per-ordering sums join the pools.
    Returns the ``RunRecord`` fields as lists.
    """
    M, K, R, L = cfg.M, cfg.K, cfg.R, cfg.L
    warm = -(-M // K)
    costs = loop_round_costs(cfg, [2 * K] * warm, 2 * R * K * L)
    counts, mean = [0] * M, [0.0] * M
    pool_n, pool_sum, pool_sumsq = [0] * M, [0.0] * M, [0.0] * M
    pis, selected = [], []

    def radius(a):
        N = counts[a]
        first = math.sqrt(math.log(2 * M / cfg.delta1) / (N * (2 * R)))
        worst = first + 2 * math.sqrt(math.log(N * (4 * R * M) / cfg.delta2) / (2 * L))
        n = pool_n[a]
        if cfg.radius_mode == "worst_case" or n < 2:
            return worst
        m = pool_sum[a] / n
        var = max(pool_sumsq[a] / n - m * m, 0.0)
        logt = math.log(2 * M * (counts[a] + 1) / cfg.delta1)
        return min(worst, math.sqrt(2 * var * logt / n) + 2 * logt / n)

    for t in range(1, len(costs) + 1):
        if t <= warm:
            S = tuple(sorted(((t - 1) * K + j) % M for j in range(K)))
            est = scalar_shapley_estimation(S, oracle, 1, 1, rng)
            pi = [1.0 if a in S else 0.0 for a in range(M)]
        else:
            phi_plus = [min(mean[a] + radius(a), 1.0) for a in range(M)]
            pi = scalar_normalize_to_marginals(phi_plus, K)
            S = scalar_rrs_sample(np.array(pi), K, rng)
            est = scalar_shapley_estimation(S, oracle, R, L, rng)
        for a in S:
            value = float(est.estimates[a])
            mean[a] = (counts[a] * mean[a] + max(value, 0.0)) / (counts[a] + 1)
            counts[a] += 1
            pool_n[a] += est.n_perms
            pool_sum[a] += est.n_perms * value
            pool_sumsq[a] += est.n_perms * float(est.squares[a])
        pis.append(pi)
        selected.append([int(a in S) for a in range(M)])
    return SimpleNamespace(
        seed=seed,
        pi=pis,
        selected=selected,
        pulls=costs,
        counts=[sum(col) for col in zip(*selected)],
        est_phi=mean,
    )


def reference_run_muras(cfg, oracle, rng, seed=None) -> SimpleNamespace:
    """``muras_run`` round by round in plain floats, over
    ``scalar_muras_round``, ``scalar_normalize_to_marginals``,
    ``scalar_rrs_sample`` and ``scalar_shapley_estimation``.

    The first R rounds play the uniform marginals K/M and estimate every arm
    from one ordering; each estimate joins its arm's running mean as one
    observation, clipped at 0, and the round's coalition counts as selected.
    Every later round water-fills the running means into marginals, or plays
    K/M when fewer than K means are positive, draws the coalition and
    estimates it with R orderings of L pulls; each member's estimate joins
    its running mean as R observations.  Returns the ``RunRecord`` fields as
    lists.
    """
    M, K, R, L = cfg.M, cfg.K, cfg.R, cfg.L
    costs = loop_round_costs(cfg, [2 * L * M] * R, 2 * R * K * L)
    counts, mean = [0] * M, [0.0] * M
    uniform = [K / M] * M
    pis, selected = [], []

    def absorb(est, arms, weight):
        for a in arms:
            value = max(float(est.estimates[a]), 0.0)
            mean[a] = (counts[a] * mean[a] + weight * value) / (counts[a] + weight)
            counts[a] += weight

    for t in range(1, len(costs) + 1):
        if t <= R:
            est = scalar_muras_round(oracle, M, K, L, rng)
            absorb(est, range(M), 1)
            pi, S = uniform, est.coalition
        else:
            positive = sum(m != 0.0 for m in mean)
            pi = scalar_normalize_to_marginals(mean, K) if positive >= K else uniform
            S = scalar_rrs_sample(np.array(pi), K, rng)
            est = scalar_shapley_estimation(S, oracle, R, L, rng)
            absorb(est, S, est.n_perms)
        pis.append(pi)
        selected.append([int(a in S) for a in range(M)])
    return SimpleNamespace(seed=seed, pi=pis, selected=selected, pulls=costs, est_phi=mean)


def reference_run_uniform(cfg, oracle, rng, seed=None) -> SimpleNamespace:
    """``uniform_baseline`` round by round: each round plays the first K arms
    of one ``rng.permutation(M)`` under the marginals K/M, one pull charged
    and none drawn.  Returns the ``RunRecord`` fields as lists."""
    M, K = cfg.M, cfg.K
    costs = loop_round_costs(cfg, [], 1)
    selected = []
    for _ in costs:
        S = rng.permutation(M).tolist()[:K]
        selected.append([int(a in S) for a in range(M)])
    pis = [[K / M] * M for _ in costs]
    return SimpleNamespace(seed=seed, pi=pis, selected=selected, pulls=costs, est_phi=[math.nan] * M)


def reference_run_etcg(cfg, oracle, rng, seed=None) -> SimpleNamespace:
    """``etcg_baseline`` round by round over ``scalar_gaussian_pull``.

    K sweeps grow a prefix: each candidate outside it is played on top of
    it for one round, as the mean of ``explore_pulls`` scalar pulls added
    left to right, and the first candidate with the strictly largest mean
    joins the prefix.  Every later round plays the committed set with one
    pull.  A round logs its played set's indicator as ``pi``.  Returns the
    ``RunRecord`` fields as lists.
    """
    M, K, n = cfg.M, cfg.K, cfg.explore_pulls
    costs = loop_round_costs(cfg, [n] * sum(M - k for k in range(K)), 1)
    pis = []
    prefix: list[int] = []
    for _ in range(K):
        best_arm, best_mean = None, -math.inf
        for cand in [a for a in range(M) if a not in prefix]:
            played = prefix + [cand]
            m = sum(scalar_gaussian_pull(oracle, played, rng) for _ in range(n)) / n
            pis.append([float(a in played) for a in range(M)])
            if m > best_mean:
                best_arm, best_mean = cand, m
        prefix.append(best_arm)
    committed = [float(a in prefix) for a in range(M)]
    for _ in costs[len(pis) :]:
        scalar_gaussian_pull(oracle, prefix, rng)
    pis += [committed] * (len(costs) - len(pis))
    selected = [[int(x) for x in pi] for pi in pis]
    return SimpleNamespace(seed=seed, pi=pis, selected=selected, pulls=costs, est_phi=[math.nan] * M)


def _round_allowed(used: int, cost: int, t: int, cfg) -> bool:
    if cfg.rounds is not None and t > cfg.rounds:
        return False
    return used + cost <= cfg.T


def loop_round_costs(cfg, head, tail: int) -> list[int]:
    """Costs of the rounds played one at a time: the ``head`` costs, then
    ``tail`` per round, until ``_round_allowed`` first refuses a round."""
    costs: list[int] = []
    used = 0
    t = 0
    while True:
        t += 1
        cost = head[t - 1] if t <= len(head) else tail
        if not _round_allowed(used, cost, t, cfg):
            break
        used += cost
        costs.append(cost)
    return costs


def _fmt(x) -> str:
    return format(float(x), ".12g")


def csv_round_table(path, record, pi_star) -> None:
    """``write_round_csv`` as one ``csv.writer`` row per round."""
    from ksvfair import FairnessLedger

    ledger = FairnessLedger.from_run(pi_star, record.pi)
    fr = ledger.fr_cum
    pulls_cum = record.pulls_cum
    M = record.pi.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["round", "pulls_cum", "l1_to_pistar", "fr_cum"]
            + [f"pi_{a}" for a in range(M)]
            + [f"sel_{a}" for a in range(M)]
        )
        for t in range(record.n_rounds):
            w.writerow(
                [t + 1, int(pulls_cum[t]), _fmt(ledger.l1[t]), _fmt(fr[t])]
                + [_fmt(x) for x in record.pi[t]]
                + [int(x) for x in record.selected[t]]
            )


def csv_arms_table(path, record, true_phi) -> None:
    from ksvfair import merit_to_selection

    ratios = merit_to_selection(true_phi, record.counts, record.n_rounds)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arm", "true_phi", "est_phi", "count", "merit_sel_ratio"])
        for a in range(len(true_phi)):
            w.writerow(
                [a, _fmt(true_phi[a]), _fmt(record.est_phi[a]), int(record.counts[a]), _fmt(ratios[a])]
            )


def csv_aggregate_table(path, algo, ledgers) -> None:
    """``write_aggregate_csv`` row by row: the ledgers are stacked as they
    are, so unequal lengths raise before the file opens."""
    fr = np.stack([l.fr_cum for l in ledgers])
    mean = fr.mean(axis=0)
    var = fr.var(axis=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algo", "round", "fr_mean", "fr_var"])
        for t in range(fr.shape[1]):
            w.writerow([algo, t + 1, _fmt(mean[t]), _fmt(var[t])])


def _csv_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_compare_tables(run_dirs, out_prefix) -> tuple[Path, Path]:
    """``compare_runs``'s two tables, read with ``csv.DictReader`` and
    written row by row with ``csv.writer``."""
    loaded = []
    for d in map(Path, run_dirs):
        rows = _csv_rows(d / "aggregate.csv")
        mean = [float(r["fr_mean"]) for r in rows]
        var = [float(r["fr_var"]) for r in rows]
        loaded.append((d, rows[0]["algo"], [int(r["round"]) for r in rows], mean, var))
    base_rounds = loaded[0][2]
    labels = []
    for _, algo, *_ in loaded:
        label = algo
        k = 2
        while label in labels:
            label = f"{algo}{k}"
            k += 1
        labels.append(label)
    fr_path = Path(f"{out_prefix}.csv")
    with open(fr_path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["round"]
        for label in labels:
            header += [f"fr_mean_{label}", f"fr_std_{label}"]
        w.writerow(header)
        for t in range(len(base_rounds)):
            row = [int(base_rounds[t])]
            for _, _, _, mean, var in loaded:
                row += [_fmt(mean[t]), _fmt(np.sqrt(var[t]))]
            w.writerow(row)
    arms_path = Path(f"{out_prefix}_arms.csv")
    ratios = []
    for d, *_ in loaded:
        per_seed = [
            [float(r["merit_sel_ratio"]) for r in _csv_rows(f)] for f in sorted(d.glob("arms_seed*.csv"))
        ]
        ratios.append(np.nanmean(np.array(per_seed), axis=0))
    with open(arms_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arm"] + [f"ratio_{label}" for label in labels])
        for a in range(len(ratios[0])):
            w.writerow([a] + [_fmt(r[a]) for r in ratios])
    return fr_path, arms_path


class GameOracle(ValuationOracle):
    """Noisy wrapper around any restricted game, with one global noise level.

    ``budget`` defaults to the game's own; pass a smaller budget together
    with ``allow_extra_query`` to model an estimator that may name one arm
    beyond a full coalition (the wrapped game must cover that size).
    ``pull`` and ``_pull_means`` are ``SyntheticEnv``'s, over this oracle's
    ``_moment`` and per-row ``_moments``: one standard-normal draw per noisy
    pull, one (rows, n) block per batch with a noisy row, and noiseless
    rows exact.
    """

    def __init__(
        self,
        game: RestrictedGame,
        noise_std: float = 0.0,
        *,
        budget: int | None = None,
        allow_extra_query: bool = False,
    ):
        budget = game.budget if budget is None else budget
        super().__init__(game.n_arms, budget, allow_extra_query=allow_extra_query)
        if self.query_limit > game.budget:
            raise ValueError(
                f"query limit {self.query_limit} exceeds the wrapped game's budget {game.budget}"
            )
        if not 0 <= noise_std < math.inf:
            raise ValueError("noise_std must be finite and nonnegative")
        self.game = game
        self.noise_std = float(noise_std)

    def exact(self, members) -> float:
        return self.game.value(self._checked(members))

    def _moment(self, S) -> tuple[float, float]:
        return self.game.value(S), (self.noise_std if S else 0.0)

    def _moments(self, flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = [self._moment(S) for S in _segments(flat, lengths)]
        return tuple(np.array(rows, dtype=float).reshape(-1, 2).T)

    pull = SyntheticEnv.pull
    _pull_means = SyntheticEnv._pull_means


def _gaussian_moment(oracle, S) -> tuple[float, float]:
    """Exact mean and noise scale as the earlier ``exact``/``_noise_scale`` pair."""
    if isinstance(oracle, GameOracle):
        return oracle.game.value(S), (oracle.noise_std if S else 0.0)
    if not S:
        return 0.0, 0.0
    x = float(oracle.means[list(S)].sum())
    c, total = oracle.curvature, float(oracle.means.sum())
    mu = x / total if c == 0.0 else -np.expm1(-c * x) / -np.expm1(-c * total)
    return mu, float(math.sqrt((oracle.noise_stds**2)[list(S)].mean()))


def scalar_gaussian_pull(oracle, members, rng) -> float:
    """One clipped-Gaussian reward: ``np.clip(exact + normal(0, sigma), 0, 1)``."""
    S = oracle._checked(members)
    mu, sigma = _gaussian_moment(oracle, S)
    if sigma == 0.0:
        return float(min(max(mu, 0.0), 1.0))
    return float(np.clip(mu + rng.normal(0.0, sigma), 0.0, 1.0))
