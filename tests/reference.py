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

The CSV writers and the scalar Gaussian pull are the library's earlier
``csv.writer`` + ``format(x, ".12g")`` writers and ``np.clip`` pull, kept so
the faster code can be pinned to them byte for byte and bit for bit.

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
    n = min(l.n_rounds for l in ledgers)
    fr = np.stack([l.fr_cum[:n] for l in ledgers])
    mean = fr.mean(axis=0)
    var = fr.var(axis=0)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algo", "round", "fr_mean", "fr_var"])
        for t in range(n):
            w.writerow([algo, t + 1, _fmt(mean[t]), _fmt(var[t])])


def csv_compare_tables(run_dirs, out_prefix) -> tuple[Path, Path]:
    """``compare_runs``'s two tables, written row by row with ``csv.writer``."""
    from ksvfair.cli import _read_aggregate, _read_arm_ratios

    loaded = [(Path(d), *_read_aggregate(Path(d) / "aggregate.csv")) for d in run_dirs]
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
    ratios = [_read_arm_ratios(d) for d, *_ in loaded]
    with open(arms_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arm"] + [f"ratio_{label}" for label in labels])
        for a in range(len(ratios[0])):
            w.writerow([a] + [_fmt(r[a]) for r in ratios])
    return fr_path, arms_path


def _gaussian_moment(oracle, S) -> tuple[float, float]:
    """Exact mean and noise scale as the earlier ``exact``/``_noise_scale`` pair."""
    from ksvfair import GameOracle

    if isinstance(oracle, GameOracle):
        return oracle.game.value(S), (oracle.noise_std if S else 0.0)
    if not S:
        return 0.0, 0.0
    x = float(oracle.means[list(S)].sum())
    c, total = oracle.curvature, float(oracle.means.sum())
    mu = x / total if c == 0.0 else -np.expm1(-c * x) / -np.expm1(-c * total)
    if oracle.shared_noise_std is not None:
        return mu, float(oracle.shared_noise_std)
    return mu, float(math.sqrt((oracle.noise_stds**2)[list(S)].mean()))


def scalar_gaussian_pull(oracle, members, rng) -> float:
    """One clipped-Gaussian reward: ``np.clip(exact + normal(0, sigma), 0, 1)``."""
    S = oracle._checked(members)
    mu, sigma = _gaussian_moment(oracle, S)
    if sigma == 0.0:
        return float(min(max(mu, 0.0), 1.0))
    return float(np.clip(mu + rng.normal(0.0, sigma), 0.0, 1.0))
