"""Cooperative games with a coalition-size cap and their Shapley-style values.

A budgeted game assigns a worth only to coalitions of at most ``budget``
members; larger coalitions are infeasible and querying them is an error,
not a silent zero.  The per-arm value concept implemented here averages an
arm's within-coalition Shapley contribution over all budget-sized
coalitions containing it, and reduces to the classical Shapley value when
the budget equals the number of arms.  ``exact_k_shapley`` values each of
the ``exact_cost(M, K)`` coalitions once, up to a cost bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

Coalition = tuple[int, ...]
# exact_cost(20, 8): every game with M <= 20 and K <= 8 is enumerated by default
MAX_EXACT_COALITIONS = 263_949


class CoalitionSizeError(ValueError):
    """Valuation queried on a coalition larger than the game's budget."""


def canon(members) -> Coalition:
    """Canonical coalition encoding: sorted tuple, duplicates rejected."""
    S = tuple(sorted(map(int, members)))
    if len(set(S)) != len(S):
        raise ValueError(f"duplicate members in coalition {S}")
    return S


class RestrictedGame:
    """Deterministic valuation defined only on coalitions of size <= budget.

    ``valuation`` maps a sorted tuple of arm indices to a real number and
    must satisfy valuation(()) == 0.  Values are memoized per instance,
    keyed by the canonical encoding, because the axiom checks and the
    reference oracles revisit subsets heavily.  Instances are immutable
    after construction apart from the memo, which only ever fills in.
    """

    def __init__(self, n_arms: int, budget: int, valuation, *, memoize: bool = True):
        if not 1 <= budget <= n_arms:
            raise ValueError(f"need 1 <= budget <= n_arms, got K={budget}, M={n_arms}")
        self.n_arms = int(n_arms)
        self.budget = int(budget)
        self._valuation = valuation
        self._memo: dict[Coalition, float] | None = {} if memoize else None
        v0 = float(valuation(()))
        if abs(v0) > 1e-12:
            raise ValueError(f"valuation of the empty coalition must be 0, got {v0}")

    def value(self, members) -> float:
        S = canon(members)
        if S and (S[0] < 0 or S[-1] >= self.n_arms):
            raise ValueError(f"arm index out of range in {S} (M={self.n_arms})")
        if len(S) > self.budget:
            raise CoalitionSizeError(
                f"coalition of size {len(S)} exceeds budget K={self.budget}"
            )
        if not S:
            return 0.0
        if self._memo is None:
            return float(self._valuation(S))
        v = self._memo.get(S)
        if v is None:
            v = float(self._valuation(S))
            self._memo[S] = v
        return v


@dataclass(frozen=True)
class ShapleyVector:
    """Per-arm values with provenance tag: 'exact', 'classical' or 'estimated'."""

    values: np.ndarray
    kind: str
    samples: int | None = None
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "classical", "estimated"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class AxiomReport:
    symmetry_ok: bool
    linearity_ok: bool
    null_player_ok: bool
    k_efficiency_ok: bool
    max_violation: float


def marginal_contribution(game: RestrictedGame, arm: int, members) -> float:
    """V(S + arm) - V(S) for a coalition S of size <= budget - 1 not containing arm."""
    S = canon(members)
    if arm in S:
        raise ValueError(f"arm {arm} already in coalition {S}")
    if len(S) > game.budget - 1:
        raise CoalitionSizeError(
            f"coalition of size {len(S)} leaves no room for arm under budget {game.budget}"
        )
    return game.value(S + (arm,)) - game.value(S)


def exact_cost(M: int, K: int) -> int:
    """Valuations ``exact_k_shapley`` makes: the coalitions of 1..K of M arms."""
    return sum(math.comb(M, s) for s in range(1, K + 1))


def exact_k_shapley(
    game: RestrictedGame, *, max_coalitions: int = MAX_EXACT_COALITIONS
) -> ShapleyVector:
    """Exact budget-restricted Shapley values, visiting each coalition once.

    Averaging an arm's within-coalition value over the C(M-1, K-1)
    budget-sized coalitions containing it collapses to one sum over the
    subsets S avoiding the arm with |S| <= K-1: each marginal
    V(S+i) - V(S) carries the weight
    w_s = s! (K-s-1)! / K! * C(M-1-s, K-1-s) / C(M-1, K-1), s = |S|.
    Grouping by size, the S+i terms are the coalitions of size s+1
    containing i, and the S terms are all size-s coalitions minus those
    containing i; both are per-arm sums of one value table per size.
    Cost is ``exact_cost(M, K)`` valuations plus linear numpy reductions;
    the guard refuses games that cost more than ``max_coalitions``.
    """
    M, K = game.n_arms, game.budget
    cost = exact_cost(M, K)
    if cost > max_coalitions:
        raise ValueError(
            f"enumeration guard: M={M}, K={K} needs {cost} valuations (max {max_coalitions}); "
            "raise max_coalitions explicitly if you accept the cost"
        )
    value = game.value
    # with_arm[s][i]: total worth of the size-s coalitions containing arm i
    with_arm = [np.zeros(M)]
    totals = [0.0]
    for s in range(1, K + 1):
        n = math.comb(M, s)
        members = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(M), s)),
            dtype=np.intp,
            count=n * s,
        )
        worth = np.fromiter(
            (value(S) for S in itertools.combinations(range(M), s)), dtype=float, count=n
        )
        with_arm.append(np.bincount(members, weights=np.repeat(worth, s), minlength=M))
        totals.append(float(worth.sum()))
    denom = math.factorial(K) * math.comb(M - 1, K - 1)
    phi = np.zeros(M)
    for s in range(K):
        count = math.factorial(s) * math.factorial(K - 1 - s) * math.comb(M - 1 - s, K - 1 - s)
        phi += count / denom * (with_arm[s + 1] - (totals[s] - with_arm[s]))
    return ShapleyVector(phi, "exact")


def classical_shapley(game: RestrictedGame, *, max_arms: int = 10) -> ShapleyVector:
    """Classical Shapley value by enumerating all orderings; requires budget == n_arms.

    Serves as an independent oracle for the K = M reduction: it walks
    permutation prefixes rather than the subset-sum formula.
    """
    M = game.n_arms
    if game.budget != M:
        raise ValueError("classical value needs every coalition feasible (K = M)")
    if M > max_arms:
        raise ValueError(f"enumeration guard: M={M} exceeds {max_arms} ({M}! orderings)")
    value = game.value
    phi = np.zeros(M)
    for perm in itertools.permutations(range(M)):
        prev = 0.0
        prefix: list[int] = []
        for a in perm:
            prefix.append(a)
            cur = value(tuple(sorted(prefix)))
            phi[a] += cur - prev
            prev = cur
    phi /= math.factorial(M)
    return ShapleyVector(phi, "classical")


def sampled_k_shapley(
    valuation, n_arms: int, budget: int, n_samples: int, rng
) -> ShapleyVector:
    """Monte-Carlo estimate of the budget-restricted values for large games.

    Each sample draws a uniform budget-sized coalition and one uniform
    ordering of it, then credits every member with its prefix marginal.
    Conditioned on membership the coalition is uniform among those
    containing the arm, so per-arm sample means are unbiased.  Arms
    receive about n_samples * K / M samples each; stderr reports the
    per-arm standard error of the mean.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    M, K = int(n_arms), int(budget)
    sums = np.zeros(M)
    sqs = np.zeros(M)
    hits = np.zeros(M, dtype=int)
    for _ in range(n_samples):
        coalition = rng.choice(M, size=K, replace=False)
        order = coalition[rng.permutation(K)]
        prev = 0.0
        prefix: list[int] = []
        for a in order:
            prefix.append(int(a))
            cur = float(valuation(tuple(sorted(prefix))))
            d = cur - prev
            sums[a] += d
            sqs[a] += d * d
            hits[a] += 1
            prev = cur
    if np.any(hits == 0):
        missing = np.flatnonzero(hits == 0)
        raise ValueError(f"arms {missing.tolist()} never sampled; increase n_samples")
    mean = sums / hits
    var = np.maximum(sqs / hits - mean**2, 0.0)
    stderr = np.sqrt(var / hits)
    return ShapleyVector(mean, "estimated", samples=int(n_samples), stderr=stderr)


def carrier_game(n_arms: int, budget: int, base, alpha: float) -> RestrictedGame:
    """Game worth alpha exactly on feasible supersets of ``base``, else 0."""
    D = canon(base)
    if len(D) > budget:
        raise ValueError(f"carrier coalition of size {len(D)} exceeds budget {budget}")
    if not D:
        raise ValueError("carrier coalition must be nonempty")
    Dset = frozenset(D)

    def worth(S: Coalition) -> float:
        return float(alpha) if Dset.issubset(S) else 0.0

    return RestrictedGame(n_arms, budget, worth)


def carrier_exact_values(n_arms: int, budget: int, base, alpha: float) -> np.ndarray:
    """Closed-form values of a carrier game, consistent with the axioms.

    Non-members are null players; members split the total equally.  The
    efficiency identity fixes that total at
    alpha * C(M-|D|, K-|D|) / C(M-1, K-1): only budget-sized supersets of
    the carrier have worth, and there are C(M-|D|, K-|D|) of them.  The
    member share reduces to alpha / |D| exactly when |D| = 1 or K = M.
    """
    D = canon(base)
    M, K = int(n_arms), int(budget)
    if not 1 <= len(D) <= K <= M:
        raise ValueError("need 1 <= |D| <= K <= M")
    share = alpha * math.comb(M - len(D), K - len(D)) / (len(D) * math.comb(M - 1, K - 1))
    out = np.zeros(M)
    out[list(D)] = share
    return out


def additive_game(weights, budget: int) -> RestrictedGame:
    w = np.asarray(weights, dtype=float)
    return RestrictedGame(len(w), budget, lambda S: float(w[list(S)].sum()))


def coverage_game(element_sets, n_elements: int, budget: int) -> RestrictedGame:
    """Worth of S is the fraction of the universe covered by the members' sets."""
    sets = [frozenset(e) for e in element_sets]

    def worth(S: Coalition) -> float:
        covered: frozenset = frozenset()
        for a in S:
            covered |= sets[a]
        return len(covered) / n_elements

    return RestrictedGame(len(sets), budget, worth)


def table_game(n_arms: int, budget: int, table: dict) -> RestrictedGame:
    """Game backed by an explicit coalition -> worth table (missing entries are 0)."""
    tbl = {canon(S): float(v) for S, v in table.items()}
    return RestrictedGame(n_arms, budget, lambda S: tbl.get(S, 0.0))


def mix_games(g1: RestrictedGame, g2: RestrictedGame, p: float) -> RestrictedGame:
    """Pointwise mixture p*V1 + (1-p)*V2 on the shared feasible coalitions."""
    if (g1.n_arms, g1.budget) != (g2.n_arms, g2.budget):
        raise ValueError("games must share arm count and budget")
    return RestrictedGame(
        g1.n_arms, g1.budget, lambda S: p * g1.value(S) + (1 - p) * g2.value(S)
    )


def check_linearity(
    g1: RestrictedGame, g2: RestrictedGame, p: float, tol: float
) -> bool:
    """True iff the exact values of the mixture equal the mixed exact values."""
    if (g1.n_arms, g1.budget) != (g2.n_arms, g2.budget):
        raise ValueError("games must share arm count and budget")
    lhs = exact_k_shapley(mix_games(g1, g2, p)).values
    rhs = p * exact_k_shapley(g1).values + (1 - p) * exact_k_shapley(g2).values
    return bool(np.max(np.abs(lhs - rhs)) <= tol)


def _iter_subsets(pool: list[int], max_size: int):
    for size in range(max_size + 1):
        yield from itertools.combinations(pool, size)


def symmetric_pairs(game: RestrictedGame, *, eq_tol: float = 1e-12) -> list[tuple[int, int]]:
    """Pairs (i, j) with V(S+i) == V(S+j) for every feasible S avoiding both."""
    M, K = game.n_arms, game.budget
    pairs = []
    for i, j in itertools.combinations(range(M), 2):
        pool = [a for a in range(M) if a not in (i, j)]
        if all(
            abs(
                game.value(tuple(sorted(S + (i,))))
                - game.value(tuple(sorted(S + (j,))))
            )
            <= eq_tol
            for S in _iter_subsets(pool, K - 1)
        ):
            pairs.append((i, j))
    return pairs


def null_players(game: RestrictedGame, *, eq_tol: float = 1e-12) -> list[int]:
    """Arms whose marginal contribution is 0 on every feasible coalition."""
    M, K = game.n_arms, game.budget
    out = []
    for i in range(M):
        pool = [a for a in range(M) if a != i]
        if all(
            abs(marginal_contribution(game, i, S)) <= eq_tol
            for S in _iter_subsets(pool, K - 1)
        ):
            out.append(i)
    return out


def k_efficiency_gap(game: RestrictedGame, phi: ShapleyVector) -> float:
    """|sum(phi) - average worth of budget-sized coalitions * scaling|.

    The identity compares the distributed total with
    sum over |T|=K of V(T) divided by C(M-1, K-1).
    """
    M, K = game.n_arms, game.budget
    total = sum(
        game.value(T) for T in itertools.combinations(range(M), K)
    )
    rhs = total / math.comb(M - 1, K - 1)
    return abs(float(phi.values.sum()) - rhs)


def verify_axioms(
    game: RestrictedGame,
    phi: ShapleyVector,
    tol: float,
    *,
    linearity_partner: RestrictedGame | None = None,
    mixture_weight: float = 0.3,
) -> AxiomReport:
    """Report-only check of the four value axioms against computed values.

    Symmetry and null-player checks scan all detected symmetric pairs and
    null players (exhaustive subset enumeration, so keep M small).  The
    efficiency identity is evaluated directly.  Linearity is checked via
    ``check_linearity`` against ``linearity_partner``; when no partner is
    supplied the zero game is used, which reduces to homogeneity.
    """
    vals = phi.values
    sym_gap = 0.0
    for i, j in symmetric_pairs(game):
        sym_gap = max(sym_gap, abs(vals[i] - vals[j]))
    null_gap = 0.0
    for i in null_players(game):
        null_gap = max(null_gap, abs(vals[i]))
    eff_gap = k_efficiency_gap(game, phi)
    if linearity_partner is None:
        linearity_partner = RestrictedGame(game.n_arms, game.budget, lambda S: 0.0)
    p = mixture_weight
    lhs = exact_k_shapley(mix_games(game, linearity_partner, p)).values
    rhs = p * vals + (1 - p) * exact_k_shapley(linearity_partner).values
    lin_gap = float(np.max(np.abs(lhs - rhs)))
    return AxiomReport(
        symmetry_ok=sym_gap <= tol,
        linearity_ok=lin_gap <= tol,
        null_player_ok=null_gap <= tol,
        k_efficiency_ok=eff_gap <= tol,
        max_violation=max(sym_gap, null_gap, eff_gap, lin_gap),
    )
