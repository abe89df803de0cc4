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
import operator
from dataclasses import dataclass

import numpy as np

Coalition = tuple[int, ...]
# exact_cost(20, 8): every game with M <= 20 and K <= 8 is enumerated by default
MAX_EXACT_COALITIONS = 263_949
# 10! = 3,628,800 orderings: the most classical_shapley walks
MAX_CLASSICAL_ARMS = 10
EQ_TOL = 1e-12


class CoalitionSizeError(ValueError):
    """Coalition larger than the budget or query limit it is checked against."""


def checked_coalition(members, n_arms: int, limit: int, limit_name: str) -> Coalition:
    """The sorted tuple of ``members``, read once (an iterator is consumed)
    and by ``operator.index`` (a float or a ``bool`` raises ``TypeError``),
    checked in order for duplicates, arms outside 0..n_arms-1 and more than
    ``limit`` members (named ``limit_name``)."""
    members = tuple(members)
    S = tuple(sorted(map(operator.index, members)))
    if S and S[0] <= 1 and bool in map(type, members):  # True and False read as arms 1 and 0
        raise TypeError("coalition members must be arm ids, not bool")
    if len(set(S)) != len(S):
        raise ValueError(f"duplicate members in coalition {S}")
    if S and (S[0] < 0 or S[-1] >= n_arms):
        raise ValueError(f"arm index out of range in {S} (M={n_arms})")
    if len(S) > limit:
        raise CoalitionSizeError(f"coalition of size {len(S)} exceeds {limit_name} {limit}")
    return S


class RestrictedGame:
    """Deterministic valuation defined only on coalitions of size <= budget.

    ``valuation`` maps a sorted tuple of arm indices to a real number and
    must satisfy valuation(()) == 0.  The game keeps no state: every
    ``value`` call checks the coalition and asks the valuation again.
    """

    def __init__(self, n_arms: int, budget: int, valuation):
        if not 1 <= budget <= n_arms:
            raise ValueError(f"need 1 <= budget <= n_arms, got K={budget}, M={n_arms}")
        self.n_arms = int(n_arms)
        self.budget = int(budget)
        self._valuation = valuation
        v0 = float(valuation(()))
        if abs(v0) > 1e-12:
            raise ValueError(f"valuation of the empty coalition must be 0, got {v0}")

    def value(self, members) -> float:
        S = checked_coalition(members, self.n_arms, self.budget, "budget")
        return float(self._valuation(S)) if S else 0.0


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
    S = checked_coalition(members, game.n_arms, game.budget, "budget")
    if arm in S:
        raise ValueError(f"arm {arm} already in coalition {S}")
    return game.value(S + (arm,)) - game.value(S)  # a full S raises CoalitionSizeError


def exact_cost(M: int, K: int) -> int:
    """Valuations ``exact_k_shapley`` makes: the coalitions of 1..K of M arms."""
    return sum(math.comb(M, s) for s in range(1, K + 1))


def exact_k_shapley(game: RestrictedGame) -> ShapleyVector:
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
    the guard refuses games that cost more than ``MAX_EXACT_COALITIONS``.
    """
    M, K = game.n_arms, game.budget
    cost = exact_cost(M, K)
    if cost > MAX_EXACT_COALITIONS:
        raise ValueError(
            f"enumeration guard: M={M}, K={K} needs {cost} valuations "
            f"(max {MAX_EXACT_COALITIONS}); use sampled_k_shapley for larger games"
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
        worth = np.fromiter(map(value, itertools.combinations(range(M), s)), dtype=float, count=n)
        with_arm.append(np.bincount(members, weights=np.repeat(worth, s), minlength=M))
        totals.append(float(worth.sum()))
    denom = math.factorial(K) * math.comb(M - 1, K - 1)
    phi = np.zeros(M)
    for s in range(K):
        count = math.factorial(s) * math.factorial(K - 1 - s) * math.comb(M - 1 - s, K - 1 - s)
        phi += count / denom * (with_arm[s + 1] - (totals[s] - with_arm[s]))
    return ShapleyVector(phi, "exact")


def classical_shapley(game: RestrictedGame) -> ShapleyVector:
    """Classical Shapley value by enumerating all orderings; requires budget == n_arms.

    Serves as an independent oracle for the K = M reduction: it walks
    permutation prefixes rather than the subset-sum formula.
    """
    M = game.n_arms
    if game.budget != M:
        raise ValueError("classical value needs every coalition feasible (K = M)")
    if M > MAX_CLASSICAL_ARMS:
        raise ValueError(f"enumeration guard: M={M} exceeds {MAX_CLASSICAL_ARMS} ({M}! orderings)")
    value = game.value
    phi = np.zeros(M)
    for perm in itertools.permutations(range(M)):
        prev = 0.0
        prefix: list[int] = []
        for a in perm:
            prefix.append(a)
            cur = value(prefix)
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
    per-arm standard error of the mean, from the sample variance (ddof 1),
    and is infinite for an arm drawn only once.  Samples revisit prefixes,
    so each distinct prefix is valued once and its worth kept for the
    call.  Every (coalition, ordering) pair is drawn before any valuation,
    so a draw that misses an arm fails before the first one.  The walk
    keeps the marginals in one flat list, in draw order, and
    ``np.bincount`` adds each arm's in that order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    M, K = int(n_arms), int(budget)
    orders = []
    for _ in range(n_samples):
        coalition = rng.choice(M, size=K, replace=False)
        orders.append(coalition[rng.permutation(K)])
    arms = np.concatenate(orders)
    hits = np.bincount(arms, minlength=M)
    if np.any(hits == 0):
        missing = np.flatnonzero(hits == 0)
        raise ValueError(f"arms {missing.tolist()} never sampled; increase n_samples")
    gains: list[float] = []
    worth: dict[Coalition, float] = {}
    for order in arms.reshape(n_samples, K).tolist():
        prev = 0.0
        prefix: list[int] = []
        for a in order:
            prefix.append(a)
            S = tuple(sorted(prefix))
            cur = worth.get(S)
            if cur is None:
                cur = worth[S] = float(valuation(S))
            gains.append(cur - prev)
            prev = cur
    d = np.array(gains)
    mean = np.bincount(arms, weights=d, minlength=M) / hits
    resid = d - mean.take(arms)
    var = np.divide(
        np.bincount(arms, weights=resid * resid, minlength=M),
        hits - 1,
        out=np.full(M, np.inf),
        where=hits > 1,
    )
    return ShapleyVector(mean, "estimated", samples=int(n_samples), stderr=np.sqrt(var / hits))


def carrier_game(n_arms: int, budget: int, base, alpha: float) -> RestrictedGame:
    """Game worth alpha exactly on feasible supersets of ``base``, else 0."""
    D = checked_coalition(base, n_arms, budget, "budget")
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
    M, K = int(n_arms), int(budget)
    D = checked_coalition(base, M, K, "budget")
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


def mix_games(g1: RestrictedGame, g2: RestrictedGame, p: float) -> RestrictedGame:
    """Pointwise mixture p*V1 + (1-p)*V2 on the shared feasible coalitions."""
    if (g1.n_arms, g1.budget) != (g2.n_arms, g2.budget):
        raise ValueError("games must share arm count and budget")
    return RestrictedGame(
        g1.n_arms, g1.budget, lambda S: p * g1.value(S) + (1 - p) * g2.value(S)
    )


def _linearity_gap(g1: RestrictedGame, g2: RestrictedGame, p: float, values1) -> float:
    """Largest gap between the exact values of the mixture p*g1 + (1-p)*g2
    and p * values1 + (1-p) * (exact values of g2)."""
    lhs = exact_k_shapley(mix_games(g1, g2, p)).values
    rhs = p * values1 + (1 - p) * exact_k_shapley(g2).values
    return float(np.max(np.abs(lhs - rhs)))


def _iter_subsets(pool: list[int], max_size: int):
    for size in range(max_size + 1):
        yield from itertools.combinations(pool, size)


def symmetric_pairs(game: RestrictedGame) -> list[tuple[int, int]]:
    """Pairs (i, j) with V(S+i) == V(S+j) within EQ_TOL for every feasible S avoiding both."""
    M, K = game.n_arms, game.budget
    pairs = []
    for i, j in itertools.combinations(range(M), 2):
        pool = [a for a in range(M) if a not in (i, j)]
        if all(
            abs(game.value(S + (i,)) - game.value(S + (j,))) <= EQ_TOL
            for S in _iter_subsets(pool, K - 1)
        ):
            pairs.append((i, j))
    return pairs


def null_players(game: RestrictedGame) -> list[int]:
    """Arms whose marginal contribution is 0 within EQ_TOL on every feasible coalition."""
    M, K = game.n_arms, game.budget
    out = []
    for i in range(M):
        pool = [a for a in range(M) if a != i]
        if all(
            abs(marginal_contribution(game, i, S)) <= EQ_TOL
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
) -> AxiomReport:
    """Report-only check of the four value axioms against computed values.

    Symmetry and null-player checks scan all detected symmetric pairs and
    null players (exhaustive subset enumeration, so keep M small).  The
    efficiency identity is evaluated directly.  Linearity compares the
    exact values of the 0.3 : 0.7 mixture with ``linearity_partner``
    against the mixed values, with ``phi`` standing in for the game's own
    exact values (``_linearity_gap``); when no partner is supplied the zero
    game is used, which reduces to homogeneity.
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
    lin_gap = _linearity_gap(game, linearity_partner, 0.3, vals)
    return AxiomReport(
        symmetry_ok=sym_gap <= tol,
        linearity_ok=lin_gap <= tol,
        null_player_ok=null_gap <= tol,
        k_efficiency_ok=eff_gap <= tol,
        max_violation=max(sym_gap, null_gap, eff_gap, lin_gap),
    )
