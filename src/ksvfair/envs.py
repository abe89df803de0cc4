"""Stochastic full-feedback valuation oracles.

Every environment implements ``exact``, the ground-truth mean of a
coalition (a backdoor used only to build the fair target policy and in
tests); ``pull``, one noisy reward (what a bandit run observes); and
``pull_mean_many``, the mean of n fresh pulls for each row of an (n_sets, M)
boolean membership matrix, which is how the estimators query.  ``pull_mean``
is its one-row case, written once on the base class.  Pulls take an
explicit RNG so callers own determinism; an environment never mutates
after construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .games import RestrictedGame, canon

log = logging.getLogger(__name__)


class ValuationOracle:
    """Interface shared by all environments.

    Subclasses implement ``exact``, ``pull`` and ``pull_mean_many``.
    ``budget`` is the selection budget K.  ``query_limit`` is the largest
    coalition a query may name: equal to K in strict mode, K + 1 when the
    environment was built with ``allow_extra_query`` (needed by estimators
    that probe one arm beyond a full coalition).
    """

    n_arms: int
    budget: int
    query_limit: int

    def exact(self, members) -> float:
        raise NotImplementedError

    def pull(self, members, rng) -> float:
        raise NotImplementedError

    def pull_mean_many(self, masks, n: int, rng) -> np.ndarray:
        """Mean of n independent pulls of each row of an (n_sets, M) membership matrix."""
        raise NotImplementedError

    def _checked(self, members) -> tuple[int, ...]:
        S = canon(members)
        if len(S) > self.query_limit:
            raise ValueError(
                f"coalition of size {len(S)} exceeds query limit {self.query_limit}"
            )
        if S and (S[0] < 0 or S[-1] >= self.n_arms):
            raise ValueError(f"arm index out of range in {S} (M={self.n_arms})")
        return S

    def _check_masks(self, masks) -> np.ndarray:
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_arms:
            raise ValueError(
                f"expected an (n_sets, {self.n_arms}) membership matrix, got shape {masks.shape}"
            )
        sizes = masks.sum(axis=1)
        if (sizes > self.query_limit).any():
            raise ValueError(
                f"coalition of size {int(sizes.max())} exceeds query limit {self.query_limit}"
            )
        return masks

    def pull_mean(self, members, n: int, rng) -> float:
        """Mean of n independent pulls of the same coalition."""
        mask = np.zeros((1, self.n_arms), dtype=bool)
        mask[0, list(self._checked(members))] = True
        return float(self.pull_mean_many(mask, n, rng)[0])

    def restricted_game(self) -> RestrictedGame:
        """The noiseless game over ``exact``, memoized, for fair-target computation."""
        return RestrictedGame(self.n_arms, self.budget, lambda S: self.exact(S))


class _GaussianOracle(ValuationOracle):
    """Shared machinery: exact mean plus additive Gaussian noise, clipped to [0,1].

    Clipping (rather than resampling) keeps rewards bounded for the
    Hoeffding-style analysis; the induced mean bias is small in the
    benchmark parameter ranges and is accepted by the empirical-mean tests.
    Subclasses implement ``_moment``; the scalar ``pull`` reads it once per
    call, and the default per-row ``_moments`` reads it row by row.
    """

    def _moment(self, S) -> tuple[float, float]:
        """Exact mean and noise scale of one checked coalition."""
        raise NotImplementedError

    def _moments(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row exact mean and noise scale of a checked membership matrix."""
        rows = [self._moment(tuple(np.flatnonzero(row).tolist())) for row in masks]
        mus, sigmas = np.array(rows, dtype=float).reshape(-1, 2).T
        return mus, sigmas

    def pull(self, members, rng) -> float:
        mu, sigma = self._moment(self._checked(members))
        if sigma == 0.0:
            return min(max(mu, 0.0), 1.0)
        return min(max(mu + rng.normal(0.0, sigma), 0.0), 1.0)

    def pull_mean_many(self, masks, n: int, rng) -> np.ndarray:
        mus, sigmas = self._moments(self._check_masks(masks))
        exact = np.clip(mus, 0.0, 1.0)
        if not sigmas.any():
            return exact
        draws = rng.standard_normal((len(mus), n)) * sigmas[:, None] + mus[:, None]
        means = np.clip(draws, 0.0, 1.0, out=draws).mean(axis=1)
        # noiseless rows stay exact rather than picking up mean-of-copies rounding
        return np.where(sigmas == 0.0, exact, means)


class SyntheticEnv(_GaussianOracle):
    """Monotone submodular benchmark: concave transform of additive arm means.

    exact(S) = g(sum of member means) with
    g(x) = (1 - exp(-c x)) / (1 - exp(-c * total mean)), so the worth of the
    all-arms sum is normalized to 1; curvature c = 0 is the linear limit
    g(x) = x / total.  Coalition noise is the RMS of the member noise
    levels (independent per-arm noise observed only in aggregate), or a
    fixed global level when ``shared_noise_std`` is given.
    """

    def __init__(
        self,
        means,
        noise_stds=None,
        *,
        budget: int,
        curvature: float = 1.0,
        shared_noise_std: float | None = None,
        allow_extra_query: bool = False,
    ):
        self.means = np.asarray(means, dtype=float)
        M = len(self.means)
        if noise_stds is None:
            noise_stds = np.zeros(M)
        self.noise_stds = np.asarray(noise_stds, dtype=float)
        if len(self.noise_stds) != M:
            raise ValueError("means and noise_stds must have the same length")
        if np.any(self.means <= 0) or np.any(self.means > 1):
            raise ValueError("arm means must lie in (0, 1]")
        if np.any(self.noise_stds < 0):
            raise ValueError("noise levels must be nonnegative")
        if curvature < 0:
            raise ValueError("curvature must be nonnegative")
        if not 1 <= budget <= M:
            raise ValueError(f"need 1 <= K <= M, got K={budget}, M={M}")
        self.n_arms = M
        self.budget = int(budget)
        self.query_limit = self.budget + (1 if allow_extra_query else 0)
        self.curvature = float(curvature)
        self.shared_noise_std = shared_noise_std
        total = float(self.means.sum())
        # g's denominator, the transformed total: the same for every coalition
        self._denom = -np.expm1(-self.curvature * total) if self.curvature else total
        self._noise_sq = self.noise_stds**2

    def exact(self, members) -> float:
        return self._mean(list(self._checked(members)))

    def _mean(self, idx: list[int]) -> float:
        return float(self._transform(self.means[idx].sum())) if idx else 0.0

    def _transform(self, x):
        c = self.curvature
        if c == 0.0:
            return x / self._denom
        return -np.expm1(-c * x) / self._denom

    def _moment(self, S) -> tuple[float, float]:
        idx = list(S)
        if not idx:
            return 0.0, 0.0
        if self.shared_noise_std is not None:
            return self._mean(idx), float(self.shared_noise_std)
        # sum / count is how np.mean divides, so this is bitwise its value
        return self._mean(idx), math.sqrt(self._noise_sq[idx].sum() / len(idx))

    def _moments(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row exact means and noise scales, summed per row by ``np.add.reduceat``.

        Each row's members are taken in ascending arm order, but reduceat
        does not add them left to right as ``exact`` does, so for
        coalitions of three or more arms a noiseless batched value can
        differ from ``exact`` by a few ulp (at most 3 on the shipped 20-arm
        game); coalitions of one or two arms agree bitwise.
        """
        row, flat = np.divmod(np.flatnonzero(masks), self.n_arms)
        lengths = np.bincount(row, minlength=len(masks))
        nonempty = lengths > 0
        starts = (np.cumsum(lengths) - lengths)[nonempty]
        sum_means = np.zeros(len(masks))
        sum_means[nonempty] = np.add.reduceat(self.means[flat], starts)
        sigmas = np.zeros(len(masks))
        if self.shared_noise_std is not None:
            sigmas[nonempty] = self.shared_noise_std
        else:
            noise_sums = np.add.reduceat(self._noise_sq[flat], starts)
            sigmas[nonempty] = np.sqrt(noise_sums / lengths[nonempty])
        mus = np.where(nonempty, self._transform(sum_means), 0.0)
        return mus, sigmas


class GameOracle(_GaussianOracle):
    """Noisy wrapper around any restricted game, with one global noise level.

    ``budget`` defaults to the game's own; pass a smaller budget together
    with ``allow_extra_query`` to model an estimator that may name one arm
    beyond a full coalition (the wrapped game must cover that size).
    """

    def __init__(
        self,
        game: RestrictedGame,
        noise_std: float = 0.0,
        *,
        budget: int | None = None,
        allow_extra_query: bool = False,
    ):
        self.game = game
        self.n_arms = game.n_arms
        self.budget = int(budget) if budget is not None else game.budget
        self.query_limit = self.budget + (1 if allow_extra_query else 0)
        if self.query_limit > game.budget:
            raise ValueError(
                f"query limit {self.query_limit} exceeds the wrapped game's budget {game.budget}"
            )
        if noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        self.noise_std = float(noise_std)

    def exact(self, members) -> float:
        return self.game.value(members)

    def _moment(self, S) -> tuple[float, float]:
        return self.exact(S), (self.noise_std if S else 0.0)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with densely indexed nodes."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def load_edge_list(path) -> Graph:
    """Parse whitespace-separated integer pairs, one edge per line.

    Lines starting with '#' are comments.  Self-loops and duplicate edges
    (in either orientation) are dropped and counted; nodes are re-indexed
    densely in order of first appearance on kept edges.
    """
    index: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    self_loops = 0
    duplicates = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two tokens, got {parts!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer token in {parts!r}") from exc
            if a == b:
                self_loops += 1
                continue
            key = (min(a, b), max(a, b))
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            for node in (a, b):
                if node not in index:
                    index[node] = len(index)
            edges.append((index[a], index[b]))
    if not edges:
        raise ValueError(f"{path}: no edges found")
    if self_loops or duplicates:
        log.warning(
            "%s: dropped %d self-loop(s) and %d duplicate edge(s)",
            path,
            self_loops,
            duplicates,
        )
    return Graph(
        n_nodes=len(index),
        edges=tuple(edges),
        dropped_self_loops=self_loops,
        dropped_duplicates=duplicates,
    )


# Uniform draws per chunk of cascade_exact's worlds: rows of n_edges
# doubles, so one chunk's temporaries stay near 2 MB whatever n_sims is.
_CHUNK_DRAWS = 1 << 18


class CascadeEnv(ValuationOracle):
    """Influence diffusion over an undirected graph.

    One pull seeds the coalition's nodes and runs a single independent
    cascade: each newly activated node gets one chance per currently
    inactive neighbour, succeeding with probability ``activation_p``; the
    reward is the activated fraction of the graph.  Each edge is tried at
    most once, from whichever end activates first, so a cascade has the
    same law as bond percolation (Kempe, Kleinberg and Tardos, KDD 2003):
    a pull draws one coin per edge, in ``graph.edges`` order, and counts
    the nodes reachable from the seeds over the live edges.  ``pull`` is the
    one-world case of ``cascade_exact``.  ``exact`` is a Monte-Carlo
    estimate (the true spread is intractable) with per-coalition standard
    error at most 1 / (2 sqrt(exact_sims)); its RNG is seeded by the
    coalition itself, so the estimate does not depend on query order and is
    recomputed identically on every call.  ``restricted_game`` memoizes it
    for the fair target.
    """

    def __init__(
        self,
        graph: Graph,
        activation_p: float,
        *,
        budget: int,
        exact_sims: int = 10_000,
        exact_seed: int = 0,
        allow_extra_query: bool = False,
    ):
        if not 0.0 <= activation_p <= 1.0:
            raise ValueError("activation probability must lie in [0, 1]")
        if not 1 <= budget <= graph.n_nodes:
            raise ValueError(f"need 1 <= K <= n, got K={budget}, n={graph.n_nodes}")
        if exact_sims < 1:
            raise ValueError("exact_sims must be >= 1")
        self.graph = graph
        self.activation_p = float(activation_p)
        self.n_arms = graph.n_nodes
        self.budget = int(budget)
        self.query_limit = self.budget + (1 if allow_extra_query else 0)
        self.exact_sims = int(exact_sims)
        self.exact_seed = int(exact_seed)
        self._ends = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T

    def _spread_counts(self, S, live: np.ndarray) -> np.ndarray:
        """Nodes reachable from S over each world's live edges (one row of live).

        Worlds are swept together as one graph on nodes w * n + v, one
        frontier level per pass.
        """
        n_worlds, n = live.shape[0], self.n_arms
        world, edge = np.divmod(np.flatnonzero(live), live.shape[1])
        u, v = self._ends[:, edge] + world * n
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

    def pull(self, members, rng) -> float:
        return cascade_exact(self, members, 1, rng)

    def pull_mean_many(self, masks, n: int, rng) -> np.ndarray:
        """Each row's mean of n successive ``pull`` calls, row by row."""
        rows = [np.flatnonzero(row) for row in self._check_masks(masks)]
        return np.array([np.mean([self.pull(S, rng) for _ in range(n)]) for S in rows])

    def exact(self, members) -> float:
        S = self._checked(members)
        return cascade_exact(self, S, self.exact_sims, np.random.default_rng((self.exact_seed, *S)))


def cascade_exact(env: CascadeEnv, members, n_sims: int, rng) -> float:
    """Mean activated fraction over n_sims independent cascades from the seed set.

    Draws the worlds in chunks of rows, so it consumes ``rng`` exactly as
    n_sims successive ``env.pull`` calls (each the n_sims = 1 case) would
    and returns their mean, up to rounding.
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    S = env._checked(members)
    if not S:
        return 0.0
    rows = max(1, _CHUNK_DRAWS // max(1, env.graph.n_edges))
    total = 0
    for start in range(0, n_sims, rows):
        # one row of edge coins per world, in draw order
        live = rng.random((min(rows, n_sims - start), env.graph.n_edges)) < env.activation_p
        total += int(env._spread_counts(S, live).sum())
    return total / (env.n_arms * n_sims)
