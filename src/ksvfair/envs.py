"""Stochastic full-feedback valuation oracles.

Every environment implements ``exact``, the ground-truth mean of a
coalition (a backdoor used only to build the fair target policy and in
tests); ``pull``, one noisy reward (what a bandit run observes); and
``_pull_means``, the one query primitive: the mean of n fresh pulls of each
coalition of a flat, already checked batch.  The base class writes the two
public batch queries once over it: ``pull_mean_many`` takes an (n_sets, M)
boolean membership matrix, which is how the estimators query, and
``pull_mean`` one coalition, as a one-row batch with no mask and no second
check (``SyntheticEnv`` computes that row in scalars, bit for bit).  Pulls
take an explicit RNG so callers own determinism; environments are immutable.
``CascadeEnv`` draws only each world's live edges, as geometric gaps: about
pE uniforms per world at activation probability p, not one coin per edge.
"""

from __future__ import annotations

import functools
import logging
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .games import RestrictedGame, checked_coalition

log = logging.getLogger(__name__)


class ValuationOracle:
    """Interface shared by all environments.

    Subclasses implement ``exact``, ``pull`` and ``_pull_means(flat,
    lengths, n, rng)``, the mean of n pulls of each coalition of a checked
    flat batch: ``flat`` holds the member ids row after row, in ascending
    order within a row, and ``lengths`` each row's member count.  The
    constructor owns the dimensions: ``n_arms`` is M and ``budget`` the
    selection budget K, with 1 <= K <= M.  ``query_limit`` is the largest
    coalition a query may name: equal to K in strict mode, K + 1 when the
    environment was built with ``allow_extra_query`` (needed by estimators
    that probe one arm beyond a full coalition).  Every query is checked
    once, before any draw, and a coalition above the query limit raises
    ``CoalitionSizeError`` from ``games.checked_coalition``.
    """

    def __init__(self, n_arms: int, budget: int, *, allow_extra_query: bool = False):
        if not 1 <= budget <= n_arms:
            raise ValueError(f"need 1 <= K <= M, got K={budget}, M={n_arms}")
        self.n_arms = int(n_arms)
        self.budget = int(budget)
        self.query_limit = self.budget + (1 if allow_extra_query else 0)

    def exact(self, members) -> float:
        raise NotImplementedError

    def pull(self, members, rng) -> float:
        raise NotImplementedError

    def _pull_means(self, flat: np.ndarray, lengths: np.ndarray, n: int, rng) -> np.ndarray:
        """Mean of n independent pulls of each coalition of a checked flat batch."""
        raise NotImplementedError

    def _checked(self, members) -> tuple[int, ...]:
        return checked_coalition(members, self.n_arms, self.query_limit, "query limit")

    @staticmethod
    def _check_pull_count(n: int) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1 pulls per coalition, got {n}")

    def _check_masks(self, masks, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The flat batch of a membership matrix, checked: each row's member
        ids in ascending order, row after row, and each row's length."""
        self._check_pull_count(n)
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] != self.n_arms:
            raise ValueError(
                f"expected an (n_sets, {self.n_arms}) membership matrix, got shape {masks.shape}"
            )
        index = np.flatnonzero(masks)
        row = index // self.n_arms  # with the subtraction, cheaper than np.divmod
        flat = index - row * self.n_arms
        lengths = np.bincount(row, minlength=len(masks))
        if len(masks) and lengths.max() > self.query_limit:
            # the one coalition check raises, on the largest row
            self._checked(np.flatnonzero(masks[lengths.argmax()]))
        return flat, lengths

    def pull_mean_many(self, masks, n: int, rng) -> np.ndarray:
        """Mean of n independent pulls of each row of an (n_sets, M) membership matrix."""
        return self._pull_means(*self._check_masks(masks, n), n, rng)

    def pull_mean(self, members, n: int, rng) -> float:
        """Mean of n independent pulls of one coalition: the primitive on a one-row batch."""
        S = self._checked(members)
        self._check_pull_count(n)
        return float(self._pull_means(np.array(S, dtype=np.intp), np.array([len(S)]), n, rng)[0])

    def restricted_game(self) -> RestrictedGame:
        """The noiseless game over ``exact``, for fair-target computation."""
        return RestrictedGame(self.n_arms, self.budget, lambda S: self.exact(S))


def _segments(flat: np.ndarray, lengths: np.ndarray):
    """The coalitions of a flat batch, in row order, as tuples of ints."""
    members, start = flat.tolist(), 0
    for k in lengths.tolist():
        yield tuple(members[start : start + k])
        start += k


class SyntheticEnv(ValuationOracle):
    """Monotone submodular benchmark: concave transform of additive arm means.

    exact(S) = g(sum of member means) with
    g(x) = (1 - exp(-c x)) / (1 - exp(-c * total mean)), so the worth of the
    all-arms sum is normalized to 1; curvature c = 0 is the linear limit
    g(x) = x / total.  Coalition noise is the RMS of the member noise
    levels (independent per-arm noise observed only in aggregate), so
    equal levels give every coalition that level, up to an ulp.  A pull is
    the exact mean plus Gaussian noise at that level, clipped to [0, 1]:
    clipping (rather than resampling) keeps rewards bounded for the
    Hoeffding-style analysis, but moves a pull's mean off ``exact``: on the
    shipped game the clipped-mean game's fair target lies at l1 0.135 from
    this one's, the size of the learners' per-round fairness regret.

    ``means``, ``noise_stds`` and the squared noise levels are read-only
    copies of the caller's arrays, so no later write reaches a value.  The scalar path
    (``exact``, ``pull`` and ``_moment``) adds the members' entries as
    Python floats, left to right in ascending arm order; ``_moments``,
    behind ``pull_mean_many``, sums each row with ``np.add.reduceat``, and
    the query primitive ``_pull_means`` makes one standard-normal block over
    the batch, scaled, shifted, clipped and averaged in place; ``pull_mean``
    is that batch's one row in scalars, bit for bit.  The fair target's game
    values each coalition with ``_mean`` alone, since
    ``RestrictedGame.value`` has already checked it.
    """

    def __init__(
        self,
        means,
        noise_stds=None,
        *,
        budget: int,
        curvature: float = 1.0,
        allow_extra_query: bool = False,
    ):
        self.means = np.array(means, dtype=float)
        M = len(self.means)
        if noise_stds is None:
            noise_stds = np.zeros(M)
        self.noise_stds = np.array(noise_stds, dtype=float)
        if len(self.noise_stds) != M:
            raise ValueError("means and noise_stds must have the same length")
        # written so that a NaN fails each check
        if not np.all((self.means > 0) & (self.means <= 1)):
            raise ValueError("arm means must lie in (0, 1]")
        if not np.all((self.noise_stds >= 0) & (self.noise_stds < np.inf)):
            raise ValueError("noise levels must be finite and nonnegative")
        if not 0 <= curvature < math.inf:
            raise ValueError("curvature must be finite and nonnegative")
        super().__init__(M, budget, allow_extra_query=allow_extra_query)
        self.curvature = float(curvature)
        total = float(self.means.sum())
        # g's denominator, the transformed total: the same for every coalition
        self._denom = float(-np.expm1(-self.curvature * total)) if self.curvature else total
        self._noise_sq = self.noise_stds**2
        for arr in (self.means, self.noise_stds, self._noise_sq):
            arr.setflags(write=False)
        self._mean_list = self.means.tolist()
        self._noise_sq_list = self._noise_sq.tolist()

    def exact(self, members) -> float:
        return self._mean(self._checked(members))

    def _mean(self, S) -> float:
        if not S:
            return 0.0
        means = self._mean_list
        # left to right, as numpy's sum adds fewer than eight entries;
        # builtin sum is compensated from Python 3.12 on
        x = 0.0
        for i in S:
            x += means[i]
        return float(self._transform(x))

    def restricted_game(self) -> RestrictedGame:
        """The noiseless game over ``_mean``: the game checks each coalition
        against the budget K, within the query limit, so ``exact``'s second
        check is skipped; the values are ``exact``'s bit for bit."""
        return RestrictedGame(self.n_arms, self.budget, self._mean)

    def _transform(self, x):
        c = self.curvature
        if c == 0.0:
            return x / self._denom
        return -np.expm1(-c * x) / self._denom

    def _moment(self, S) -> tuple[float, float]:
        """Exact mean and RMS noise level of one checked coalition, in Python floats.

        One loop adds the means and the squared levels left to right, so for
        fewer than eight members the sums are bitwise numpy's
        ``means[S].sum()`` and ``noise_stds[S]**2`` mean; larger coalitions
        may differ from numpy by a few ulp.
        """
        if not S:
            return 0.0, 0.0
        means, noise_sq = self._mean_list, self._noise_sq_list
        x = q = 0.0
        for i in S:
            x += means[i]
            q += noise_sq[i]
        # sum / count is how np.mean divides, so this is bitwise its value
        return float(self._transform(x)), math.sqrt(q / len(S))

    def _moments(self, flat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row exact means and RMS noise levels of a checked flat batch,
        each summed per row by ``np.add.reduceat``.

        ``pull_mean`` sums its one row by the same reduceat, whose order
        neither ``np.add.reduce`` nor a loop matches.  Each row's members
        are taken in ascending arm order, but reduceat does not add them
        left to right as the scalar ``_moment`` does, so for coalitions of
        three or more arms a noiseless batched value can differ from
        ``exact`` by a few ulp (at most 3 on the shipped 20-arm game);
        coalitions of one or two arms agree bitwise.
        """
        nonempty = lengths > 0
        starts = (np.cumsum(lengths) - lengths)[nonempty]
        sum_means = np.zeros(len(lengths))
        sum_means[nonempty] = np.add.reduceat(self.means[flat], starts)
        sigmas = np.zeros(len(lengths))
        sigmas[nonempty] = np.sqrt(np.add.reduceat(self._noise_sq[flat], starts) / lengths[nonempty])
        return self._transform(sum_means), sigmas  # g(0) is +0.0, so empty rows stay 0

    def pull(self, members, rng) -> float:
        mu, sigma = self._moment(self._checked(members))
        if sigma == 0.0:
            return min(max(mu, 0.0), 1.0)
        # normal(0, sigma) draws 0 + sigma * z: this is its draw bit for bit,
        # and it leaves the generator in the same state
        return min(max(mu + sigma * rng.standard_normal(), 0.0), 1.0)

    def pull_mean(self, members, n: int, rng) -> float:
        """The one-row batch's mean, bit for bit, with no batch built."""
        S = self._checked(members)
        self._check_pull_count(n)
        if not S:
            return 0.0
        mu = float(self._transform(np.add.reduceat(self.means[list(S)], [0])[0]))
        sigma = math.sqrt(np.add.reduceat(self._noise_sq[list(S)], [0])[0] / len(S))
        if sigma == 0.0:
            return min(max(mu, 0.0), 1.0)
        draws = rng.standard_normal(n) * sigma + mu
        return float(draws.clip(0.0, 1.0, out=draws).sum() / n)

    def _pull_means(self, flat: np.ndarray, lengths: np.ndarray, n: int, rng) -> np.ndarray:
        mus, sigmas = self._moments(flat, lengths)
        exact = mus.clip(0.0, 1.0)
        if not sigmas.any():
            return exact
        draws = rng.standard_normal((len(mus), n))
        draws *= sigmas[:, None]
        draws += mus[:, None]
        means = draws.clip(0.0, 1.0, out=draws).sum(axis=1) / n
        # noiseless rows stay exact rather than picking up mean-of-copies rounding
        return np.where(sigmas == 0.0, exact, means)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph with densely indexed nodes.

    ``edges`` is a read-only (E, 2) intp array, one edge per row; a sequence
    of pairs given to the constructor is converted.  A graph pickles as its
    constructor call, so an unpickled one holds the same read-only array."""

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        # astype copies, into numpy's canonical intp dtype object
        edges = np.asarray(self.edges).astype(np.intp).reshape(-1, 2)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    def __reduce__(self):
        return Graph, (self.n_nodes, self.edges)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


# a node id as np.loadtxt reads an int64
_ID = re.compile(r"[+-]?[0-9]+")


def load_edge_list(path) -> Graph:
    """Parse whitespace-separated integer pairs, one edge per line.

    Ids are ASCII decimal integers within int64.  Blank lines are skipped,
    and lines whose first token starts with '#' are comments; a '#' further
    on is an error.  Self-loops and duplicate edges (in either orientation)
    are dropped and their counts logged; nodes are re-indexed densely in
    order of first appearance on kept edges.  The file is parsed in one
    ``np.loadtxt`` call; only a failed parse reads it line by line, to name
    the first bad line.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        # loadtxt drops each '#' with the rest of its line, which is right
        # only where the '#' opens the line's first token
        for match in re.finditer("#", text):
            before = text[text.rfind("\n", 0, match.start()) + 1 : match.start()].lstrip()
            if before and not before.startswith("#"):
                raise ValueError("a '#' after a token")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            ends = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
        if ends.size and ends.shape[1] != 2:
            raise ValueError(f"{ends.shape[1]} columns")
    except ValueError as exc:
        raise _line_error(path, text, exc) from exc
    ends = ends.reshape(-1, 2)
    loops = ends[:, 0] == ends[:, 1]
    ends = ends[~loops]
    # number the ids in order of first appearance, which with the self-loops
    # gone is first appearance on kept edges: a duplicate's ids came earlier
    inverse, first = _first_seen(ends.ravel())
    number = np.empty(len(first), dtype=np.intp)
    number[np.argsort(first)] = np.arange(len(first))
    ends = number.take(inverse).reshape(-1, 2)
    # keep the first edge of each (smaller, larger) pair, in file order; the
    # pair's key is below n**2, within int64 for any graph that fits in memory
    pair = np.minimum(*ends.T) * len(first) + np.maximum(*ends.T)
    edges = ends.take(np.sort(_first_seen(pair)[1]), axis=0)
    if not len(edges):
        raise ValueError(f"{path}: no edges found")
    self_loops, duplicates = int(loops.sum()), len(ends) - len(edges)
    if self_loops or duplicates:
        log.warning(
            "%s: dropped %d self-loop(s) and %d duplicate edge(s)",
            path,
            self_loops,
            duplicates,
        )
    return Graph(n_nodes=len(first), edges=edges)


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's index among the distinct values, in sorted order, and
    each distinct value's first position in ``values``."""
    distinct, inverse = np.unique(values, return_inverse=True)
    first = np.full(len(distinct), len(values))
    np.minimum.at(first, inverse, np.arange(len(values)))
    return inverse, first


def _line_error(path, text: str, exc: ValueError) -> ValueError:
    """The error of the first line of an edge list that is neither blank, a
    comment nor two int64 ids, or ``exc`` under the path if there is none."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            return ValueError(f"{path}:{lineno}: expected two tokens, got {parts!r}")
        if not all(_ID.fullmatch(t) for t in parts):
            return ValueError(f"{path}:{lineno}: non-integer token in {parts!r}")
        if not all(-(2**63) <= int(t) < 2**63 for t in parts):
            return ValueError(f"{path}:{lineno}: id outside int64 in {parts!r}")
    return ValueError(f"{path}: {exc}")


def _component_labels(n_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each node's component in the graph with edges (u[i], v[i]), labelled by
    the component's smallest node id.

    Min-label hooking plus pointer jumping (Shiloach and Vishkin, J.
    Algorithms 1982): every pass hooks the larger label of each edge whose
    ends disagree onto the smaller, then squares the label map twice
    (``label.take(label)``), so each node's label moves four links along its
    chain of labels for two gathers.  A label only decreases and always
    names a node of its own component, so the loop ends, with one label per
    component: the smallest node's own id, which it can never drop below.
    The first pass hooks each v[i] onto u[i] straight from the starting
    labels, the node ids, without gathering them: that is the full hook when
    every u[i] <= v[i], as ``CascadeEnv`` stores its edges, and any
    orientation ends at the same labels.  The second pass skips the
    convergence check: of 2,000 community worlds, none converges in one
    pass at p = 0.02 to 0.2 and 6 do at p = 0.4, and where a graph has, the
    second hook changes nothing, since every label is at most its node's
    id.  The pass count follows the logarithm of the component size rather
    than its diameter: a 10^5-node path takes 9, 10 or 12 passes, numbered
    in order, in reverse or at random.
    Fewer passes are needed when the nodes on most edges have the smallest
    ids, as ``CascadeEnv`` numbers them.  Convergence is tested on the bytes
    of the two gathered end-label rows, equal exactly when the contiguous
    intp rows are equal elementwise, and cheaper to compare.
    """
    label = np.arange(n_nodes)
    np.minimum.at(label, v, u)
    label = label.take(label)
    label = label.take(label)
    lu, lv = label.take(u), label.take(v)
    np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
    while True:
        label = label.take(label)
        label = label.take(label)
        lu, lv = label.take(u), label.take(v)
        if lu.tobytes() == lv.tobytes():
            return label
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))


# A chunk of _spread_mean's worlds draws at most _CHUNK_DRAWS uniforms and
# labels at most as many nodes: 12 worlds on the 534-node community graph.
# Each of its arrays then stays under 96 KiB, below glibc's default 128 KiB
# mmap threshold, so chunks reuse heap memory instead of mapping and faulting
# in fresh pages: with 32-world chunks (250 KiB blocks) a 1000-world exact
# took 21.6 ms in a fresh process, against 13.4 ms at 12 worlds (2-core AMD
# EPYC, Python 3.11, numpy 2.4).
_CHUNK_DRAWS = 12 * 1024

# Uniforms per live-edge block beyond p·E plus six standard deviations of the
# live count, Binomial(E, p), so that a block rarely ends before the last edge.
_GAP_SLACK = 16


class CascadeEnv(ValuationOracle):
    """Influence diffusion over an undirected graph.

    One pull seeds the coalition's nodes and runs a single independent
    cascade: each newly activated node gets one chance per currently
    inactive neighbour, succeeding with probability ``activation_p``; the
    reward is the activated fraction of the graph.  Each edge is tried at
    most once, from whichever end activates first, so a cascade has the
    same law as bond percolation (Kempe, Kleinberg and Tardos, KDD 2003):
    a pull draws the world's live edges and counts the nodes of the
    live-edge components that hold a seed, found by component labelling.
    The live edges are drawn as geometric gaps of the Bernoulli(p) sequence
    over ``graph.edges`` (Batagelj and Brandes, Phys. Rev. E 71, 036113,
    2005): a world draws a block of m uniforms, each gap is
    G = 1 + floor(log1p(-U) / log1p(-p)), and the running sums of the gaps
    are the live edge ids, in ascending order, about pE numbers instead of
    one coin per edge.  m = min(E + 1, ceil(pE + 6 sqrt(pE(1 - p))) + 16);
    a world whose block ends before the last edge draws further blocks, and
    when no edge can be live (p = 0, or no edges) nothing is drawn.  Each
    query checks its seed set once.  Worlds are labelled with the nodes
    renumbered once by descending degree, ties in id order (``_node`` maps
    a node id to its number): hubs then carry the smallest labels and the
    labelling takes fewer passes (2.19 rather than 2.61 on average over
    2,000 community worlds at p = 0.1), while the edge order, and so every
    draw, is the graph's own.  A one-world
    query (every ``pull``, and ``exact`` at ``exact_sims = 1``) labels
    its world alone, with no chunk loop and no world offsets; more worlds
    are labelled a chunk at a time, as one graph.  ``exact`` is a Monte-Carlo
    estimate (the true spread is intractable) with per-coalition standard
    error at most 1 / (2 sqrt(exact_sims)); its RNG is seeded by the
    coalition itself, so the estimate does not depend on query order and is
    recomputed identically on every call.
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
        super().__init__(graph.n_nodes, budget, allow_extra_query=allow_extra_query)
        if exact_sims < 1:
            raise ValueError("exact_sims must be >= 1")
        if not 0 <= exact_seed < 2**32:  # one uint32 word of _exact_rng's entropy
            raise ValueError(f"exact_seed must lie in [0, 2**32), got {exact_seed}")
        ends = graph.edges
        # batched worlds share one id range, so a stray endpoint would join two worlds
        if ends.size and (ends.min() < 0 or ends.max() >= graph.n_nodes):
            raise ValueError(f"edge endpoints must lie in [0, {graph.n_nodes})")
        self.graph = graph
        self.activation_p = float(activation_p)
        self.exact_sims = int(exact_sims)
        self.exact_seed = int(exact_seed)
        # the nodes renumbered by descending degree, ties in id order: hubs
        # take the smallest labels, so _component_labels needs fewer passes
        degree = np.bincount(ends.ravel(), minlength=graph.n_nodes)
        self._node = np.empty(graph.n_nodes, dtype=np.intp)
        self._node[np.argsort(-degree, kind="stable")] = np.arange(graph.n_nodes)
        # each edge's renumbered ends as two contiguous rows, the smaller in
        # _lo, so that _component_labels' first pass is the full hook
        ends = self._node.take(ends)
        self._lo, self._hi = np.minimum(*ends.T), np.maximum(*ends.T)
        for row in (self._node, self._lo, self._hi):
            row.setflags(write=False)
        # the live-edge draw's block size m, its gap divisor log1p(-p) and
        # the positions 0..m-1 that turn the sums of floors into gap sums
        E, p = graph.n_edges, self.activation_p
        block = math.ceil(p * E + 6 * math.sqrt(p * E * (1 - p))) + _GAP_SLACK
        self._gap_block = min(E + 1, block) if p * E > 0 else 0
        self._log_q = math.log1p(-p) if p < 1 else -math.inf
        # a double U < 1 has log1p(-U) >= -53 ln 2, so no gap quotient
        # exceeds 53 ln 2 / |log1p(-p)|: _gap_ids clips only where that reaches E - 1
        self._clip_gaps = 53 * math.log(2) >= -self._log_q * (E - 1)
        self._ramp = np.arange(self._gap_block)
        self._ramp.setflags(write=False)

    def __reduce__(self):
        """Pickle as the constructor call, so that a worker process rebuilds
        the index arrays rather than unpickling them: an unpickled int64
        array carries a dtype object other than numpy's canonical one, and
        ``np.minimum.at`` in ``_component_labels`` then leaves its fast path
        and a pull takes about twice as long."""
        build = functools.partial(
            CascadeEnv,
            budget=self.budget,
            exact_sims=self.exact_sims,
            exact_seed=self.exact_seed,
            allow_extra_query=self.query_limit > self.budget,
        )
        return build, (self.graph, self.activation_p)

    def _gap_ids(self, u: np.ndarray) -> np.ndarray:
        """The running gap sums of a block of uniforms (along the last axis,
        overwritten), less one: the live edge ids of that block, counted from
        the edge before the block.

        Each gap G = 1 + floor(log1p(-U) / log1p(-p)) is clipped at E + 1
        before the integer cast, so no quotient can overflow it, and a
        clipped gap still passes the last edge; where no quotient can pass
        E - 1 (p above about 0.0045 on the community graph) the clip is
        skipped.  U < 1, so log1p(-U) is finite; at p = 1 every quotient is
        0 and every edge is live.
        """
        np.log1p(np.negative(u, out=u), out=u)
        u /= self._log_q
        if self._clip_gaps:
            np.minimum(u, self.graph.n_edges, out=u)
        ids = u.astype(np.intp).cumsum(axis=-1)
        ids += self._ramp
        return ids

    def _world_edges(self, rng) -> np.ndarray:
        """One world's live edge ids, ascending: blocks of m gaps, drawn
        until the last gap sum reaches the last edge."""
        m, n_edges = self._gap_block, self.graph.n_edges
        if not m:
            return np.zeros(0, dtype=np.intp)
        ids = self._gap_ids(rng.random(m))
        while ids[-1] < n_edges - 1:
            ids = np.concatenate((ids, self._gap_ids(rng.random(m)) + (ids[-1] + 1)))
        return ids[: ids.searchsorted(n_edges)]

    def _chunk_edges(self, n_worlds: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """The live edges of n_worlds successive worlds as two rows, each
        live edge's world and edge id, world after world, edges ascending.

        One (n_worlds, m) block of uniforms consumes rng exactly as n_worlds
        ``_world_edges`` calls do.  If a world's block ends before the last
        edge, the generator is set back to its state before the block and
        the chunk is drawn world by world, so the draws stay those of
        successive worlds.
        """
        m, n_edges = self._gap_block, self.graph.n_edges
        if not m:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        state = rng.bit_generator.state
        ids = self._gap_ids(rng.random((n_worlds, m)))
        if ids[:, -1].min() < n_edges - 1:
            rng.bit_generator.state = state
            edges = [self._world_edges(rng) for _ in range(n_worlds)]
            return np.repeat(np.arange(n_worlds), [len(e) for e in edges]), np.concatenate(edges)
        live = ids < n_edges
        return np.repeat(np.arange(n_worlds), np.count_nonzero(live, axis=1)), ids[live]

    def _spread_counts(self, S, world: np.ndarray, edge: np.ndarray, n_worlds: int) -> np.ndarray:
        """Nodes reachable from S in each of n_worlds worlds, over the live
        edges given as a pair of rows, each live edge's world and edge id.

        Worlds are labelled together as one graph on nodes w * n + v, v a
        renumbered node (``_component_labels``); the nodes S reaches in a
        world are the components holding one of its seeds.
        """
        n = self.n_arms
        offset = world * n
        u, v = self._lo.take(edge) + offset, self._hi.take(edge) + offset
        label = _component_labels(n_worlds * n, u, v)
        reached = np.zeros(n_worlds * n, dtype=bool)
        reached[label.take((np.arange(n_worlds)[:, None] * n + self._node.take(S)).ravel())] = True
        return reached.take(label).reshape(n_worlds, n).sum(axis=1)

    def _world_count(self, S, edge: np.ndarray) -> int:
        """Nodes reachable from S over one world's live edge ids.

        The one-world case of ``_spread_counts``: the renumbered nodes,
        with no world offsets.
        """
        label = _component_labels(self.n_arms, self._lo.take(edge), self._hi.take(edge))
        reached = np.zeros(self.n_arms, dtype=bool)
        reached[label.take(self._node.take(S))] = True
        return int(np.count_nonzero(reached.take(label)))

    def _exact_rng(self, S: tuple[int, ...]) -> np.random.Generator:
        """The generator ``exact`` draws S's worlds from: the stream of
        ``default_rng((exact_seed, *S))``, seeded from one uint32 array
        built in one ``np.fromiter`` call."""
        return np.random.default_rng(np.fromiter((self.exact_seed, *S), np.uint32))

    def pull(self, members, rng) -> float:
        return _spread_mean(self, self._checked(members), 1, rng)

    def _pull_means(self, flat: np.ndarray, lengths: np.ndarray, n: int, rng) -> np.ndarray:
        """Each row's mean of n successive ``pull`` calls, row by row: the
        pulls as one (rows, n) array, averaged along its rows."""
        pulls = [self.pull(S, rng) for S in _segments(flat, lengths) for _ in range(n)]
        return np.array(pulls).reshape(-1, n).mean(axis=1)

    def exact(self, members) -> float:
        S = self._checked(members)
        return _spread_mean(self, S, self.exact_sims, self._exact_rng(S))


def _spread_mean(env: CascadeEnv, S: tuple[int, ...], n_sims: int, rng) -> float:
    """Mean activated fraction over n_sims >= 1 independent cascades from a
    checked seed set S: ``pull`` is the one-world case, ``exact`` the
    ``exact_sims``-world case.  It consumes ``rng`` exactly as n_sims
    successive one-world calls would and returns their mean, up to rounding.

    One world draws its live edges (``CascadeEnv._world_edges``) and labels
    them alone (``CascadeEnv._world_count``); more worlds are drawn a chunk
    at a time, one block of uniforms per chunk with the same draws as
    successive worlds (``CascadeEnv._chunk_edges``), and labelled a chunk at
    a time (``CascadeEnv._spread_counts``).
    """
    if not S:
        return 0.0
    if n_sims == 1:
        return env._world_count(S, env._world_edges(rng)) / env.n_arms
    rows = max(1, _CHUNK_DRAWS // max(env._gap_block, env.n_arms))
    total = 0
    for start in range(0, n_sims, rows):
        n_worlds = min(rows, n_sims - start)
        total += int(env._spread_counts(S, *env._chunk_edges(n_worlds, rng), n_worlds).sum())
    return total / (env.n_arms * n_sims)
