"""Bandit policies: optimistic merit sampling, uniform-phase merit sampling,
and the uniform-random / explore-then-commit controls.

A run is a chain of rounds.  Each round selects a coalition of exactly K
arms, spends oracle pulls on estimation, and logs the selection
probabilities it played.  Budget currency is oracle pulls: a run stops
before any round whose literal pull cost would exceed the remaining
budget, and optionally at a round cap (both limits are exposed because
pull budget and round count differ by the per-round estimation cost).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .estimation import RoundEstimates, muras_pull_cost, muras_round, pull_cost, shapley_estimation
from .rounding import normalize_to_marginals, rrs_sample

log = logging.getLogger(__name__)

RADIUS_MODES = ("worst_case", "adaptive")


@dataclass(frozen=True)
class PolicyConfig:
    T: int
    M: int
    K: int
    R: int
    L: int
    delta1: float = 0.05
    delta2: float = 0.05
    rounds: int | None = None
    radius_mode: str = "adaptive"
    reuse_prefix: bool = False
    explore_pulls: int = 20

    def __post_init__(self):
        if self.T <= self.K:
            raise ValueError(f"pull budget T={self.T} must exceed K={self.K}")
        if not 1 <= self.K <= self.M:
            raise ValueError(f"need 1 <= K <= M, got K={self.K}, M={self.M}")
        if self.R < 1 or self.L < 1:
            raise ValueError("R and L must be >= 1")
        for name, d in (("delta1", self.delta1), ("delta2", self.delta2)):
            if not 0.0 < d < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {d}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("round cap must be >= 1")
        if self.radius_mode not in RADIUS_MODES:
            raise ValueError(f"radius_mode must be one of {RADIUS_MODES}")
        if self.explore_pulls < 1:
            raise ValueError("explore_pulls must be >= 1")

    @property
    def warm_rounds(self) -> int:
        return math.ceil(self.M / self.K)


def confidence_radius(N: int, R: int, L: int, M: int, delta1: float, delta2: float) -> float:
    """Two-term Hoeffding-style radius around a pooled marginal estimate.

    sqrt(ln(2M/d1) / (2 N R)) covers ordering-sampling error over the
    N R sampled orderings; 2 sqrt(ln(4 N R M / d2) / (2 L)) covers the
    reward noise left after L-pull smoothing, union-bounded over every
    estimate taken so far.  The second term does not shrink with N, so at
    small L this radius saturates the [0, 1] value range; see
    ``PolicyConfig.radius_mode`` for the variance-adaptive alternative.
    """
    if N < 1:
        raise ValueError("arm has no observations yet; run the round-robin phase first")
    return float(_worst_case_radii(np.array([N]), R, L, M, delta1, delta2)[0])


def _worst_case_radii(N, R, L, M, delta1, delta2) -> np.ndarray:
    N = np.asarray(N, dtype=float)
    first = np.sqrt(np.log(2 * M / delta1) / (2 * N * R))
    second = 2 * np.sqrt(np.log(4 * N * R * M / delta2) / (2 * L))
    return first + second


class PolicyState:
    """Mutable per-run estimation state of ``run_ksvfair`` and ``muras_run``.

    Keeps two running means per arm: one over non-negatively clipped round
    estimates (drives the selection probabilities, keeping them in [0, 1])
    and one over raw estimates (reporting only).  Pooled sums of the
    per-ordering marginals and their squares back the variance-adaptive
    radius.
    """

    def __init__(self, M: int):
        self.t = 0
        self.counts = np.zeros(M, dtype=int)
        self.mean = np.zeros(M)
        self.mean_raw = np.zeros(M)
        self.pool_n = np.zeros(M, dtype=int)
        self.pool_sum = np.zeros(M)
        self.pool_sumsq = np.zeros(M)
        self.last_radius = np.full(M, np.nan)
        self.last_phi_plus = np.full(M, np.nan)

    def absorb(self, est: RoundEstimates, weight: int = 1) -> None:
        """Fold one round's estimates into the running means as ``weight``
        observations each, and pool its ``n_perms`` per-ordering marginals."""
        a, value = est.arms, est.estimates[est.arms]
        n = self.counts[a]
        self.mean[a] = (n * self.mean[a] + weight * np.maximum(value, 0.0)) / (n + weight)
        self.mean_raw[a] = (n * self.mean_raw[a] + weight * value) / (n + weight)
        self.counts[a] = n + weight
        w = est.n_perms
        self.pool_n[a] += w
        self.pool_sum[a] += w * value
        self.pool_sumsq[a] += w * est.squares[a]

    def radii(self, cfg: PolicyConfig) -> np.ndarray:
        """Per-arm optimism bonus used for the selection probabilities.

        'worst_case' is the literal two-term radius.  At practical
        smoothing levels its reward-noise term exceeds the whole value
        range, every optimistic value caps at 1 and the policy degenerates
        to uniform, so the default 'adaptive' mode intersects it with a
        Bernstein-shaped bonus on the pooled per-ordering marginals:
        sqrt(2 V n_log / n) + 2 n_log / n over n pooled samples with
        empirical variance V and n_log = ln(2 M (N+1) / delta1).  Arms
        with fewer than two pooled samples keep the worst-case radius.
        """
        if np.any(self.counts < 1):
            raise ValueError("all arms need at least one observation before radii exist")
        worst = _worst_case_radii(self.counts, cfg.R, cfg.L, cfg.M, cfg.delta1, cfg.delta2)
        if cfg.radius_mode == "worst_case":
            return worst
        n = self.pool_n.astype(float)
        ok = n >= 2
        safe_n = np.maximum(n, 2)
        mean = self.pool_sum / safe_n
        var = np.maximum(self.pool_sumsq / safe_n - mean**2, 0.0)
        logt = np.log(2 * cfg.M * (self.counts + 1) / cfg.delta1)
        bonus = np.sqrt(2 * var * logt / safe_n) + 2 * logt / safe_n
        return np.where(ok, np.minimum(worst, bonus), worst)


def round_robin_coalition(t: int, M: int, K: int) -> tuple[int, ...]:
    """Coalition for warm-up round t (1-based): K consecutive arms mod M."""
    return tuple(sorted(((t - 1) * K + j) % M for j in range(K)))


def _optimistic_policy(state: PolicyState, cfg: PolicyConfig) -> tuple[np.ndarray, np.ndarray]:
    c = state.radii(cfg)
    state.last_radius = c
    phi_plus = np.minimum(state.mean + c, 1.0)
    state.last_phi_plus = phi_plus
    pi = normalize_to_marginals(phi_plus, cfg.K).probs
    return pi, phi_plus


def ksvfair_round(state: PolicyState, cfg: PolicyConfig, oracle, rng):
    """Play one round of the optimistic merit policy; mutates ``state``.

    Rounds 1 .. ceil(M/K) are round-robin with a single cheap estimate per
    arm, guaranteeing every arm one observation.  Later rounds form
    optimistic values, normalize them into selection probabilities (cap
    and redistribute above 1), sample the coalition with exact marginals,
    and refresh the members' estimates.  Returns (coalition, probabilities
    played, round estimates).
    """
    t = state.t + 1
    if t < cfg.warm_rounds + 1:
        S = round_robin_coalition(t, cfg.M, cfg.K)
        est = shapley_estimation(S, oracle, 1, 1, rng, reuse_prefix=cfg.reuse_prefix)
        pi = np.zeros(cfg.M)
        pi[list(S)] = 1.0
    else:
        pi, _ = _optimistic_policy(state, cfg)
        S = rrs_sample(pi, cfg.K, rng)
        est = shapley_estimation(S, oracle, cfg.R, cfg.L, rng, reuse_prefix=cfg.reuse_prefix)
    state.absorb(est)
    state.t = t
    return S, pi, est


@dataclass
class RunRecord:
    """Full log of one policy run: one row per round plus final summaries."""

    algo: str
    seed: int | None
    config: PolicyConfig
    pi: np.ndarray
    selected: np.ndarray
    pulls: np.ndarray
    counts: np.ndarray
    est_phi: np.ndarray
    est_phi_raw: np.ndarray

    @property
    def n_rounds(self) -> int:
        return len(self.pulls)

    @property
    def pulls_cum(self) -> np.ndarray:
        return np.cumsum(self.pulls)

    @property
    def total_pulls(self) -> int:
        return int(self.pulls.sum())


class _Recorder:
    """Per-round log of one run.  ``log`` keeps references (callers never
    mutate a logged policy or coalition); ``finish`` copies them into arrays."""

    def __init__(self, M: int):
        self.M = M
        self.pi_rows: list[np.ndarray] = []
        self.coalitions: list[tuple[int, ...]] = []
        self.pull_rows: list[int] = []

    def log(self, pi: np.ndarray, S, pulls: int) -> None:
        self.pi_rows.append(pi)
        self.coalitions.append(S)
        self.pull_rows.append(int(pulls))

    def finish(self, algo, seed, cfg, counts, est_phi, est_raw) -> RunRecord:
        n = len(self.coalitions)
        selected = np.zeros((n, self.M), dtype=np.uint8)
        rows = np.repeat(np.arange(n), [len(S) for S in self.coalitions])
        selected[rows, np.fromiter(itertools.chain.from_iterable(self.coalitions), np.intp)] = 1
        return RunRecord(
            algo=algo,
            seed=seed,
            config=cfg,
            pi=np.array(self.pi_rows, dtype=float) if self.pi_rows else np.zeros((0, self.M)),
            selected=selected,
            pulls=np.array(self.pull_rows, dtype=int),
            counts=np.asarray(counts, dtype=int).copy(),
            est_phi=np.asarray(est_phi, dtype=float).copy(),
            est_phi_raw=np.asarray(est_raw, dtype=float).copy(),
        )


def _check_oracle(cfg: PolicyConfig, oracle) -> None:
    if oracle.n_arms != cfg.M or oracle.budget != cfg.K:
        raise ValueError(
            f"oracle dims (M={oracle.n_arms}, K={oracle.budget}) do not match "
            f"config (M={cfg.M}, K={cfg.K})"
        )


def _round_allowed(used: int, cost: int, t: int, cfg: PolicyConfig) -> bool:
    if cfg.rounds is not None and t > cfg.rounds:
        return False
    return used + cost <= cfg.T


def run_ksvfair(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Run the optimistic merit policy until the pull budget or round cap binds."""
    _check_oracle(cfg, oracle)
    state = PolicyState(cfg.M)
    rec = _Recorder(cfg.M)
    warm_cost = pull_cost(cfg.K, 1, 1, cfg.reuse_prefix)
    main_cost = pull_cost(cfg.K, cfg.R, cfg.L, cfg.reuse_prefix)
    used = 0
    pooled = saturated = 0
    while True:
        t = state.t + 1
        merit = t > cfg.warm_rounds
        if not _round_allowed(used, main_cost if merit else warm_cost, t, cfg):
            break
        # an arm with fewer than two pooled marginals keeps the worst-case
        # radius and caps at 1 by design; only count rounds where none does
        all_pooled = merit and np.all(state.pool_n >= 2)
        S, pi, est = ksvfair_round(state, cfg, oracle, rng)
        if all_pooled:
            pooled += 1
            saturated += bool(np.all(state.last_phi_plus >= 1.0))
        used += est.pulls_consumed
        rec.log(pi, S, est.pulls_consumed)
    if saturated:
        log.warning(
            "run_ksvfair (seed %s) played uniform in %d of %d merit rounds with every "
            "arm pooled: every optimistic value capped at 1 (radius_mode=%s)",
            seed,
            saturated,
            pooled,
            cfg.radius_mode,
        )
    return rec.finish("ksvfair", seed, cfg, state.counts, state.mean, state.mean_raw)


def muras_run(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Uniform estimation for R rounds, then merit-proportional sampling.

    Phase 1 plays R uniform rounds, each estimating all M arms from one
    random ordering (2 L M pulls per round); arms sampled into the round's
    coalition count as selected.  Phase 2 freezes into merit-proportional
    probabilities from the running estimates, samples coalitions with
    exact marginals, and keeps refreshing the selected arms' estimates;
    each refresh contributes its R ordering samples to the running mean.
    """
    _check_oracle(cfg, oracle)
    if cfg.K < cfg.M and oracle.query_limit < cfg.K + 1:
        raise ValueError(
            "oracle rejects coalitions of size K+1; build the environment with "
            "allow_extra_query=True for this policy"
        )
    phase1_rounds = cfg.R
    phase1_cost_each = muras_pull_cost(cfg.M, cfg.L)
    if cfg.T < phase1_rounds * phase1_cost_each:
        raise ValueError(
            f"budget T={cfg.T} cannot cover the {phase1_rounds} uniform estimation "
            f"rounds ({phase1_rounds * phase1_cost_each} pulls)"
        )
    if cfg.rounds is not None and cfg.rounds < phase1_rounds:
        raise ValueError(f"round cap {cfg.rounds} is below the {phase1_rounds} uniform rounds")

    M, K = cfg.M, cfg.K
    rec = _Recorder(M)
    state = PolicyState(M)
    sel_counts = np.zeros(M, dtype=int)
    uniform = np.full(M, K / M)
    used = 0
    for _ in range(phase1_rounds):
        est = muras_round(oracle, M, K, cfg.L, rng)
        state.absorb(est)
        sel_counts[list(est.coalition)] += 1
        used += est.pulls_consumed
        rec.log(uniform, est.coalition, est.pulls_consumed)

    main_cost = pull_cost(K, cfg.R, cfg.L, cfg.reuse_prefix)
    t = phase1_rounds
    fallbacks = 0
    while True:
        t += 1
        if not _round_allowed(used, main_cost, t, cfg):
            break
        if np.count_nonzero(state.mean) >= K:
            pi = normalize_to_marginals(state.mean, K).probs
        else:
            pi = uniform  # degenerate estimates; fall back rather than abort
            fallbacks += 1
        S = rrs_sample(pi, K, rng)
        est = shapley_estimation(S, oracle, cfg.R, cfg.L, rng, reuse_prefix=cfg.reuse_prefix)
        state.absorb(est, weight=est.n_perms)
        sel_counts[list(S)] += 1
        used += est.pulls_consumed
        rec.log(pi, S, est.pulls_consumed)
    if fallbacks:
        log.warning(
            "muras_run (seed %s) fell back to uniform in %d of %d merit rounds: "
            "fewer than K=%d arms had a positive estimate",
            seed,
            fallbacks,
            t - 1 - phase1_rounds,
            K,
        )
    return rec.finish("muras", seed, cfg, sel_counts, state.mean, state.mean_raw)


def uniform_baseline(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Select K arms uniformly at random each round; one observation per round."""
    _check_oracle(cfg, oracle)
    M, K = cfg.M, cfg.K
    rec = _Recorder(M)
    counts = np.zeros(M, dtype=int)
    uniform = np.full(M, K / M)
    used = 0
    t = 0
    while True:
        t += 1
        if not _round_allowed(used, 1, t, cfg):
            break
        S = tuple(sorted(rng.choice(M, size=K, replace=False).tolist()))
        oracle.pull(S, rng)
        counts[list(S)] += 1
        used += 1
        rec.log(uniform, S, 1)
    nan = np.full(M, np.nan)
    return rec.finish("uniform", seed, cfg, counts, nan, nan)


def etcg_baseline(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Phased greedy: explore marginal gains on the growing prefix, then commit.

    Each exploration round evaluates one candidate on top of the committed
    prefix with ``explore_pulls`` pulls; after sweeping the candidates the
    best joins the prefix.  Once K arms are committed the set is played
    forever.  Probabilities are logged as the played set's indicator, so
    the policy is deliberately degenerate.
    """
    _check_oracle(cfg, oracle)
    M, K = cfg.M, cfg.K
    explore_rounds = sum(M - k for k in range(K))
    explore_cost = cfg.explore_pulls * explore_rounds
    if cfg.T < explore_cost or (cfg.rounds is not None and cfg.rounds < explore_rounds):
        raise ValueError(
            f"budget (T={cfg.T}, rounds={cfg.rounds}) cannot cover one exploration "
            f"sweep of {explore_rounds} rounds / {explore_cost} pulls"
        )
    rec = _Recorder(M)
    counts = np.zeros(M, dtype=int)
    used = 0
    t = 0
    prefix: list[int] = []
    aborted = False
    for _ in range(K):
        candidates = [a for a in range(M) if a not in prefix]
        best_arm, best_mean = candidates[0], -np.inf
        for cand in candidates:
            t += 1
            if not _round_allowed(used, cfg.explore_pulls, t, cfg):
                aborted = True
                break
            played = tuple(sorted(prefix + [cand]))
            m = oracle.pull_mean(played, cfg.explore_pulls, rng)
            indicator = np.zeros(M)
            indicator[list(played)] = 1.0
            counts[list(played)] += 1
            used += cfg.explore_pulls
            rec.log(indicator, played, cfg.explore_pulls)
            if m > best_mean:
                best_arm, best_mean = cand, m
        if aborted:
            break
        prefix.append(best_arm)

    if not aborted:
        committed = tuple(sorted(prefix))
        indicator = np.zeros(M)
        indicator[list(committed)] = 1.0
        while True:
            t += 1
            if not _round_allowed(used, 1, t, cfg):
                break
            oracle.pull(committed, rng)
            counts[list(committed)] += 1
            used += 1
            rec.log(indicator, committed, 1)
    nan = np.full(M, np.nan)
    return rec.finish("etcg", seed, cfg, counts, nan, nan)
