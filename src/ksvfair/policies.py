"""Bandit policies: optimistic merit sampling, uniform-phase merit sampling,
and the uniform-random / explore-then-commit controls.

A run is a chain of rounds.  Each round selects a coalition, spends oracle
pulls on estimation, and logs the selection probabilities it played.  Every
round of the learners and of the uniform baseline selects exactly K arms.
etcg's exploration sweep does not: each sweep round plays the committed
prefix plus one candidate, 1 to K arms, and logs that set's indicator, so
its ``pi`` row sums to the set's size rather than to K; its commit rounds
play K arms.  Budget currency is oracle pulls: a round's literal pull cost
depends only on the config, so each runner's schedule function (paired
with it in ``ALGORITHMS``) fixes the rounds before round 1, stopping before
the first round that would pass the pull budget T or the optional round cap
(both limits are exposed because pull budget and round count differ by the
per-round estimation cost).  A config too small for a runner's fixed phase
(ksvfair's warm-up, muras' uniform rounds, etcg's sweep) is rejected by
its schedule, before any pull.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .estimation import RoundEstimates, muras_round, pull_cost, shapley_estimation
from .rounding import normalize_to_marginals, rrs_sample

log = logging.getLogger(__name__)

RADIUS_MODES = ("worst_case", "adaptive")


@dataclass(frozen=True)
class PolicyConfig:
    T: int
    M: int
    K: int
    R: int = 50
    L: int = 20
    delta1: float = 0.05
    delta2: float = 0.05
    rounds: int | None = None
    radius_mode: str = "adaptive"

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

    @property
    def warm_rounds(self) -> int:
        return math.ceil(self.M / self.K)


def confidence_radius(N, R: int, L: int, M: int, delta1: float, delta2: float):
    """Two-term Hoeffding-style radius around a pooled marginal estimate,
    for one observation count N or elementwise for an array of counts.

    sqrt(ln(2M/d1) / (2 N R)) covers ordering-sampling error over the
    N R sampled orderings; 2 sqrt(ln(4 N R M / d2) / (2 L)) covers the
    reward noise left after L-pull smoothing, union-bounded over every
    estimate taken so far.  The second term does not shrink with N, so at
    small L this radius saturates the [0, 1] value range; see
    ``PolicyConfig.radius_mode`` for the variance-adaptive alternative.
    """
    N = np.asarray(N, dtype=float)
    if (N < 1).any():
        raise ValueError("arm has no observations yet; run the round-robin phase first")
    first = np.sqrt(np.log(2 * M / delta1) / (N * (2 * R)))
    second = 2 * np.sqrt(np.log(N * (4 * R * M) / delta2) / (2 * L))
    return first + second


class PolicyState:
    """Mutable per-run estimation state of ``run_ksvfair`` and ``muras_run``.

    Keeps a running mean per arm over non-negatively clipped round
    estimates, which drives the selection probabilities, keeping them in
    [0, 1].  Pooled sums of the per-ordering marginals and their squares
    back the variance-adaptive radius.
    """

    def __init__(self, M: int):
        self.t = 0
        self.counts = np.zeros(M, dtype=int)
        self.mean = np.zeros(M)
        self.pool_n = np.zeros(M, dtype=int)
        self.pool_sum = np.zeros(M)
        self.pool_sumsq = np.zeros(M)
        self.last_phi_plus = np.full(M, np.nan)

    def absorb(self, est: RoundEstimates, weight: int = 1) -> None:
        """Fold one round's clipped estimates into the running mean as
        ``weight`` observations each, and pool its ``n_perms`` per-ordering
        marginals."""
        a, value = est.arms, est.estimates[est.arms]
        n = self.counts[a]
        self.mean[a] = (n * self.mean[a] + weight * np.maximum(value, 0.0)) / (n + weight)
        self.counts[a] = n + weight
        self.pool_n[a] += est.n_perms
        self.pool_sum[a] += est.n_perms * value
        self.pool_sumsq[a] += est.n_perms * est.squares[a]

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
        worst = confidence_radius(self.counts, cfg.R, cfg.L, cfg.M, cfg.delta1, cfg.delta2)
        if cfg.radius_mode == "worst_case":
            return worst
        n = self.pool_n.astype(float)
        safe_n = np.maximum(n, 2)
        mean = self.pool_sum / safe_n
        var = np.maximum(self.pool_sumsq / safe_n - mean**2, 0.0)
        logt = np.log(2 * cfg.M * (self.counts + 1) / cfg.delta1)
        bonus = np.sqrt(2 * var * logt / safe_n) + 2 * logt / safe_n
        return np.where(n >= 2, np.minimum(worst, bonus), worst)


def round_robin_coalition(t: int, M: int, K: int) -> tuple[int, ...]:
    """Coalition for warm-up round t (1-based): K consecutive arms mod M."""
    return tuple(sorted(((t - 1) * K + j) % M for j in range(K)))


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
        est = shapley_estimation(S, oracle, 1, 1, rng)
        pi = np.zeros(cfg.M)
        pi[list(S)] = 1.0
    else:
        state.last_phi_plus = np.minimum(state.mean + state.radii(cfg), 1.0)
        pi = normalize_to_marginals(state.last_phi_plus, cfg.K)
        S = rrs_sample(pi, cfg.K, rng)
        est = shapley_estimation(S, oracle, cfg.R, cfg.L, rng)
    state.absorb(est)
    state.t = t
    return S, pi, est


@dataclass
class RunRecord:
    """Full log of one policy run: one row per round plus final summaries."""

    seed: int | None
    pi: np.ndarray
    selected: np.ndarray
    pulls: np.ndarray
    est_phi: np.ndarray

    @classmethod
    def scheduled(cls, seed: int | None, costs: list[int], M: int) -> RunRecord:
        """The record of a run whose schedule is ``costs``, at its final size.
        The runner writes round t's ``pi[t]`` and ``selected[t]`` (all 0 until
        then) in place, and a learner sets ``est_phi`` (NaN until then) at the end."""
        n = len(costs)
        pi, selected = np.empty((n, M)), np.zeros((n, M), dtype=np.uint8)
        return cls(seed, pi, selected, np.array(costs, dtype=int), np.full(M, np.nan))

    @property
    def n_rounds(self) -> int:
        return len(self.pulls)

    @property
    def pulls_cum(self) -> np.ndarray:
        return np.cumsum(self.pulls)

    @property
    def counts(self) -> np.ndarray:
        return self.selected.sum(axis=0, dtype=int)


def _check_oracle(cfg: PolicyConfig, oracle, query_limit: int | None = None) -> None:
    """Reject an oracle whose dimensions differ from the config's, or whose
    query limit is below ``query_limit`` (K by default)."""
    if oracle.n_arms != cfg.M or oracle.budget != cfg.K:
        raise ValueError(
            f"oracle dims (M={oracle.n_arms}, K={oracle.budget}) do not match "
            f"config (M={cfg.M}, K={cfg.K})"
        )
    need = query_limit or cfg.K
    if oracle.query_limit < need:
        raise ValueError(
            f"oracle rejects coalitions of size {need}; build the environment "
            "with allow_extra_query=True for this policy"
        )


def _round_costs(cfg: PolicyConfig, head, tail: int, phase: str) -> list[int]:
    """Pull cost of every round a run plays: the ``head`` costs in order,
    then ``tail`` per round, stopping before the first round that would pass
    the round cap or the pull budget T.  The head is the runner's fixed
    ``phase``: a budget or cap that cannot cover all of it is a
    ``ValueError``.  The schedule depends only on the config, so every seed
    of a run plays the same rounds."""
    cap = cfg.rounds if cfg.rounds is not None else math.inf
    used = sum(head)
    if len(head) > cap or used > cfg.T:
        raise ValueError(
            f"budget (T={cfg.T}, rounds={cfg.rounds}) cannot cover the {len(head)} "
            f"{phase} rounds ({used} pulls)"
        )
    return list(head) + [tail] * int(min((cfg.T - used) // tail, cap - len(head)))


def ksvfair_schedule(cfg: PolicyConfig) -> list[int]:
    """Round costs of ``run_ksvfair``: ceil(M/K) warm-up rounds of one
    ordering at one pull per mean, then R orderings of L pulls per mean."""
    warm = [pull_cost(cfg.K, 1)] * cfg.warm_rounds
    return _round_costs(cfg, warm, pull_cost(cfg.R * cfg.K, cfg.L), "warm-up")


def muras_schedule(cfg: PolicyConfig) -> list[int]:
    """Round costs of ``muras_run``: R uniform estimation rounds, then merit
    rounds of R orderings of L pulls."""
    phase1 = [pull_cost(cfg.M, cfg.L)] * cfg.R
    return _round_costs(cfg, phase1, pull_cost(cfg.R * cfg.K, cfg.L), "uniform estimation")


def uniform_schedule(cfg: PolicyConfig) -> list[int]:
    """Round costs of ``uniform_baseline``: one pull per round, no fixed phase."""
    return _round_costs(cfg, [], 1, "")


def etcg_schedule(cfg: PolicyConfig) -> list[int]:
    """Round costs of ``etcg_baseline``: one exploration sweep of L pulls
    per candidate, then one pull per commit round."""
    sweep = [cfg.L] * sum(cfg.M - k for k in range(cfg.K))
    return _round_costs(cfg, sweep, 1, "exploration sweep")


def run_ksvfair(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Run the optimistic merit policy until the pull budget or round cap binds."""
    _check_oracle(cfg, oracle)
    rec = RunRecord.scheduled(seed, ksvfair_schedule(cfg), cfg.M)
    state = PolicyState(cfg.M)
    pooled, saturated, all_pooled = 0, 0, False
    for t in range(rec.n_rounds):
        # an arm with fewer than two pooled marginals keeps the worst-case radius and
        # caps at 1 by design; only count rounds where none does (pool_n never drops)
        all_pooled = all_pooled or (state.t >= cfg.warm_rounds and (state.pool_n >= 2).all())
        S, pi, _ = ksvfair_round(state, cfg, oracle, rng)
        if all_pooled:
            pooled += 1
            saturated += bool((state.last_phi_plus >= 1.0).all())
        rec.pi[t] = pi
        rec.selected[t, list(S)] = 1
    if saturated:
        log.warning(
            "run_ksvfair (seed %s) played uniform in %d of %d merit rounds with every "
            "arm pooled: every optimistic value capped at 1 (radius_mode=%s)",
            seed,
            saturated,
            pooled,
            cfg.radius_mode,
        )
    rec.est_phi[:] = state.mean
    return rec


def muras_run(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Uniform estimation for R rounds, then merit-proportional sampling.

    Phase 1 plays R uniform rounds, each estimating all M arms from one
    random ordering (2 L M pulls per round); arms sampled into the round's
    coalition count as selected.  Phase 2 freezes into merit-proportional
    probabilities from the running estimates, samples coalitions with
    exact marginals, and keeps refreshing the selected arms' estimates;
    each refresh contributes its R ordering samples to the running mean.
    """
    _check_oracle(cfg, oracle, query_limit=min(cfg.K + 1, cfg.M))
    M, K = cfg.M, cfg.K
    rec = RunRecord.scheduled(seed, muras_schedule(cfg), M)
    state = PolicyState(M)
    uniform = np.full(M, K / M)
    rec.pi[: cfg.R] = uniform
    for t in range(cfg.R):
        est = muras_round(oracle, cfg.L, rng)
        state.absorb(est)
        rec.selected[t, list(est.coalition)] = 1

    fallbacks = 0
    for t in range(cfg.R, rec.n_rounds):
        if np.count_nonzero(state.mean) >= K:
            pi = normalize_to_marginals(state.mean, K)
        else:
            pi = uniform  # degenerate estimates; fall back rather than abort
            fallbacks += 1
        S = rrs_sample(pi, K, rng)
        est = shapley_estimation(S, oracle, cfg.R, cfg.L, rng)
        state.absorb(est, weight=est.n_perms)
        rec.pi[t] = pi
        rec.selected[t, list(S)] = 1
    if fallbacks:
        log.warning(
            "muras_run (seed %s) fell back to uniform in %d of %d merit rounds: "
            "fewer than K=%d arms had a positive estimate",
            seed,
            fallbacks,
            rec.n_rounds - cfg.R,
            K,
        )
    rec.est_phi[:] = state.mean
    return rec


def uniform_baseline(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Select K arms uniformly at random each round; one observation per round.

    The policy never reads a reward, so every round is drawn up front: one
    independent shuffle of the arms per round, whose first K are that
    round's coalition.  The schedule charges each round its one pull, but
    no reward is simulated, since none would be read.
    """
    _check_oracle(cfg, oracle)
    M, K = cfg.M, cfg.K
    rec = RunRecord.scheduled(seed, uniform_schedule(cfg), M)
    arms = rng.permuted(np.tile(np.arange(M), (rec.n_rounds, 1)), axis=1)[:, :K]
    np.put_along_axis(rec.selected, arms, 1, axis=1)
    rec.pi[:] = K / M
    return rec


def etcg_baseline(cfg: PolicyConfig, oracle, rng, seed: int | None = None) -> RunRecord:
    """Phased greedy: explore marginal gains on the growing prefix, then commit.

    Each exploration round evaluates one candidate on top of the committed
    prefix with the mean of L pulls; after sweeping the candidates the
    best joins the prefix.  Once K arms are committed the set is played
    forever.  Probabilities are logged as the played set's indicator, so
    the policy is deliberately degenerate, and a sweep round's ``pi`` sums
    to its set's size (prefix + 1, from 1 to K), not to K.
    """
    _check_oracle(cfg, oracle)
    M, K = cfg.M, cfg.K
    rec = RunRecord.scheduled(seed, etcg_schedule(cfg), M)
    prefix: list[int] = []
    t = 0  # the next round's row
    for _ in range(K):
        candidates = [a for a in range(M) if a not in prefix]
        best_arm, best_mean = candidates[0], -np.inf
        for cand in candidates:
            played = prefix + [cand]
            m = oracle.pull_mean(played, cfg.L, rng)
            rec.selected[t, played] = 1
            t += 1
            if m > best_mean:
                best_arm, best_mean = cand, m
        prefix.append(best_arm)

    committed = tuple(sorted(prefix))
    for _ in range(t, rec.n_rounds):  # the commit rounds, after the sweep
        oracle.pull(committed, rng)
    rec.selected[t:, prefix] = 1
    rec.pi[:] = rec.selected  # each round's policy is the indicator of its set
    return rec


# each algorithm's runner and round schedule, by the name a config gives it
ALGORITHMS = {
    "ksvfair": (run_ksvfair, ksvfair_schedule),
    "muras": (muras_run, muras_schedule),
    "uniform": (uniform_baseline, uniform_schedule),
    "etcg": (etcg_baseline, etcg_schedule),
}
