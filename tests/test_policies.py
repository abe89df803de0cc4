"""Policy round mechanics, confidence radii, budget ledgers, determinism."""

import logging
import math
import re

import numpy as np
import pytest

from ksvfair import (
    GameOracle,
    PolicyConfig,
    PolicyState,
    SyntheticEnv,
    additive_game,
    confidence_radius,
    etcg_baseline,
    ksvfair_round,
    muras_round,
    muras_run,
    run_ksvfair,
    uniform_baseline,
)
from ksvfair import policies
from ksvfair.games import canon
from ksvfair.policies import _Recorder, round_robin_coalition


def small_env(M=5, K=2, noise=0.15, allow_extra_query=False):
    means = np.linspace(0.3, 0.9, M)
    stds = np.full(M, noise) if noise else None
    return SyntheticEnv(means, stds, budget=K, allow_extra_query=allow_extra_query)


def small_cfg(M=5, K=2, R=5, L=3, rounds=30, **kw):
    return PolicyConfig(T=10**9, M=M, K=K, R=R, L=L, rounds=rounds, **kw)


class TestConfidenceRadius:
    def test_hand_evaluated_value(self):
        expected = math.sqrt(math.log(40) / 2) + 2 * math.sqrt(math.log(80) / 2)
        assert confidence_radius(1, 1, 1, 2, 0.1, 0.1) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(4.3185, abs=5e-4)

    def test_decreasing_in_samples(self):
        base = confidence_radius(10, 20, 30, 6, 0.05, 0.05)
        assert confidence_radius(20, 20, 30, 6, 0.05, 0.05) < base
        assert confidence_radius(10, 40, 30, 6, 0.05, 0.05) < base

    def test_smoothing_term_decreasing_in_l(self):
        def second_term(L):
            return 2 * math.sqrt(math.log(4 * 10 * 20 * 6 / 0.05) / (2 * L))

        assert second_term(60) < second_term(30)
        full_30 = confidence_radius(10, 20, 30, 6, 0.05, 0.05)
        full_60 = confidence_radius(10, 20, 60, 6, 0.05, 0.05)
        assert full_60 < full_30

    def test_vanishes_jointly(self):
        big = confidence_radius(10**6, 10**6, 10**6, 6, 0.05, 0.05)
        assert big < 0.02

    def test_unobserved_arm_rejected(self):
        with pytest.raises(ValueError):
            confidence_radius(0, 1, 1, 2, 0.1, 0.1)


class TestRoundRobin:
    def test_pinned_schedule_m5_k2(self):
        assert round_robin_coalition(1, 5, 2) == (0, 1)
        assert round_robin_coalition(2, 5, 2) == (2, 3)
        assert round_robin_coalition(3, 5, 2) == (0, 4)

    def test_coverage_after_warm_up(self):
        for M, K in [(5, 2), (6, 3), (7, 3), (4, 4)]:
            seen = set()
            for t in range(1, math.ceil(M / K) + 1):
                seen.update(round_robin_coalition(t, M, K))
            assert seen == set(range(M))


class TestKsvfairRound:
    def test_warm_up_selects_schedule_and_cheap_estimates(self):
        cfg = small_cfg()
        oracle = small_env()
        state = PolicyState(cfg.M)
        rng = np.random.default_rng(0)
        S, pi, est = ksvfair_round(state, cfg, oracle, rng)
        assert S == (0, 1)
        assert est.pulls_consumed == 2 * cfg.K  # R=1, L=1 during warm-up
        np.testing.assert_array_equal(pi[list(S)], 1.0)

    def test_all_arms_observed_after_warm_up(self):
        cfg = small_cfg()
        oracle = small_env()
        state = PolicyState(cfg.M)
        rng = np.random.default_rng(0)
        for _ in range(cfg.warm_rounds):
            ksvfair_round(state, cfg, oracle, rng)
        assert np.all(state.counts >= 1)

    def test_equal_optimistic_values_give_uniform_policy(self):
        cfg = small_cfg(M=4, K=2)
        state = PolicyState(4)
        state.counts[:] = 3
        state.mean[:] = 0.4
        state.pool_n[:] = 3
        state.pool_sum[:] = 3 * 0.4
        state.pool_sumsq[:] = 3 * 0.16
        from ksvfair.policies import _optimistic_policy

        pi, phi_plus = _optimistic_policy(state, cfg)
        assert np.allclose(pi, 0.5)
        assert np.allclose(phi_plus, phi_plus[0])

    def test_optimism_ordering_invariants(self):
        cfg = small_cfg(rounds=25)
        oracle = small_env()
        state = PolicyState(cfg.M)
        rng = np.random.default_rng(1)
        from ksvfair.policies import _optimistic_policy

        for t in range(25):
            before = state.mean.copy()
            S, pi, est = ksvfair_round(state, cfg, oracle, rng)
            if t >= cfg.warm_rounds:
                phi_plus = state.last_phi_plus
                assert np.all(phi_plus >= before - 1e-12)
                assert np.all(phi_plus <= 1.0 + 1e-12)
                # policy ranking tracks the optimistic values (pairwise,
                # insensitive to float nudges within tied groups)
                for i in range(cfg.M):
                    for j in range(cfg.M):
                        if phi_plus[i] < phi_plus[j] - 1e-9:
                            assert pi[i] <= pi[j] + 1e-9

    def test_worst_case_mode_saturates_to_uniform(self):
        # the worst-case radius exceeds 1 at small L, so every optimistic
        # value caps at 1 and the policy collapses to uniform
        cfg = small_cfg(radius_mode="worst_case", rounds=10)
        oracle = small_env()
        state = PolicyState(cfg.M)
        rng = np.random.default_rng(2)
        last_pi = None
        for _ in range(10):
            _, last_pi, _ = ksvfair_round(state, cfg, oracle, rng)
        assert np.allclose(last_pi, cfg.K / cfg.M)


class TestRunKsvfair:
    def test_round_cap_and_pull_ledger(self):
        cfg = small_cfg(rounds=20)
        rec = run_ksvfair(cfg, small_env(), np.random.default_rng(3), seed=3)
        assert rec.n_rounds == 20
        assert rec.total_pulls == rec.pulls.sum() <= cfg.T
        warm = cfg.warm_rounds
        assert np.all(rec.pulls[:warm] == 2 * cfg.K)
        assert np.all(rec.pulls[warm:] == cfg.R * cfg.K * 2 * cfg.L)

    def test_budget_cap_stops_before_overdraft(self):
        # budget covers warm-up plus two and a half main rounds
        warm = 3 * 4  # ceil(5/2)=3 rounds of 2K pulls
        main = 5 * 2 * 2 * 3
        cfg = PolicyConfig(T=warm + int(2.5 * main), M=5, K=2, R=5, L=3)
        rec = run_ksvfair(cfg, small_env(), np.random.default_rng(4))
        assert rec.n_rounds == 3 + 2
        assert rec.total_pulls <= cfg.T

    def test_deterministic_records(self):
        cfg = small_cfg(rounds=15)
        a = run_ksvfair(cfg, small_env(), np.random.default_rng(7), seed=7)
        b = run_ksvfair(cfg, small_env(), np.random.default_rng(7), seed=7)
        np.testing.assert_array_equal(a.pi, b.pi)
        np.testing.assert_array_equal(a.selected, b.selected)
        np.testing.assert_array_equal(a.pulls, b.pulls)
        np.testing.assert_array_equal(a.est_phi, b.est_phi)

    def test_selection_counts_match_rows(self):
        cfg = small_cfg(rounds=18)
        rec = run_ksvfair(cfg, small_env(), np.random.default_rng(8))
        np.testing.assert_array_equal(rec.counts, rec.selected.sum(axis=0))
        assert np.all(rec.selected.sum(axis=1) == cfg.K)

    def test_oracle_dims_checked(self):
        cfg = small_cfg(M=6, K=2)
        with pytest.raises(ValueError):
            run_ksvfair(cfg, small_env(M=5), np.random.default_rng(0))

    def test_reuse_prefix_pull_costs(self):
        cfg = small_cfg(rounds=8, reuse_prefix=True)
        rec = run_ksvfair(cfg, small_env(), np.random.default_rng(9))
        warm = cfg.warm_rounds
        assert np.all(rec.pulls[:warm] == cfg.K + 1)
        assert np.all(rec.pulls[warm:] == cfg.R * (cfg.K + 1) * cfg.L)

    def test_saturated_radius_warns_with_count(self, caplog):
        # the worst-case radius caps every arm at 1 in every merit round
        cfg = small_cfg(radius_mode="worst_case", rounds=30)
        with caplog.at_level(logging.WARNING, logger="ksvfair.policies"):
            rec = run_ksvfair(cfg, small_env(), np.random.default_rng(2), seed=4)
        np.testing.assert_allclose(rec.pi[cfg.warm_rounds :], cfg.K / cfg.M)
        [record] = caplog.records
        match = re.search(r"played uniform in (\d+) of \1 merit rounds", record.getMessage())
        assert match and int(match[1]) >= 20
        assert "seed 4" in record.getMessage()

    def test_noiseless_adaptive_no_warning(self, caplog):
        cfg = small_cfg(R=50, L=1, rounds=30)
        with caplog.at_level(logging.WARNING, logger="ksvfair.policies"):
            run_ksvfair(cfg, small_env(noise=0), np.random.default_rng(2), seed=4)
        assert caplog.records == []


class TestMuras:
    def make_oracle(self, w=(0.1, 0.2, 0.3, 0.4), K=2):
        game = additive_game(w, K + 1)
        return GameOracle(game, budget=K, allow_extra_query=True)

    def test_noiseless_additive_phase2_proportional(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=6, L=2, rounds=10)
        rec = muras_run(cfg, self.make_oracle(), np.random.default_rng(0), seed=0)
        expected = 2 * w / w.sum()
        for t in range(cfg.R, rec.n_rounds):
            np.testing.assert_allclose(rec.pi[t], expected, atol=1e-12)

    def test_phase1_logs_uniform_policy(self):
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=6, L=2, rounds=10)
        rec = muras_run(cfg, self.make_oracle(), np.random.default_rng(1))
        for t in range(cfg.R):
            np.testing.assert_allclose(rec.pi[t], 0.5)
        assert np.all(rec.pulls[: cfg.R] == 2 * cfg.L * cfg.M)

    def test_budget_below_phase1_rejected(self):
        cfg = PolicyConfig(T=50, M=4, K=2, R=6, L=2)
        with pytest.raises(ValueError, match="uniform estimation"):
            muras_run(cfg, self.make_oracle(), np.random.default_rng(0))

    def test_phase1_budget_is_the_round_cost(self):
        cfg = PolicyConfig(T=50, M=4, K=2, R=6, L=2)
        oracle = self.make_oracle()
        per_round = muras_round(oracle, cfg.M, cfg.K, cfg.L, np.random.default_rng(0)).pulls_consumed
        with pytest.raises(ValueError, match=rf"\({cfg.R * per_round} pulls\)"):
            muras_run(cfg, oracle, np.random.default_rng(0))
        # a budget of exactly the phase-1 rounds is accepted and spent
        fits = PolicyConfig(T=cfg.R * per_round, M=4, K=2, R=6, L=2)
        rec = muras_run(fits, oracle, np.random.default_rng(0))
        assert rec.n_rounds == cfg.R and rec.pulls.sum() == fits.T

    def test_strict_oracle_rejected(self):
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=2, L=2, rounds=5)
        strict = GameOracle(additive_game([0.1, 0.2, 0.3, 0.4], 2))
        with pytest.raises(ValueError, match="allow_extra_query"):
            muras_run(cfg, strict, np.random.default_rng(0))

    def test_full_budget_needs_no_extra_query(self):
        w = [0.2, 0.3, 0.5]
        cfg = PolicyConfig(T=10**9, M=3, K=3, R=2, L=2, rounds=4)
        oracle = GameOracle(additive_game(w, 3))
        rec = muras_run(cfg, oracle, np.random.default_rng(0))
        assert rec.n_rounds == 4

    def test_uniform_fallback_warns_with_count(self, caplog):
        # one positive arm with K=2: no merit round can normalize the estimates
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=2, L=1, rounds=6)
        oracle = self.make_oracle(w=(0.0, 0.0, 0.5, 0.0))
        with caplog.at_level(logging.WARNING, logger="ksvfair.policies"):
            rec = muras_run(cfg, oracle, np.random.default_rng(0), seed=3)
        np.testing.assert_allclose(rec.pi, 0.5)
        [record] = caplog.records
        assert "fell back to uniform in 4 of 4 merit rounds" in record.getMessage()
        assert "seed 3" in record.getMessage()

    def test_no_fallback_no_warning(self, caplog):
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=2, L=1, rounds=6)
        with caplog.at_level(logging.WARNING, logger="ksvfair.policies"):
            muras_run(cfg, self.make_oracle(), np.random.default_rng(0))
        assert caplog.records == []

    def test_deterministic(self):
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=4, L=2, rounds=9)
        a = muras_run(cfg, self.make_oracle(), np.random.default_rng(5))
        b = muras_run(cfg, self.make_oracle(), np.random.default_rng(5))
        np.testing.assert_array_equal(a.pi, b.pi)
        np.testing.assert_array_equal(a.selected, b.selected)


class TestUniformBaseline:
    def test_logs_uniform_and_single_pulls(self):
        cfg = small_cfg(rounds=50)
        rec = uniform_baseline(cfg, small_env(), np.random.default_rng(0), seed=0)
        assert rec.n_rounds == 50
        assert np.all(rec.pulls == 1)
        np.testing.assert_allclose(rec.pi, cfg.K / cfg.M)

    def test_empirical_frequency_near_k_over_m(self):
        cfg = PolicyConfig(T=10**9, M=5, K=2, R=1, L=1, rounds=4000)
        rec = uniform_baseline(cfg, small_env(), np.random.default_rng(1))
        freq = rec.counts / rec.n_rounds
        band = 3 * math.sqrt(0.4 * 0.6 / 4000)
        assert np.all(np.abs(freq - 0.4) < band)


class TestEtcgBaseline:
    def test_commits_to_top_k_on_noiseless_additive(self):
        w = [0.05, 0.4, 0.1, 0.3, 0.15]
        cfg = PolicyConfig(T=10**6, M=5, K=2, R=1, L=1, rounds=60, explore_pulls=4)
        oracle = GameOracle(additive_game(w, 2))
        rec = etcg_baseline(cfg, oracle, np.random.default_rng(0), seed=0)
        explore_rounds = 5 + 4
        committed = np.flatnonzero(rec.selected[-1])
        np.testing.assert_array_equal(committed, [1, 3])
        # commit rounds play the same indicator policy
        for t in range(explore_rounds, rec.n_rounds):
            np.testing.assert_array_equal(np.flatnonzero(rec.pi[t]), [1, 3])
        assert np.all(rec.pulls[:explore_rounds] == 4)
        assert np.all(rec.pulls[explore_rounds:] == 1)

    def test_budget_too_small_for_sweep(self):
        cfg = PolicyConfig(T=30, M=5, K=2, R=1, L=1, explore_pulls=4)
        oracle = GameOracle(additive_game([0.1] * 5, 2))
        with pytest.raises(ValueError, match="exploration"):
            etcg_baseline(cfg, oracle, np.random.default_rng(0))

    def test_non_committed_arms_rarely_selected(self):
        w = [0.05, 0.4, 0.1, 0.3, 0.15]
        cfg = PolicyConfig(T=10**6, M=5, K=2, R=1, L=1, rounds=200, explore_pulls=4)
        oracle = GameOracle(additive_game(w, 2))
        rec = etcg_baseline(cfg, oracle, np.random.default_rng(0))
        counts = rec.counts
        assert counts[1] > 150 and counts[3] > 150
        assert counts[0] <= 2 and counts[2] <= 2 and counts[4] <= 2


class SpyEnv(SyntheticEnv):
    """Records the coalition of every pull and pull_mean, as the baselines play them."""

    played: list

    def pull(self, members, rng):
        self.played.append(canon(members))
        return super().pull(members, rng)

    def pull_mean(self, members, n, rng):
        self.played.append(canon(members))
        return super().pull_mean(members, n, rng)


class TestRecorder:
    """``RunRecord.selected`` marks exactly the coalition each round played."""

    M, K = 6, 2

    def run(self, algo, monkeypatch):
        env = SpyEnv(
            np.linspace(0.2, 0.95, self.M),
            np.linspace(0.1, 0.4, self.M),
            budget=self.K,
            curvature=0.25,
            allow_extra_query=algo == "muras",
        )
        env.played = []
        # the learners name each round's coalition to one shapley_estimation
        # (or, in muras' uniform phase, get it back from one muras_round)
        estimate, uniform_round = policies.shapley_estimation, policies.muras_round

        def spy_estimation(S, *args, **kwargs):
            env.played.append(tuple(S))
            return estimate(S, *args, **kwargs)

        def spy_round(*args, **kwargs):
            est = uniform_round(*args, **kwargs)
            env.played.append(est.coalition)
            return est

        monkeypatch.setattr(policies, "shapley_estimation", spy_estimation)
        monkeypatch.setattr(policies, "muras_round", spy_round)
        runner = {
            "ksvfair": run_ksvfair,
            "muras": muras_run,
            "uniform": uniform_baseline,
            "etcg": etcg_baseline,
        }[algo]
        cfg = PolicyConfig(T=10**6, M=self.M, K=self.K, R=5, L=3, rounds=60, explore_pulls=4)
        rec = runner(cfg, env, np.random.default_rng(1), seed=1)
        return rec, env.played

    @pytest.mark.parametrize("algo", ["ksvfair", "muras", "uniform", "etcg"])
    def test_selected_marks_played_coalitions(self, algo, monkeypatch):
        rec, played = self.run(algo, monkeypatch)
        assert rec.selected.dtype == np.uint8
        assert rec.selected.shape == (rec.n_rounds, self.M) == (60, self.M)
        assert len(played) == rec.n_rounds
        for row, S in zip(rec.selected, played):
            assert tuple(np.flatnonzero(row)) == S
        if algo in ("uniform", "etcg"):
            np.testing.assert_array_equal(rec.selected.sum(axis=0), rec.counts)

    def test_empty_run_shape(self):
        rec = _Recorder(4).finish("uniform", None, small_cfg(M=4), np.zeros(4), np.zeros(4), np.zeros(4))
        assert rec.selected.shape == (0, 4) and rec.selected.dtype == np.uint8
        assert rec.pi.shape == (0, 4)


class TestConfidenceCoverage:
    def test_worst_case_interval_covers_true_values(self):
        # the worst-case interval around the running mean must contain the
        # enumeration-exact value for at least a 1 - d1 - d2 share of
        # (arm, round) pairs across seeds
        from ksvfair import exact_k_shapley

        cfg = small_cfg(M=5, K=2, R=4, L=3, rounds=25)
        oracle = small_env(noise=0.2)
        phi_true = exact_k_shapley(oracle.restricted_game()).values
        inside = 0
        total = 0
        for seed in range(10):
            state = PolicyState(cfg.M)
            rng = np.random.default_rng(seed)
            for _ in range(25):
                ksvfair_round(state, cfg, oracle, rng)
                if np.all(state.counts >= 1):
                    from ksvfair.policies import _worst_case_radii

                    radii = _worst_case_radii(state.counts, cfg.R, cfg.L, cfg.M, cfg.delta1, cfg.delta2)
                    inside += int(np.sum(np.abs(state.mean_raw - phi_true) <= radii))
                    total += cfg.M
        assert inside / total >= 1 - cfg.delta1 - cfg.delta2


class TestPolicyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(T=2, M=5, K=2, R=1, L=1)
        with pytest.raises(ValueError):
            PolicyConfig(T=100, M=5, K=6, R=1, L=1)
        with pytest.raises(ValueError):
            PolicyConfig(T=100, M=5, K=2, R=0, L=1)
        with pytest.raises(ValueError):
            PolicyConfig(T=100, M=5, K=2, R=1, L=1, delta1=1.5)
        with pytest.raises(ValueError):
            PolicyConfig(T=100, M=5, K=2, R=1, L=1, radius_mode="bogus")
