"""Policy round mechanics, confidence radii, budget ledgers, determinism."""

import itertools
import logging
import math
import re
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksvfair import (
    PolicyConfig,
    PolicyState,
    RunRecord,
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
from ksvfair.policies import _round_costs, round_robin_coalition
from reference import (
    GameOracle,
    loop_round_costs,
    reference_run_etcg,
    reference_run_ksvfair,
    reference_run_muras,
    reference_run_uniform,
)


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
        state.t = cfg.warm_rounds  # past warm-up: the next round is a merit round
        state.counts[:] = 3
        state.mean[:] = 0.4
        state.pool_n[:] = 3
        state.pool_sum[:] = 3 * 0.4
        state.pool_sumsq[:] = 3 * 0.16
        _, pi, _ = ksvfair_round(state, cfg, small_env(M=4, K=2), np.random.default_rng(0))
        phi_plus = state.last_phi_plus
        assert np.allclose(pi, 0.5)
        assert np.allclose(phi_plus, phi_plus[0])

    def test_optimism_ordering_invariants(self):
        cfg = small_cfg(rounds=25)
        oracle = small_env()
        state = PolicyState(cfg.M)
        rng = np.random.default_rng(1)
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
        assert rec.pulls.sum() <= cfg.T
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
        assert rec.pulls.sum() <= cfg.T

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

    def test_saturated_count_starts_when_every_arm_is_pooled(self, caplog):
        # with R = 1 each round pools one marginal per member, so pool_n is the
        # selection count: a round counts once every arm was selected twice before it
        cfg = small_cfg(R=1, L=1, radius_mode="worst_case", rounds=40)
        with caplog.at_level(logging.WARNING, logger="ksvfair.policies"):
            rec = run_ksvfair(cfg, small_env(), np.random.default_rng(6), seed=6)
        # least selection count over the arms after each round; round t reads entry t - 2
        fewest = np.cumsum(rec.selected, axis=0, dtype=int).min(axis=1)
        first = next(t for t in range(cfg.warm_rounds + 1, rec.n_rounds + 1) if fewest[t - 2] >= 2)
        assert first > cfg.warm_rounds + 1  # the warm-up pools some arms only once
        pooled = rec.n_rounds - first + 1
        [record] = caplog.records
        assert f"played uniform in {pooled} of {pooled} merit rounds" in record.getMessage()

    def test_noiseless_adaptive_no_warning(self, caplog):
        cfg = small_cfg(R=50, L=1, rounds=30)
        with caplog.at_level(logging.WARNING, logger="ksvfair.policies"):
            run_ksvfair(cfg, small_env(noise=0), np.random.default_rng(2), seed=4)
        assert caplog.records == []


class TestRunKsvfairReference:
    """``run_ksvfair`` against ``reference.reference_run_ksvfair``, the loop
    in plain floats: every ``RunRecord`` field and the generator state after
    the run.  ``pi`` may differ by ``PI_ULPS`` units of 1.0, since numpy adds
    the water-filling sums in its own order and takes its own logs (at M = 8
    the rows differ by up to 4); every other field matches bit for bit."""

    PI_ULPS = 8

    # L = 4000 keeps the worst-case radius below the cap, so pi is not uniform
    @pytest.mark.parametrize("mode, L", [("adaptive", 3), ("worst_case", 4000)])
    @pytest.mark.parametrize("M, K", [(5, 2), (8, 3), (7, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference(self, M, K, mode, L, seed):
        cfg = small_cfg(M, K, R=4, L=L, rounds=25, radius_mode=mode)
        env = small_env(M, K, noise=0.2)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rec = run_ksvfair(cfg, env, rng, seed=seed)
        ref = reference_run_ksvfair(cfg, env, rng_ref, seed=seed)
        assert [f.name for f in fields(RunRecord)] == ["seed", "pi", "selected", "pulls", "est_phi"]
        assert rec.seed == ref.seed
        assert np.abs(rec.pi - np.array(ref.pi)).max() <= self.PI_ULPS * np.spacing(1.0)
        assert rec.selected.tolist() == ref.selected
        assert rec.pulls.tolist() == ref.pulls
        assert rec.counts.tolist() == ref.counts
        assert rec.est_phi.tobytes() == np.array(ref.est_phi).tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        # the merit rounds play unequal marginals, so the radii reach the draws
        assert np.ptp(rec.pi[cfg.warm_rounds :], axis=1).max() > 0.01


class TestBaselineReferences:
    """``muras_run``, ``uniform_baseline`` and ``etcg_baseline`` against their
    plain-float loops in ``reference``: every ``RunRecord`` field, the
    selection counts and the generator state after the run, bit for bit.
    Only muras' merit rounds may differ, by ``PI_ULPS`` units of 1.0 in
    ``pi``, and only at M = 8, where numpy adds the water-filling sums
    pairwise and the reference left to right."""

    PI_ULPS = 8

    @staticmethod
    def assert_same_run(rec, ref, rng, rng_ref, pi_ulps=0):
        assert [f.name for f in fields(RunRecord)] == ["seed", "pi", "selected", "pulls", "est_phi"]
        assert rec.seed == ref.seed
        pi = np.array(ref.pi, dtype=float)
        if pi_ulps:
            assert np.abs(rec.pi - pi).max() <= pi_ulps * np.spacing(1.0)
        else:
            assert rec.pi.tobytes() == pi.tobytes()
        assert rec.selected.tolist() == ref.selected
        assert rec.pulls.tolist() == ref.pulls
        assert rec.counts.tolist() == np.sum(ref.selected, axis=0).tolist()
        assert rec.est_phi.tobytes() == np.array(ref.est_phi).tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @staticmethod
    def run_both(runner, reference, cfg, oracle, seed):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rec = runner(cfg, oracle, rng, seed=seed)
        return rec, reference(cfg, oracle, rng_ref, seed=seed), rng, rng_ref

    @pytest.mark.parametrize("M, K", [(5, 2), (7, 3), (8, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_muras_matches_reference(self, M, K, seed):
        cfg = small_cfg(M, K, R=3, L=2, rounds=12)
        env = small_env(M, K, noise=0.2, allow_extra_query=True)
        rec, ref, rng, rng_ref = self.run_both(muras_run, reference_run_muras, cfg, env, seed)
        # the uniform rounds are exact at every M
        assert rec.pi[: cfg.R].tobytes() == np.array(ref.pi[: cfg.R]).tobytes()
        self.assert_same_run(rec, ref, rng, rng_ref, self.PI_ULPS if M == 8 else 0)
        # the merit rounds play unequal marginals
        assert np.ptp(rec.pi[cfg.R :], axis=1).min() > 0.01

    def test_muras_uniform_fallback_matches_reference(self):
        # one positive arm with K = 2: every merit round falls back to K/M
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=2, L=1, rounds=6)
        oracle = GameOracle(additive_game([0.0, 0.0, 0.5, 0.0], 3), budget=2, allow_extra_query=True)
        rec, ref, rng, rng_ref = self.run_both(muras_run, reference_run_muras, cfg, oracle, 3)
        self.assert_same_run(rec, ref, rng, rng_ref)
        assert np.all(rec.pi == 0.5)

    @pytest.mark.parametrize("M, K", [(5, 2), (8, 3)])
    def test_uniform_matches_reference(self, M, K):
        cfg = small_cfg(M, K, rounds=40)
        rec, ref, rng, rng_ref = self.run_both(uniform_baseline, reference_run_uniform, cfg, small_env(M, K), 4)
        self.assert_same_run(rec, ref, rng, rng_ref)

    @pytest.mark.parametrize("M, K", [(5, 2), (8, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_etcg_matches_reference(self, M, K, seed):
        cfg = small_cfg(M, K, L=9, rounds=40)
        env = small_env(M, K, noise=0.3)
        rec, ref, rng, rng_ref = self.run_both(etcg_baseline, reference_run_etcg, cfg, env, seed)
        self.assert_same_run(rec, ref, rng, rng_ref)

    def test_etcg_tie_matches_reference(self):
        # noiseless, with arms 1, 2 and 4 worth the same: the first of them wins each tie
        oracle = GameOracle(additive_game([0.1, 0.3, 0.3, 0.05, 0.3], 2))
        cfg = PolicyConfig(T=10**6, M=5, K=2, R=1, L=4, rounds=15)
        rec, ref, rng, rng_ref = self.run_both(etcg_baseline, reference_run_etcg, cfg, oracle, 0)
        self.assert_same_run(rec, ref, rng, rng_ref)
        assert np.flatnonzero(rec.selected[-1]).tolist() == [1, 2]


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
        per_round = muras_round(oracle, cfg.L, np.random.default_rng(0)).pulls_consumed
        with pytest.raises(ValueError, match=rf"\({cfg.R * per_round} pulls\)"):
            muras_run(cfg, oracle, np.random.default_rng(0))
        # a budget of exactly the phase-1 rounds is accepted and spent
        fits = PolicyConfig(T=cfg.R * per_round, M=4, K=2, R=6, L=2)
        rec = muras_run(fits, oracle, np.random.default_rng(0))
        assert rec.n_rounds == cfg.R and rec.pulls.sum() == fits.T

    def test_round_cap_below_phase1_rejected(self):
        cfg = PolicyConfig(T=10**9, M=4, K=2, R=6, L=2, rounds=5)
        with pytest.raises(ValueError, match=r"rounds=5\) cannot cover the 6 uniform estimation"):
            muras_run(cfg, self.make_oracle(), np.random.default_rng(0))

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

    def test_every_subset_equally_likely(self):
        # each of the C(5, 2) = 10 pairs has frequency 1/10; the band is 4.5
        # binomial standard deviations, so a fair draw leaves it with
        # probability about 7e-5 over the 10 pairs
        n = 20_000
        cfg = PolicyConfig(T=10**9, M=5, K=2, R=1, L=1, rounds=n)
        rec = uniform_baseline(cfg, small_env(), np.random.default_rng(2))
        pairs = Counter(tuple(np.flatnonzero(row).tolist()) for row in rec.selected)
        assert sorted(pairs) == list(itertools.combinations(range(5), 2))
        band = 4.5 * math.sqrt(0.1 * 0.9 / n)
        assert all(abs(c / n - 0.1) < band for c in pairs.values())

    def test_rows_hold_k_distinct_arms(self):
        # a repeated arm in a drawn row would leave fewer than K marks in it
        cfg = PolicyConfig(T=10**9, M=7, K=3, R=1, L=1, rounds=500)
        rec = uniform_baseline(cfg, small_env(M=7, K=3), np.random.default_rng(3))
        assert rec.selected.shape == (cfg.rounds, cfg.M)
        assert set(np.unique(rec.selected)) == {0, 1}
        assert np.all(rec.selected.sum(axis=1) == cfg.K)

    def test_makes_no_pull(self, monkeypatch):
        # no reward is read, so none is simulated; the schedule still charges one per round
        for pull in ("pull", "pull_mean", "pull_mean_many"):
            monkeypatch.setattr(SyntheticEnv, pull, None)
        cfg = small_cfg(rounds=40)
        rec = uniform_baseline(cfg, small_env(), np.random.default_rng(4))
        np.testing.assert_array_equal(rec.pulls, np.ones(40))

    def test_same_seed_same_record(self):
        cfg = small_cfg(rounds=300)
        a = uniform_baseline(cfg, small_env(), np.random.default_rng(5), seed=5)
        b = uniform_baseline(cfg, small_env(), np.random.default_rng(5), seed=5)
        for field in ("pi", "selected", "pulls", "counts", "est_phi"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestEtcgBaseline:
    def test_commits_to_top_k_on_noiseless_additive(self):
        w = [0.05, 0.4, 0.1, 0.3, 0.15]
        cfg = PolicyConfig(T=10**6, M=5, K=2, R=1, L=4, rounds=60)
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
        cfg = PolicyConfig(T=30, M=5, K=2, R=1, L=4)
        oracle = GameOracle(additive_game([0.1] * 5, 2))
        with pytest.raises(ValueError, match="exploration"):
            etcg_baseline(cfg, oracle, np.random.default_rng(0))

    def test_budget_and_cap_exactly_covering_the_sweep(self):
        # 5 + 4 exploration rounds of 4 pulls: the sweep and not one commit round
        oracle = GameOracle(additive_game([0.05, 0.4, 0.1, 0.3, 0.15], 2))
        for T, rounds in [(36, None), (10**6, 9), (36, 9)]:
            cfg = PolicyConfig(T=T, M=5, K=2, R=1, L=4, rounds=rounds)
            rec = etcg_baseline(cfg, oracle, np.random.default_rng(0))
            assert rec.n_rounds == 9 and rec.pulls.sum() == 36
            assert np.all(rec.pulls == 4)

    def test_non_committed_arms_rarely_selected(self):
        w = [0.05, 0.4, 0.1, 0.3, 0.15]
        cfg = PolicyConfig(T=10**6, M=5, K=2, R=1, L=4, rounds=200)
        oracle = GameOracle(additive_game(w, 2))
        rec = etcg_baseline(cfg, oracle, np.random.default_rng(0))
        counts = rec.counts
        assert counts[1] > 150 and counts[3] > 150
        assert counts[0] <= 2 and counts[2] <= 2 and counts[4] <= 2


class SpyEnv(SyntheticEnv):
    """Records the coalition of every outermost pull and pull_mean, and of each
    row of an outermost pull_mean_many, as the baselines play them; a call
    made inside another recorded call (a learner's pull_mean_many inside its
    spied shapley_estimation) is not recorded again."""

    played: list
    depth = 0

    def spy(self, coalitions, call, *args, **kwargs):
        if self.depth == 0:
            self.played.extend(coalitions)
        self.depth += 1
        try:
            return call(*args, **kwargs)
        finally:
            self.depth -= 1

    @staticmethod
    def canon(members):
        return tuple(sorted(map(int, members)))

    def pull(self, members, rng):
        return self.spy([self.canon(members)], super().pull, members, rng)

    def pull_mean(self, members, n, rng):
        return self.spy([self.canon(members)], super().pull_mean, members, n, rng)

    def pull_mean_many(self, masks, n, rng):
        rows = [tuple(np.flatnonzero(row).tolist()) for row in masks]
        return self.spy(rows, super().pull_mean_many, masks, n, rng)


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
            return env.spy([tuple(S)], estimate, S, *args, **kwargs)

        def spy_round(*args, **kwargs):
            est = env.spy([], uniform_round, *args, **kwargs)
            env.played.append(est.coalition)
            return est

        monkeypatch.setattr(policies, "shapley_estimation", spy_estimation)
        monkeypatch.setattr(policies, "muras_round", spy_round)
        runner, _ = policies.ALGORITHMS[algo]
        cfg = PolicyConfig(T=10**6, M=self.M, K=self.K, R=5, L=3, rounds=60)
        rec = runner(cfg, env, np.random.default_rng(1), seed=1)
        if algo == "uniform":  # plays without pulling: its coalitions are the first K of each shuffle
            shuffles = np.random.default_rng(1).permuted(np.tile(np.arange(self.M), (60, 1)), axis=1)
            return rec, [tuple(sorted(row[: self.K].tolist())) for row in shuffles]
        return rec, env.played

    @pytest.mark.parametrize("algo", list(policies.ALGORITHMS))
    def test_selected_marks_played_coalitions(self, algo, monkeypatch):
        rec, played = self.run(algo, monkeypatch)
        assert rec.selected.dtype == np.uint8
        assert rec.selected.shape == (rec.n_rounds, self.M) == (60, self.M)
        assert len(played) == rec.n_rounds
        for row, S in zip(rec.selected, played):
            assert tuple(np.flatnonzero(row)) == S
        np.testing.assert_array_equal(rec.counts, rec.selected.sum(axis=0))

    def test_empty_run_shape(self):
        rec = RunRecord.scheduled(None, [], 4)
        assert rec.selected.shape == (0, 4) and rec.selected.dtype == np.uint8
        assert rec.pi.shape == (0, 4)
        assert rec.pulls.shape == (0,) and rec.n_rounds == 0
        assert rec.est_phi.shape == (4,) and np.isnan(rec.est_phi).all()
        np.testing.assert_array_equal(rec.counts, np.zeros(4, dtype=int))


class TestRoundCosts:
    """The up-front schedule against the round-by-round stop rule: it raises
    exactly when the loop would stop inside the head, the fixed phase."""

    @settings(max_examples=300, deadline=None)
    @given(
        T=st.integers(3, 400),
        cap=st.one_of(st.none(), st.integers(1, 40)),
        head=st.lists(st.integers(1, 60), max_size=12),
        tail=st.integers(1, 50),
    )
    def test_matches_round_by_round_loop(self, T, cap, head, tail):
        cfg = PolicyConfig(T=T, M=3, K=2, R=1, L=1, rounds=cap)
        expected = loop_round_costs(cfg, head, tail)
        if len(expected) < len(head):
            message = rf"\(T={T}, rounds={cap}\) cannot cover the {len(head)} test rounds \({sum(head)} pulls\)"
            with pytest.raises(ValueError, match=message):
                _round_costs(cfg, head, tail, "test")
            return
        costs = _round_costs(cfg, head, tail, "test")
        assert costs == expected
        assert all(type(c) is int for c in costs)

    @settings(max_examples=100, deadline=None)
    @given(head=st.lists(st.integers(1, 60), min_size=2, max_size=12), data=st.data())
    def test_cap_inside_the_head(self, head, data):
        cap = data.draw(st.integers(1, len(head) - 1))
        cfg = PolicyConfig(T=10**6, M=3, K=2, R=1, L=1, rounds=cap)
        assert loop_round_costs(cfg, head, 1) == head[:cap]
        with pytest.raises(ValueError, match=rf"rounds={cap}\) cannot cover the {len(head)} test rounds"):
            _round_costs(cfg, head, 1, "test")


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
            # the running mean of the raw (unclipped) estimates, one
            # observation per round, as PolicyState.absorb keeps its mean
            mean_raw = np.zeros(cfg.M)
            rng = np.random.default_rng(seed)
            for _ in range(25):
                n = state.counts.copy()
                _, _, est = ksvfair_round(state, cfg, oracle, rng)
                a = est.arms
                mean_raw[a] = (n[a] * mean_raw[a] + est.estimates[a]) / (n[a] + 1)
                if np.all(state.counts >= 1):
                    radii = confidence_radius(state.counts, cfg.R, cfg.L, cfg.M, cfg.delta1, cfg.delta2)
                    inside += int(np.sum(np.abs(mean_raw - phi_true) <= radii))
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
