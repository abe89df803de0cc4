"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The regret benchmarks
(criteria 5-7) share one 30-seed run of all four policies at the shipped
benchmark configuration, played in-process in about 20 s.
``test_golden_output_digests`` pins that run's records, the round and arm
tables of its seed-1 records, the CSVs of ``configs/cascade_tiny.ini`` and
those of seed 1 of ``configs/cascade_community.ini`` at the benchmark's cuts
to ``tests/golden_digests.txt`` byte for byte.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ksvfair import (
    CascadeEnv,
    FairnessLedger,
    SyntheticEnv,
    carrier_exact_values,
    carrier_game,
    classical_shapley,
    confidence_radius,
    exact_k_shapley,
    fair_policy,
    load_edge_list,
    merit_to_selection,
    normalize_to_marginals,
    regret_slope,
    rrs_sample,
    shapley_estimation,
    verify_axioms,
)
from ksvfair.cli import run_experiment

import golden
from reference import cascade_exact, prefix_shapley_within, random_table_game

REPO = Path(__file__).resolve().parent.parent


def report(num, ok, detail, started, limit):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_axiom_suite():
    t0 = time.time()
    cases = [(5, 2), (6, 3), (7, 4), (8, 2), (8, 3)]
    worst = 0.0
    all_ok = True
    for seed in range(20):
        M, K = cases[seed % len(cases)]
        rng = np.random.default_rng(seed)
        game = random_table_game(M, K, rng)
        partner = random_table_game(M, K, np.random.default_rng(seed + 1000))
        rep = verify_axioms(game, exact_k_shapley(game), 1e-9, linearity_partner=partner)
        all_ok &= rep.symmetry_ok and rep.linearity_ok and rep.null_player_ok and rep.k_efficiency_ok
        worst = max(worst, rep.max_violation)
    # carrier games: members split the efficiency total equally (equals
    # alpha/|D| exactly when |D| = 1 or K = M; the general alpha/|D| claim
    # contradicts the efficiency identity -- see notes ledger)
    carrier_gap = 0.0
    for M, K in [(4, 2), (5, 3), (6, 3), (8, 4), (5, 5)]:
        for d_size in range(1, K + 1):
            D = tuple(range(d_size))
            phi = exact_k_shapley(carrier_game(M, K, D, 0.7)).values
            expected = carrier_exact_values(M, K, D, 0.7)
            carrier_gap = max(carrier_gap, float(np.max(np.abs(phi - expected))))
            if d_size == 1 or K == M:
                literal = np.zeros(M)
                literal[list(D)] = 0.7 / d_size
                carrier_gap = max(carrier_gap, float(np.max(np.abs(phi - literal))))
    ok = all_ok and worst < 1e-9 and carrier_gap < 1e-12
    report(
        1,
        ok,
        f"20 frozen games: all axioms hold, max_violation={worst:.2e}; "
        f"carrier equal-split gap={carrier_gap:.2e} (alpha/|D| literal where consistent)",
        t0,
        10,
    )


def test_criterion_2_full_budget_reduction():
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        M = 4 + seed % 4  # 4..7
        game = random_table_game(M, M, np.random.default_rng(100 + seed))
        gap = np.max(
            np.abs(exact_k_shapley(game).values - classical_shapley(game).values)
        )
        worst = max(worst, float(gap))
    report(2, worst < 1e-10, f"10 games M<=7: max |restricted - classical| = {worst:.2e}", t0, 10)


def test_criterion_3_monte_carlo_soundness():
    t0 = time.time()
    means = np.linspace(0.25, 0.9, 6)
    noiseless = SyntheticEnv(means, budget=4, curvature=1.5)
    S = (0, 2, 3, 5)
    est = shapley_estimation(S, noiseless, 5000, 1, np.random.default_rng(0))
    psi = prefix_shapley_within(noiseless.exact, S)
    mc_gap = max(abs(est.estimates[a] - psi[a]) for a in S)

    noisy = SyntheticEnv(means, np.full(6, 0.2), budget=3, curvature=1.5)
    Sn = (0, 2, 5)
    target = prefix_shapley_within(noisy.exact, Sn)
    R, L = 200, 200
    radius = confidence_radius(1, R, L, 6, 0.05, 0.05)
    hits = 0
    trials = 200
    for seed in range(trials):
        e = shapley_estimation(Sn, noisy, R, L, np.random.default_rng(seed))
        if all(abs(e.estimates[a] - target[a]) <= radius for a in Sn):
            hits += 1
    ok = mc_gap < 0.01 and hits >= 0.93 * trials
    report(
        3,
        ok,
        f"noiseless |S|=4 R=5000 gap={mc_gap:.4f} (<0.01); noisy coverage {hits}/{trials} (>=186)",
        t0,
        120,
    )


def test_criterion_4_rounding_marginals():
    t0 = time.time()
    rng_fuzz = np.random.default_rng(42)
    ok = True
    worst_z = 0.0
    for case in range(10):
        M = int(rng_fuzz.integers(4, 13))
        K = int(rng_fuzz.integers(1, M))
        pi = normalize_to_marginals(rng_fuzz.random(M) + 0.05, K)
        draw_rng = np.random.default_rng(1000 + case)
        n = 100_000
        counts = np.zeros(M)
        for _ in range(n):
            S = rrs_sample(pi, K, draw_rng)
            if len(S) != K or len(set(S)) != K:
                ok = False
            counts[list(S)] += 1
        freq = counts / n
        sigma = np.sqrt(np.maximum(pi * (1 - pi), 1e-12) / n)
        z = np.max(np.abs(freq - pi) / np.maximum(sigma, 1e-15))
        worst_z = max(worst_z, float(z))
        if np.any(np.abs(freq - pi) > 3 * sigma + 1e-12):
            ok = False
    report(4, ok, f"10 fuzzed vectors x 1e5 draws: |S|=K always; worst z-score {worst_z:.2f} (<3)", t0, 60)


@pytest.fixture(scope="module")
def benchmark_runs():
    """30-seed runs of all four policies at the shipped benchmark config."""
    return golden.benchmark_runs()


def _ledgers(records, pi_star):
    return [FairnessLedger.from_run(pi_star, r.pi) for r in records]


def test_criterion_5_regret_sublinearity(benchmark_runs):
    t0 = time.time()
    pi_star = benchmark_runs["pi_star"]
    slope_k = np.mean([regret_slope(l) for l in _ledgers(benchmark_runs["ksvfair"], pi_star)])
    slope_u = np.mean([regret_slope(l) for l in _ledgers(benchmark_runs["uniform"], pi_star)])
    ok = slope_k < 0.9 and slope_u > 0.95
    report(
        5,
        ok,
        f"30-seed log-log slopes: merit policy {slope_k:.3f} (<0.9), uniform {slope_u:.3f} (>0.95)",
        t0,
        1800,
    )


def test_criterion_6_algorithm_ordering(benchmark_runs):
    t0 = time.time()
    pi_star = benchmark_runs["pi_star"]
    finals = {
        name: float(np.mean([l.fr_cum[-1] for l in _ledgers(benchmark_runs[name], pi_star)]))
        for name in ("ksvfair", "muras", "uniform")
    }
    ok = finals["ksvfair"] < finals["muras"] < finals["uniform"]
    report(
        6,
        ok,
        "seed-mean final regret: "
        + " < ".join(f"{n}={finals[n]:.0f}" for n in ("ksvfair", "muras", "uniform")),
        t0,
        60,
    )


def test_criterion_7_merit_to_selection_flatness(benchmark_runs):
    t0 = time.time()
    phi = benchmark_runs["phi"]

    def cov(records):
        vals = []
        for rec in records:
            r = merit_to_selection(phi, rec.counts, rec.n_rounds)
            vals.append(np.nanstd(r) / np.nanmean(r))
        return float(np.mean(vals))

    cov_k = cov(benchmark_runs["ksvfair"])
    cov_e = cov(benchmark_runs["etcg"])
    ok = cov_k <= 0.15 and cov_e >= 0.5
    report(
        7,
        ok,
        f"merit/selection ratio CoV: merit policy {cov_k:.3f} (<=0.15), greedy commit {cov_e:.3f} (>=0.5)",
        t0,
        60,
    )


def _tiny_pistar(exact_seed):
    graph = load_edge_list(REPO / "data" / "toy_8.edges")
    env = CascadeEnv(graph, 0.3, budget=2, exact_sims=10_000, exact_seed=exact_seed)
    phi = exact_k_shapley(env.restricted_game()).values
    return phi, fair_policy(phi, 2).probs


def _pistar_se_bound():
    """Delta-method bound on the per-arm difference of two independent
    fair-target estimates on the 8-node graph (test-side enumeration)."""
    M, K = 8, 2
    coalitions = [(i,) for i in range(M)] + list(itertools.combinations(range(M), 2))
    index = {c: j for j, c in enumerate(coalitions)}
    A = np.zeros((M, len(coalitions)))
    n_outer = math.comb(M - 1, K - 1)
    for i in range(M):
        for j in range(M):
            if j == i:
                continue
            # coalition {i, j}: inner subsets {} and {j}, weight 1/2 each
            A[i, index[(i,)]] += 0.5 / n_outer
            A[i, index[tuple(sorted((i, j)))]] += 0.5 / n_outer
            A[i, index[(j,)]] -= 0.5 / n_outer
    se_v = 1.0 / (2 * math.sqrt(10_000))  # conservative per-coalition sim error
    cov_phi = A @ (se_v**2 * np.eye(len(coalitions))) @ A.T
    phi, _ = _tiny_pistar(0)
    s = phi.sum()
    J = (K / s) * (np.eye(M) - np.outer(phi, np.ones(M)) / s)
    cov_pi = J @ cov_phi @ J.T
    return np.sqrt(2 * np.diag(cov_pi))  # difference of two independent estimates


def test_criterion_8_cascade_environment():
    t0 = time.time()
    # analytic path-graph spread: seeding one end of 0-1-2 at p=0.5
    from ksvfair import Graph

    path = Graph(n_nodes=3, edges=((0, 1), (1, 2)))
    env = CascadeEnv(path, 0.5, budget=1)
    n = 1_000_000
    est = cascade_exact(env, (0,), n, np.random.default_rng(7))
    expected = (1 + 0.5 + 0.25) / 3
    per_sim_sd = math.sqrt(
        (1 / 9) * 0.5 + (4 / 9) * 0.25 + 1.0 * 0.25 - expected**2
    )
    path_ok = abs(est - expected) <= 3 * per_sim_sd / math.sqrt(n)

    # fair-target stability on the 8-node graph across independent sims
    _, pi_a = _tiny_pistar(exact_seed=1)
    _, pi_b = _tiny_pistar(exact_seed=2)
    band = 4 * _pistar_se_bound()
    gap = np.abs(pi_a - pi_b)
    stable = bool(np.all(gap <= band))
    report(
        8,
        path_ok and stable,
        f"path spread |{est:.5f}-{expected:.5f}|<=3sd; tiny fair target max gap "
        f"{gap.max():.4f} within 4x combined se",
        t0,
        300,
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    t0 = time.time()
    config = REPO / "configs" / "synthetic_small.ini"
    out1 = run_experiment(config, out_dir=tmp_path / "first")
    out2 = run_experiment(config, out_dir=tmp_path / "second")
    names = sorted(p.name for p in out1.iterdir())
    identical = names == sorted(p.name for p in out2.iterdir()) and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    report(9, identical, f"{len(names)} CSVs byte-identical across reruns", t0, 120)


def test_golden_output_digests(benchmark_runs, tmp_path, monkeypatch):
    # the fixture's records, its seed-1 tables, cascade_tiny.ini's CSVs and
    # the cut cascade_community.ini's, byte for byte as tests/golden_digests.txt
    # records them for this host's SIMD target; cascade_tiny.ini's graph_path
    # is relative to the repository root
    monkeypatch.chdir(REPO)
    problem = golden.mismatch(golden.digests(benchmark_runs, tmp_path))
    assert problem is None, problem
