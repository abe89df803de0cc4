"""End-to-end harness runs, CSV schemas, determinism, exit codes."""

import ast
import concurrent.futures
import configparser
import csv
import logging
import os
import re
import subprocess
import sys
import weakref
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import ksvfair
from ksvfair import FairnessLedger, RunRecord, cli, exact_k_shapley
from ksvfair.cli import (
    EXIT_CONFIG,
    EXIT_RUNTIME,
    ConfigError,
    PolicyConfig,
    RunConfig,
    build_env,
    compare_runs,
    load_config,
    main,
    run_experiment,
    write_aggregate_csv,
    write_arms_csv,
    write_round_csv,
)
from ksvfair.games import exact_cost
from reference import csv_aggregate_table, csv_arms_table, csv_compare_tables, csv_round_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SMALL_CONFIG = """\
[run]
algo = {algo}
env = synthetic
t = 1000000
rounds = {rounds}
seeds = {seeds}
out_dir = {out}

[algo]
r = 4
l = 2

[env]
m = 5
k = 2
means = 0.2,0.35,0.5,0.7,0.9
noise_stds = 0.1,0.15,0.2,0.25,0.3
lambda = 0.25
"""


def write_config(tmp_path, algo="ksvfair", rounds=25, seeds="1,2", name="cfg.ini", out=None):
    out = out or str(tmp_path / f"out_{algo}")
    path = tmp_path / name
    path.write_text(SMALL_CONFIG.format(algo=algo, rounds=rounds, seeds=seeds, out=out))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_run_one = cli._run_one


def _run_one_failing_at_seed_two(cfg, oracle, seed):
    # module level, so a worker process can unpickle it by name
    if seed == 2:
        raise RuntimeError("seed 2 failed")
    return _run_one(cfg, oracle, seed)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.algo == "ksvfair"
        assert cfg.M == 5 and cfg.K == 2
        assert cfg.seeds == (1, 2)
        assert cfg.curvature == 0.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_unknown_algo(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(SMALL_CONFIG.format(algo="sarsa", rounds=5, seeds="1", out="o"))
        with pytest.raises(ConfigError, match="algo"):
            load_config(p)

    def test_means_length_mismatch(self, tmp_path):
        # the environment checks its values: build_env rejects them, before any output
        out = tmp_path / "out"
        p = tmp_path / "bad.ini"
        text = SMALL_CONFIG.format(algo="ksvfair", rounds=5, seeds="1", out=out)
        p.write_text(text.replace("0.2,0.35,0.5,0.7,0.9", "0.2,0.35"))
        with pytest.raises(ConfigError, match="means"):
            build_env(load_config(p))
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG
        assert not out.exists()

    def test_graph_path_validated(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "c.ini"
        p.write_text(
            "[run]\nalgo = ksvfair\nenv = cascade\nt = 1000\nseeds = 1\n"
            f"out_dir = {out}\n"
            "[algo]\nr = 2\nl = 1\n"
            "[env]\nm = 8\nk = 2\ngraph_path = missing.edges\n"
        )
        with pytest.raises(ConfigError, match="graph_path"):
            build_env(load_config(p))
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("r", "0"),
            ("l", "0"),
            ("rounds", "-3"),
            ("radius_mode", "bogus"),
            ("delta1", "1.5"),
            ("pistar_sims", "0"),
            ("pistar_samples", "0"),
            ("seeds", "-1"),
        ],
    )
    def test_invalid_policy_value(self, tmp_path, key, value):
        # caught at load time: exit 2, before the output directory exists
        out = tmp_path / "out"
        lines = [
            line
            for line in SMALL_CONFIG.format(algo="ksvfair", rounds=25, seeds="1", out=out).splitlines()
            if not line.startswith(f"{key} =")
        ]
        section = {"rounds": "run", "seeds": "run", "pistar_sims": "env", "pistar_samples": "env"}
        lines.insert(lines.index(f"[{section.get(key, 'algo')}]") + 1, f"{key} = {value}")
        p = tmp_path / "bad.ini"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            load_config(p)
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key",
        [
            ("run", "round"),
            ("algo", "radius_mod"),
            ("algo", "reuse_prefix"),
            ("algo", "explore_pulls"),
            ("env", "max_exact_arms"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, section, key):
        text = SMALL_CONFIG.format(algo="ksvfair", rounds=5, seeds="1", out=tmp_path / "out")
        p = tmp_path / "typo.ini"
        p.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 3\n"))
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
            load_config(p)
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "configs").glob("*.ini")))
    def test_shipped_configs_load(self, monkeypatch, name):
        monkeypatch.chdir(ROOT)
        assert load_config(Path("configs") / name).seeds

    @pytest.mark.parametrize("key", ["pistar_sims", "pistar_samples"])
    def test_cascade_fair_target_size_checked_at_load(self, tmp_path, monkeypatch, key):
        monkeypatch.chdir(ROOT)
        out = tmp_path / "out"
        p = tmp_path / "cascade.ini"
        p.write_text(
            "[run]\nalgo = ksvfair\nenv = cascade\nt = 500000\nrounds = 12\nseeds = 1\n"
            f"out_dir = {out}\n"
            "[algo]\nr = 2\nl = 1\n"
            "[env]\nm = 8\nk = 2\ngraph_path = data/toy_8.edges\n"
            f"activation_p = 0.3\n{key} = 0\n"
        )
        with pytest.raises(ConfigError, match=f"key '{key}' must be >= 1, got 0"):
            load_config(p)
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG
        assert not out.exists()

    def test_readme_config_block_matches_key_table(self):
        # README's ini block lists every key of cli._KEYS, each with its
        # field's default or marked "(required)" when the field has none
        text = (ROOT / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
        defaults = {f.name: f.default for cls in (PolicyConfig, RunConfig) for f in fields(cls)}
        shown, section = {}, None
        for line in block.splitlines():
            if line.startswith("["):
                section = line.strip("[]")
                shown[section] = {}
            elif line and not line[0].isspace() and not line.startswith(";"):
                key, rest = (part.strip() for part in line.split("=", 1))
                value, _, comment = (part.strip() for part in rest.partition(";"))
                shown[section][key] = (value, comment)
        assert {sec: set(keys) for sec, keys in shown.items()} == {
            sec: set(keys) for sec, keys in cli._KEYS.items()
        }
        for sec, keys in cli._KEYS.items():
            for key, (field, parse) in keys.items():
                value, comment = shown[sec][key]
                if defaults[field] is MISSING:
                    assert "(required)" in comment, key
                else:
                    assert "(required)" not in comment, key
                    assert parse(value) == defaults[field], key

    def test_enumeration_bound_not_arm_count(self, tmp_path):
        from ksvfair.cli import build_env, true_shapley

        # 25 arms at K=2 is 325 valuations, well inside the cost bound
        p = tmp_path / "wide.ini"
        p.write_text(
            "[run]\nalgo = ksvfair\nenv = synthetic\nt = 1000\nseeds = 1\n"
            "[env]\nm = 25\nk = 2\n"
            f"means = {','.join(['0.5'] * 25)}\n"
        )
        cfg = load_config(p)
        assert true_shapley(cfg, build_env(cfg)).kind == "exact"


class TestRunExperiment:
    def test_files_and_schema(self, tmp_path):
        out = run_experiment(write_config(tmp_path))
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.csv",
            "arms_seed1.csv",
            "arms_seed2.csv",
            "run_seed1.csv",
            "run_seed2.csv",
        ]
        rows = read_rows(out / "run_seed1.csv")
        assert len(rows) == 25
        expected_cols = (
            ["round", "pulls_cum", "l1_to_pistar", "fr_cum"]
            + [f"pi_{a}" for a in range(5)]
            + [f"sel_{a}" for a in range(5)]
        )
        assert list(rows[0].keys()) == expected_cols
        # cumulative regret never decreases and selections have size K
        fr = [float(r["fr_cum"]) for r in rows]
        assert all(b >= a for a, b in zip(fr, fr[1:]))
        for r in rows:
            assert sum(int(r[f"sel_{a}"]) for a in range(5)) == 2

        arm_rows = read_rows(out / "arms_seed1.csv")
        assert list(arm_rows[0].keys()) == ["arm", "true_phi", "est_phi", "count", "merit_sel_ratio"]
        assert len(arm_rows) == 5

        agg = read_rows(out / "aggregate.csv")
        assert list(agg[0].keys()) == ["algo", "round", "fr_mean", "fr_var"]
        assert len(agg) == 25
        assert agg[0]["algo"] == "ksvfair"

    def test_fr_accumulation_consistent(self, tmp_path):
        out = run_experiment(write_config(tmp_path, seeds="3"))
        rows = read_rows(out / "run_seed3.csv")
        total = 0.0
        for r in rows:
            total += float(r["l1_to_pistar"])
            assert float(r["fr_cum"]) == pytest.approx(total, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, rounds=15)
        out1 = run_experiment(cfg, out_dir=tmp_path / "a")
        out2 = run_experiment(cfg, out_dir=tmp_path / "b")
        for name in ("run_seed1.csv", "arms_seed2.csv", "aggregate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_parallel_workers_match_serial(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, rounds=12)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        serial = run_experiment(cfg, out_dir=tmp_path / "serial")
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
        parallel = run_experiment(cfg, out_dir=tmp_path / "parallel")
        for name in ("run_seed1.csv", "run_seed2.csv", "aggregate.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_one_environment_per_run(self, tmp_path, monkeypatch, cpus):
        # each build is logged with its process id, so a forked worker's shows too
        built = tmp_path / "built.txt"
        build = cli.build_env

        def logged(cfg):
            with open(built, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(cfg)

        monkeypatch.setattr(cli, "build_env", logged)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
        run_experiment(write_config(tmp_path, rounds=6, seeds="1,2,3"), out_dir=tmp_path / "o")
        assert built.read_text().split() == [str(os.getpid())]

    def test_one_record_in_memory_at_a_time(self, tmp_path, monkeypatch):
        # a finalizer drops each record's seed from `live` when the record is
        # freed, so a record still held when the next one is made shows as two
        live, held = set(), []

        def tracked(cfg, oracle, seed):
            record = _run_one(cfg, oracle, seed)
            live.add(seed)
            held.append(sorted(live))
            weakref.finalize(record, live.discard, seed)
            return record

        monkeypatch.setattr(cli, "_run_one", tracked)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        out = run_experiment(write_config(tmp_path, rounds=6, seeds="1,2,3"), out_dir=tmp_path / "o")
        assert held == [[1], [2], [3]]
        assert not live
        assert (out / "aggregate.csv").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_seed_keeps_earlier_files_and_no_aggregate(self, tmp_path, monkeypatch, capsys, cpus):
        cfg = write_config(tmp_path, rounds=6, seeds="1,2,3")
        full = run_experiment(cfg, out_dir=tmp_path / "full")
        monkeypatch.setattr(cli, "_run_one", _run_one_failing_at_seed_two)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
        assert "seed 2 failed" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["arms_seed1.csv", "run_seed1.csv"]
        # the files that exist are the ones a full run writes
        for name in ("arms_seed1.csv", "run_seed1.csv"):
            assert (out / name).read_bytes() == (full / name).read_bytes()

    def test_one_cpu_opens_no_pool(self, tmp_path, monkeypatch):
        # seeds then run in this process, where a caller's monkeypatches and tracers see them
        def no_pool(*args, **kwargs):
            raise AssertionError("process pool opened on one CPU")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3})
        out = run_experiment(write_config(tmp_path, rounds=5, seeds="1,2,3"), out_dir=tmp_path / "o")
        assert (out / "aggregate.csv").exists()

    def test_three_seeds_on_four_cpus_use_three_workers(self, tmp_path, monkeypatch):
        sizes, pool = [], concurrent.futures.ProcessPoolExecutor

        def sized(workers):
            sizes.append(workers)
            return pool(workers)

        # run_experiment imports the pool class when it opens a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", sized)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3})
        run_experiment(write_config(tmp_path, rounds=5, seeds="1,2,3"), out_dir=tmp_path / "o")
        assert sizes == [3]

    @pytest.mark.parametrize("cpus, workers", [(4, 3), (2, 2), (None, 1)])
    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch, cpus, workers):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert cli._worker_count(3) == workers

    def test_all_algorithms_run(self, tmp_path):
        for algo in ("muras", "uniform", "etcg"):
            out = run_experiment(write_config(tmp_path, algo=algo, rounds=20, name=f"{algo}.ini"))
            assert (out / "aggregate.csv").exists()

    def test_cascade_env_runs(self, tmp_path):
        p = tmp_path / "cascade.ini"
        p.write_text(
            "[run]\nalgo = ksvfair\nenv = cascade\nt = 500000\nrounds = 12\nseeds = 1\n"
            f"out_dir = {tmp_path / 'casc'}\n"
            "[algo]\nr = 2\nl = 1\n"
            "[env]\nm = 8\nk = 2\ngraph_path = data/toy_8.edges\n"
            "activation_p = 0.3\npistar_sims = 200\n"
        )
        out = run_experiment(p)
        assert len(read_rows(out / "run_seed1.csv")) == 12

    def test_cascade_truth_tagged_as_estimate(self, tmp_path):
        from ksvfair.cli import build_env, true_shapley

        p = tmp_path / "cascade.ini"
        p.write_text(
            "[run]\nalgo = ksvfair\nenv = cascade\nt = 500000\nrounds = 5\nseeds = 1\n"
            f"out_dir = {tmp_path / 'c'}\n"
            "[algo]\nr = 2\nl = 1\n"
            "[env]\nm = 8\nk = 2\ngraph_path = data/toy_8.edges\n"
            "activation_p = 0.3\npistar_sims = 400\n"
        )
        cfg = load_config(p)
        phi = true_shapley(cfg, build_env(cfg))
        assert phi.kind == "estimated"
        assert phi.stderr is not None and np.all(phi.stderr > 0)


CASCADE_TOY = (
    "[run]\nalgo = ksvfair\nenv = cascade\nt = 500000\nrounds = 5\nseeds = 1\n"
    "[algo]\nr = 2\nl = 1\n"
    "[env]\nm = 8\nk = 2\ngraph_path = data/toy_8.edges\n"
    "activation_p = 0.3\npistar_sims = 50\n"
)


class TestTrueShapley:
    @pytest.mark.parametrize("env", ["synthetic", "cascade"])
    def test_one_valuation_per_coalition(self, tmp_path, monkeypatch, env):
        if env == "synthetic":
            path = write_config(tmp_path)
        else:
            monkeypatch.chdir(ROOT)
            path = tmp_path / "cascade.ini"
            path.write_text(CASCADE_TOY)
        cfg = load_config(path)
        oracle = cli.build_env(cfg)
        expected = exact_k_shapley(oracle.restricted_game()).values
        # the synthetic game values with _mean, after the game's own check
        valuation = "_mean" if env == "synthetic" else "exact"
        value = getattr(oracle, valuation)
        valued, games = [], []

        def counted(S):
            valued.append(tuple(S))
            return value(S)

        def enumerate_values(game):
            games.append(game)
            return exact_k_shapley(game)

        monkeypatch.setattr(oracle, valuation, counted)
        monkeypatch.setattr(cli, "exact_k_shapley", enumerate_values)
        phi = cli.true_shapley(cfg, oracle)
        # every coalition of 1..K arms once, plus the constructor's check of ()
        assert len(valued) == exact_cost(cfg.M, cfg.K) + 1
        assert len(set(valued)) == len(valued) and valued[0] == ()
        assert len(games) == 1
        assert phi.values.tobytes() == expected.tobytes()


class TestAggregate:
    def test_unequal_ledgers_raise_before_writing(self, tmp_path):
        ledgers = [FairnessLedger(np.full(n, 0.5)) for n in (5, 3, 4)]
        with pytest.raises(ValueError):
            write_aggregate_csv(tmp_path / "aggregate.csv", "muras", ledgers)
        assert not (tmp_path / "aggregate.csv").exists()

    def test_reference_rejects_unequal_ledgers_too(self, tmp_path):
        ledgers = [FairnessLedger(np.full(n, 0.5)) for n in (5, 3, 4)]
        with pytest.raises(ValueError):
            csv_aggregate_table(tmp_path / "aggregate.csv", "muras", ledgers)
        assert not (tmp_path / "aggregate.csv").exists()

    def test_equal_lengths_no_warning(self, tmp_path, caplog):
        ledgers = [FairnessLedger(np.full(4, 0.5)) for _ in range(3)]
        with caplog.at_level(logging.WARNING):
            write_aggregate_csv(tmp_path / "aggregate.csv", "ksvfair", ledgers)
        assert caplog.records == []
        rows = read_rows(tmp_path / "aggregate.csv")
        assert [r["round"] for r in rows] == ["1", "2", "3", "4"]
        assert [r["fr_mean"] for r in rows] == ["0.5", "1", "1.5", "2"]

    @pytest.mark.parametrize("algo", cli.ALGOS)
    def test_every_seed_logs_the_aggregate_rounds(self, tmp_path, algo):
        # no round cap: the pull budget alone ends each runner's schedule
        path = write_config(tmp_path, algo=algo, rounds=0, seeds="1,2,3")
        path.write_text(path.read_text().replace("t = 1000000", "t = 3000"))
        out = run_experiment(path)
        n_rounds = [len(read_rows(out / f"run_seed{seed}.csv")) for seed in (1, 2, 3)]
        assert n_rounds == [len(read_rows(out / "aggregate.csv"))] * 3


class TestCompare:
    def test_joined_table_and_ordering(self, tmp_path):
        a = run_experiment(write_config(tmp_path, algo="ksvfair", rounds=30, name="a.ini"))
        b = run_experiment(write_config(tmp_path, algo="uniform", rounds=30, name="b.ini"))
        fr_path, arms_path = compare_runs([a, b], out_prefix=str(tmp_path / "cmp"))
        rows = read_rows(fr_path)
        assert list(rows[0].keys()) == [
            "round",
            "fr_mean_ksvfair",
            "fr_std_ksvfair",
            "fr_mean_uniform",
            "fr_std_uniform",
        ]
        assert len(rows) == 30
        arm_rows = read_rows(arms_path)
        assert list(arm_rows[0].keys()) == ["arm", "ratio_ksvfair", "ratio_uniform"]

    def test_identical_inputs_zero_difference(self, tmp_path):
        a = run_experiment(write_config(tmp_path, rounds=20, name="a.ini", out=str(tmp_path / "oa")))
        b = run_experiment(write_config(tmp_path, rounds=20, name="b.ini", out=str(tmp_path / "ob")))
        fr_path, _ = compare_runs([a, b], out_prefix=str(tmp_path / "cmp2"))
        for r in read_rows(fr_path):
            assert r["fr_mean_ksvfair"] == r["fr_mean_ksvfair2"]

    def test_mismatched_grids_rejected(self, tmp_path):
        a = run_experiment(write_config(tmp_path, rounds=20, name="a.ini"))
        b = run_experiment(write_config(tmp_path, algo="uniform", rounds=25, name="b.ini"))
        with pytest.raises(ValueError, match="grid"):
            compare_runs([a, b], out_prefix=str(tmp_path / "cmp3"))

    @pytest.mark.parametrize(
        "table, column", [("aggregate.csv", "fr_mean"), ("arms_seed2.csv", "merit_sel_ratio")]
    )
    def test_missing_column_named_with_its_file(self, tmp_path, capsys, table, column):
        a = run_experiment(write_config(tmp_path, rounds=8, name="a.ini"))
        b = run_experiment(write_config(tmp_path, algo="uniform", rounds=8, name="b.ini"))
        rows = read_rows(b / table)
        with open(b / table, "w", newline="") as fh:
            writer = csv.DictWriter(fh, [c for c in rows[0] if c != column], extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        assert main(["compare", str(a), str(b), "--out-prefix", str(tmp_path / "cmp")]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {b / table}: missing column {column!r}\n"


class TestMainEntry:
    def test_run_and_exact_shapley_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=10)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert main(["exact-shapley", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "arm,true_phi,pi_star" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nalgo = nope\n")
        assert main(["run", "--config", str(bad)]) == 2

    def test_runtime_error_exit_one(self, tmp_path, capsys):
        # two finished runs whose round grids differ cannot be joined
        a = run_experiment(write_config(tmp_path, rounds=8, name="a.ini"))
        b = run_experiment(write_config(tmp_path, algo="uniform", rounds=9, name="b.ini"))
        assert main(["compare", str(a), str(b), "--out-prefix", str(tmp_path / "cmp")]) == 1
        assert "round grid does not match" in capsys.readouterr().err
        assert not (tmp_path / "cmp.csv").exists()

    def test_failed_fair_target_exit_one_before_output(self, tmp_path, monkeypatch, capsys):
        # 27 samples of 20 arms pass the config check for 534 arms, but the
        # target's default_rng(0) draws miss some arms
        monkeypatch.chdir(ROOT)
        text = (ROOT / "configs" / "cascade_community.ini").read_text()
        for old, new in [
            ("seeds = 1,2,3", "seeds = 1"),
            ("rounds = 500", "rounds = 30"),
            ("r = 20", "r = 2"),
            ("l = 10", "l = 1"),
            ("pistar_sims = 1000", "pistar_sims = 1"),
            ("pistar_samples = 2000", "pistar_samples = 27"),
        ]:
            assert old in text
            text = text.replace(old, new)
        cfg, out = tmp_path / "c.ini", tmp_path / "o"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
        assert re.search(r"error: arms \[\d+(, \d+)*\] never sampled", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "algo,budget,message",
        [
            # muras: R = 4 uniform rounds of 2 L M = 20 pulls
            ("muras", ("t = 1000000", "t = 50"), r"T=50, rounds=30\) cannot cover the 4 uniform"),
            ("muras", ("rounds = 30", "rounds = 3"), r"rounds=3\) cannot cover the 4 uniform"),
            # etcg: one sweep of 5 + 4 rounds of L = 2 pulls
            ("etcg", ("t = 1000000", "t = 17"), r"cannot cover the 9 exploration sweep rounds \(18 pulls\)"),
            ("etcg", ("rounds = 30", "rounds = 8"), r"rounds=8\) cannot cover the 9 exploration sweep"),
        ],
        ids=["muras-t", "muras-rounds", "etcg-t", "etcg-rounds"],
    )
    def test_unfit_schedule_exit_two_before_any_work(self, tmp_path, monkeypatch, algo, budget, message):
        def fail(*args, **kwargs):
            raise AssertionError("fair target built for a config whose schedule cannot fit")

        monkeypatch.setattr(cli, "true_shapley", fail)
        out = tmp_path / "o"
        cfg = tmp_path / "c.ini"
        text = SMALL_CONFIG.format(algo=algo, rounds=30, seeds="1", out=out)
        cfg.write_text(text.replace(*budget))
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        assert main(["run", "--config", cfg.as_posix()]) == EXIT_CONFIG
        assert not out.exists()

    def test_console_script_invocation(self, tmp_path):
        cfg = write_config(tmp_path, rounds=8)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ksvfair.cli", "run", "--config", str(cfg), "--out", str(tmp_path / "o")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestConfigErrorsBeforeOutput:
    """A config the environment or the runner's schedule rejects exits 2
    before the output directory exists and before the fair target is built."""

    def exit_code(self, monkeypatch, config, out):
        def fail(*args, **kwargs):
            raise AssertionError("fair target built for a rejected config")

        monkeypatch.setattr(cli, "true_shapley", fail)
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert not out.exists()
        return code

    def test_cascade_m_other_than_graph_nodes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        p = tmp_path / "c.ini"
        p.write_text((ROOT / "configs" / "cascade_tiny.ini").read_text().replace("m = 8", "m = 9"))
        with pytest.raises(ConfigError, match=r"key 'm'.* m=9"):
            build_env(load_config(p))
        assert self.exit_code(monkeypatch, p, tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize("M,K,T", [(5, 5, 6), (2, 2, 3), (6, 4, 5)])
    def test_ksvfair_budget_below_one_warm_up_round(self, tmp_path, monkeypatch, M, K, T):
        p = tmp_path / "c.ini"
        p.write_text(
            f"[run]\nalgo = ksvfair\nenv = synthetic\nt = {T}\nseeds = 1\n"
            "[algo]\nr = 2\nl = 2\n"
            f"[env]\nm = {M}\nk = {K}\nmeans = {','.join(['0.5'] * M)}\n"
        )
        with pytest.raises(ConfigError, match=rf"\(T={T}, rounds=None\) cannot cover the .* warm-up"):
            load_config(p)
        assert self.exit_code(monkeypatch, p, tmp_path / "o") == EXIT_CONFIG

    def test_cascade_budget_below_one_warm_up_round(self, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)
        text = (ROOT / "configs" / "cascade_tiny.ini").read_text()
        p = tmp_path / "c.ini"
        p.write_text(text.replace("k = 2", "k = 8").replace("t = 500000", "t = 9"))
        with pytest.raises(ConfigError, match=r"cannot cover the 1 warm-up rounds \(16 pulls\)"):
            load_config(p)
        assert self.exit_code(monkeypatch, p, tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "old,new",
        [
            ("means = 0.2,", "means = nan,"),
            ("noise_stds = 0.1,", "noise_stds = nan,"),
            ("noise_stds = 0.1,", "noise_stds = inf,"),
            ("lambda = 0.25", "lambda = nan"),
            ("lambda = 0.25", "lambda = inf"),
        ],
        ids=["nan-mean", "nan-noise", "inf-noise", "nan-lambda", "inf-lambda"],
    )
    def test_non_finite_env_value(self, tmp_path, monkeypatch, old, new):
        text = (ROOT / "configs" / "synthetic_small.ini").read_text()
        assert old in text
        p = tmp_path / "c.ini"
        p.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match="synthetic environment"):
            build_env(load_config(p))
        assert self.exit_code(monkeypatch, p, tmp_path / "o") == EXIT_CONFIG

    def test_uncoverable_sampled_target(self, tmp_path, monkeypatch):
        # 534 arms are past the enumeration bound at k = 20, and 10 samples
        # of 20 arms name at most 200 of them; 27 samples could name 540
        monkeypatch.chdir(ROOT)
        text = (ROOT / "configs" / "cascade_community.ini").read_text().replace("seeds = 1,2,3", "seeds = 1")
        p = tmp_path / "c.ini"
        p.write_text(text.replace("pistar_samples = 2000", "pistar_samples = 27"))
        assert load_config(p).pistar_samples == 27
        p.write_text(text.replace("pistar_samples = 2000", "pistar_samples = 10"))
        with pytest.raises(ConfigError, match=r"key 'pistar_samples': .* 10 coalitions of k=20 .* m=534"):
            load_config(p)
        assert self.exit_code(monkeypatch, p, tmp_path / "o") == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text",
        [
            b"algo = ksvfair\n[run]\nenv = synthetic\n",
            b"[run]\nalgo = ksvfair\nalgo = uniform\n",
            b"[run]\nalgo = ksvfair\nenv = synth\xffetic\n",
        ],
        ids=["key-before-section", "repeated-key", "non-utf8-byte"],
    )
    def test_unparsable_ini(self, tmp_path, monkeypatch, capsys, text):
        p = tmp_path / "c.ini"
        p.write_bytes(text)
        assert self.exit_code(monkeypatch, p, tmp_path / "o") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot parse config file {p}: ")

    @pytest.mark.parametrize(
        "config, key", [("synthetic_small.ini", "means"), ("cascade_tiny.ini", "graph_path")]
    )
    def test_required_env_key_left_out(self, tmp_path, monkeypatch, capsys, config, key):
        text = (ROOT / "configs" / config).read_text()
        p = tmp_path / "c.ini"
        p.write_text("".join(line for line in text.splitlines(True) if not line.startswith(f"{key} =")))
        assert self.exit_code(monkeypatch, p, tmp_path / "o") == EXIT_CONFIG
        env = config.split("_")[0]
        assert capsys.readouterr().err == f"config error: key {key!r} is required for the {env} environment\n"

    def test_relative_graph_path_read_from_current_directory(self, tmp_path, monkeypatch, capsys):
        # the shipped config names data/toy_8.edges, relative to the checkout root
        monkeypatch.chdir(tmp_path)
        config = ROOT / "configs" / "cascade_tiny.ini"
        assert self.exit_code(monkeypatch, config, tmp_path / "o") == EXIT_CONFIG
        message = f"'data/toy_8.edges', read from the current directory {Path.cwd()}"
        assert message in capsys.readouterr().err
        assert main(["exact-shapley", "--config", str(config)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestDependencies:
    def test_library_imports_numpy_only(self):
        # scipy and networkx may be installed, but the package does not declare them
        code = "import sys, ksvfair, ksvfair.cli; print(sorted({'scipy', 'networkx'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # the pool's module pulls in multiprocessing, socket and subprocess;
        # only a run on more than one CPU needs it
        code = "import sys, ksvfair.cli; print('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_library_reads_no_environment_variable(self):
        # a run is fixed by its config, its seeds and the CPUs it may use
        pattern = re.compile(r"\b(environb?|getenvb?)\b")
        readers = [
            f"{path.name}:{n}"
            for path in sorted((SRC / "ksvfair").rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert readers == []

    def test_every_public_name_is_reached(self):
        # a name in ksvfair.__all__ is named in code (not a docstring or a
        # comment) by another part of the library, or by a demo, a script
        # or the benchmark; a name only the tests reach belongs in the tests
        def names(tree, skip=None):
            found, stack = set(), [tree]
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
                    continue  # a name's own definition does not reach it
                if isinstance(node, ast.Name):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.alias):
                    found.add(node.name.rpartition(".")[2])
                stack.extend(ast.iter_child_nodes(node))
            return found

        library = [
            ast.parse(path.read_text())
            for path in sorted((SRC / "ksvfair").glob("*.py"))
            if path.name != "__init__.py"
        ]
        outside = set().union(*(names(tree) for tree in self.outside_trees()))
        unreached = [
            name
            for name in ksvfair.__all__
            if name not in outside and not any(name in names(tree, skip=name) for tree in library)
        ]
        assert unreached == []

    @staticmethod
    def outside_trees():
        """The parsed demos, scripts and benchmark files."""
        return [
            ast.parse(path.read_text())
            for folder in ("demos", "scripts", "perfbench")
            for path in sorted((ROOT / folder).glob("*.py"))
        ]

    def test_every_keyword_is_passed(self):
        # a keyword-only parameter of a library function is passed by name by
        # the library, a demo, a script or the benchmark; a keyword that only
        # the tests pass is a test hook, and the tests can reach its behaviour
        # another way
        library = [ast.parse(path.read_text()) for path in sorted((SRC / "ksvfair").glob("*.py"))]
        trees = library + self.outside_trees()
        passed = {node.arg for tree in trees for node in ast.walk(tree) if isinstance(node, ast.keyword)}
        keywords = {
            arg.arg
            for tree in library
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for arg in node.args.kwonlyargs
        }
        assert sorted(keywords - passed) == []

    def test_every_ini_key_is_set_by_a_shipped_config(self):
        # a key of cli._KEYS is set in some configs/*.ini; a key that no
        # shipped run sets is a knob only the tests turn
        shipped = set()
        for path in sorted((ROOT / "configs").glob("*.ini")):
            parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
            parser.read(path, encoding="utf-8")
            shipped |= {(section, key) for section in parser.sections() for key in parser[section]}
        unset = [(sec, key) for sec, keys in cli._KEYS.items() for key in keys if (sec, key) not in shipped]
        assert unset == []

    def test_one_table_writer(self):
        # every file the library writes is a CSV table opened by cli._write_table,
        # so no table can skip newline="" and the CRLF row ends; a mode that is
        # not a literal counts as a write
        def mode(call):
            given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            if not given:
                return "r"
            return given[0].value if isinstance(given[0], ast.Constant) else "w"

        writers = []
        for path in sorted((SRC / "ksvfair").glob("*.py")):
            tree = ast.parse(path.read_text())
            defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "open" and set(mode(node)) & set("wax+"):
                    inside = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                    owner = max(inside, key=lambda d: d.lineno).name if inside else "<module>"
                    writers.append(f"{path.name}:{owner}")
        assert writers == ["cli.py:_write_table"]


# values whose %.12g / format(x, ".12g") text is easy to get wrong
SPECIALS = [
    float("nan"),
    0.0,
    -0.0,
    5e-324,
    1e-300,
    1e16,
    0.1 + 0.2,
    123456789012.0,
    0.123456789012,
    1234567.89012,
    1 / 3,
    float("inf"),
    -2.5,
]


def special_record(M, rng):
    n = 2 * len(SPECIALS)
    pi = rng.choice(SPECIALS + list(rng.random(5)), size=(n, M))
    selected = rng.integers(0, 2, size=(n, M)).astype(np.uint8)
    selected[:, 0] = 0  # an arm never selected has a NaN merit ratio
    return RunRecord(
        seed=0,
        pi=pi,
        selected=selected,
        pulls=rng.integers(1, 10**6, size=n),
        est_phi=rng.choice(SPECIALS, size=M),
    )


def rows_record(pi, selected):
    pi = np.asarray(pi, dtype=float)
    n, M = pi.shape
    return RunRecord(
        seed=0,
        pi=pi,
        selected=np.asarray(selected, dtype=np.uint8).reshape(n, M),
        pulls=np.ones(n, dtype=int),
        est_phi=np.zeros(M),
    )


def nan_with_payload(payload):
    return np.array([payload], dtype=np.uint64).view(float)[0]


class TestWriterBytes:
    """The row-template writers against the csv.writer + format(x, ".12g") ones."""

    @pytest.mark.parametrize("M", [1, 3, 20])
    def test_round_and_arms_tables(self, tmp_path, M):
        rng = np.random.default_rng(M)
        record = special_record(M, rng)
        pi_star = rng.random(M)
        true_phi = rng.choice(SPECIALS, size=M)
        write_round_csv(tmp_path / "new_run.csv", record, pi_star)
        csv_round_table(tmp_path / "old_run.csv", record, pi_star)
        write_arms_csv(tmp_path / "new_arms.csv", record, true_phi)
        csv_arms_table(tmp_path / "old_arms.csv", record, true_phi)
        for name in ("run", "arms"):
            new = (tmp_path / f"new_{name}.csv").read_bytes()
            assert new == (tmp_path / f"old_{name}.csv").read_bytes()
        assert b"nan" in (tmp_path / "new_arms.csv").read_bytes()

    @pytest.mark.parametrize(
        "pi,selected",
        [
            # a run of identical rows, then a new row, then a run of it
            ([[0.25, 0.75]] * 4 + [[0.5, 0.5]] * 3, [[1, 0]] * 5 + [[0, 1]] * 2),
            # alternating rows
            ([[0.1, 0.9], [0.9, 0.1]] * 3, [[1, 0], [0, 1], [0, 1], [1, 0], [1, 0], [0, 1]]),
            # equal as floats, different bits: the text differs ("-0") or not ("nan")
            (
                [[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]
                + [[nan_with_payload(0x7FF8000000000000 | p), 0.5] for p in (0, 1, 1, 2)]
                + [[-np.nan, 0.5]],
                [[0, 1]] * 9,
            ),
            # M = 1
            ([[1.0]] * 3 + [[0.5]], [[1]] * 4),
            # an empty record
            (np.zeros((0, 3)), np.zeros((0, 3))),
        ],
        ids=["runs", "alternating", "bits", "one-arm", "empty"],
    )
    def test_repeated_rows(self, tmp_path, pi, selected):
        record = rows_record(pi, selected)
        pi_star = np.linspace(0.0, 1.0, record.pi.shape[1])
        write_round_csv(tmp_path / "new.csv", record, pi_star)
        csv_round_table(tmp_path / "old.csv", record, pi_star)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert len(new.splitlines()) == record.n_rounds + 1

    @pytest.mark.parametrize(
        "n,M,fill",
        [(0, 3, "random"), (4, 1, "random"), (5, 4, "zeros"), (5, 4, "ones"), (6, 534, "random")],
        ids=["no-rows", "one-arm", "all-zeros", "all-ones", "534-arms"],
    )
    def test_selection_columns_as_bytes(self, tmp_path, n, M, fill):
        rng = np.random.default_rng(M)
        selected = {
            "random": rng.integers(0, 2, size=(n, M)),
            "zeros": np.zeros((n, M)),
            "ones": np.ones((n, M)),
        }[fill].astype(np.uint8)
        texts = cli._bit_texts(selected)
        assert texts == cli._row_texts(selected, ",%d" * M + "\r\n")
        record = rows_record(rng.random((n, M)), selected)
        write_round_csv(tmp_path / "new.csv", record, np.full(M, 1 / M))
        csv_round_table(tmp_path / "old.csv", record, np.full(M, 1 / M))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_special_values_spelled_as_format(self, tmp_path):
        record = special_record(len(SPECIALS), np.random.default_rng(0))
        record.pi[0] = SPECIALS
        write_round_csv(tmp_path / "run.csv", record, np.zeros(len(SPECIALS)))
        first = (tmp_path / "run.csv").read_text().splitlines()[1].split(",")
        assert first[4 : 4 + len(SPECIALS)] == [format(x, ".12g") for x in SPECIALS]

    @pytest.mark.parametrize("n", [255, 256, 257, 515])
    def test_block_boundaries(self, tmp_path, n):
        # runs of equal rows of random lengths, so some cross a block boundary
        rng = np.random.default_rng(n)
        run_starts = np.where(rng.random(n) < 0.1, np.arange(n), 0)
        pi = rng.random((n, 3))[np.maximum.accumulate(run_starts)]
        record = rows_record(pi, rng.integers(0, 2, size=(n, 3)))
        pi_star = rng.random(3)
        write_round_csv(tmp_path / "new.csv", record, pi_star)
        csv_round_table(tmp_path / "old.csv", record, pi_star)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert len(new.splitlines()) == n + 1

    @pytest.mark.parametrize(
        "pi",
        [
            # one row from round 201 to round 301, across the block boundary at 256
            [[0.1, 0.9]] * 200 + [[0.3, 0.7]] * 101 + [[0.6, 0.4]] * 50,
            # the l1 bits repeat (0.5 every round) while pi changes every round
            [[0.25, 0.75], [0.75, 0.25]] * 150,
        ],
        ids=["run-across-block", "l1-repeats-pi-changes"],
    )
    def test_repeated_rows_across_blocks(self, tmp_path, pi):
        record = rows_record(pi, [[1, 0]] * len(pi))
        pi_star = np.array([0.5, 0.5])
        write_round_csv(tmp_path / "new.csv", record, pi_star)
        csv_round_table(tmp_path / "old.csv", record, pi_star)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_negative_zero_l1_after_zero(self, tmp_path, monkeypatch):
        # |pi - pi*| sums to +0.0 at the least, so the ledger is set here
        l1 = np.array([0.0, -0.0, -0.0, 0.0, 0.5, 0.5])
        monkeypatch.setattr(FairnessLedger, "from_run", classmethod(lambda cls, star, pi: cls(l1)))
        record = rows_record([[0.5, 0.5]] * len(l1), [[1, 0]] * len(l1))
        write_round_csv(tmp_path / "new.csv", record, np.array([0.5, 0.5]))
        csv_round_table(tmp_path / "old.csv", record, np.array([0.5, 0.5]))
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert [line.split(b",")[2] for line in new.splitlines()[1:5]] == [b"0", b"-0", b"-0", b"0"]

    @pytest.mark.filterwarnings("ignore:Mean of empty slice")  # arm 0 is never selected
    def test_aggregate_and_compare_tables(self, tmp_path):
        finite = [x for x in SPECIALS if np.isfinite(x)]
        rng = np.random.default_rng(5)
        dirs = []
        for k, algo in enumerate(["uniform", 'odd,"label"', "uniform"]):
            ledgers = [FairnessLedger(rng.permutation(finite)) for _ in range(3)]
            ledgers.append(FairnessLedger(finite[::-1][:-1] + [float("nan")]))
            d = tmp_path / f"run{k}"
            d.mkdir()
            write_aggregate_csv(d / "aggregate.csv", algo, ledgers)
            csv_aggregate_table(tmp_path / f"old_aggregate{k}.csv", algo, ledgers)
            assert (d / "aggregate.csv").read_bytes() == (tmp_path / f"old_aggregate{k}.csv").read_bytes()
            for seed in range(2):
                write_arms_csv(d / f"arms_seed{seed}.csv", special_record(4, rng), rng.random(4))
            dirs.append(d)
        new = compare_runs(dirs, out_prefix=str(tmp_path / "new"))
        old = csv_compare_tables(dirs, out_prefix=str(tmp_path / "old"))
        for a, b in zip(new, old):
            assert a.read_bytes() == b.read_bytes()
        assert b'"fr_mean_odd,""label"""' in new[0].read_bytes()

    @pytest.mark.parametrize("n", [257, 600])
    def test_aggregate_and_compare_past_one_block(self, tmp_path, n):
        # row counts that are not a multiple of the block size
        assert n % cli._BLOCK_ROWS
        rng = np.random.default_rng(n)
        dirs = []
        for k, algo in enumerate(["uniform", "etcg"]):
            ledgers = [FairnessLedger(rng.random(n)) for _ in range(3)]
            d = tmp_path / f"run{k}"
            d.mkdir()
            write_aggregate_csv(d / "aggregate.csv", algo, ledgers)
            csv_aggregate_table(tmp_path / f"old_aggregate{k}.csv", algo, ledgers)
            assert (d / "aggregate.csv").read_bytes() == (tmp_path / f"old_aggregate{k}.csv").read_bytes()
            # every arm selected, so each merit ratio is finite
            record = RunRecord(
                seed=0,
                pi=np.full((1, n), 0.5),
                selected=np.ones((1, n), dtype=np.uint8),
                pulls=np.ones(1, dtype=int),
                est_phi=rng.random(n),
            )
            write_arms_csv(d / "arms_seed0.csv", record, rng.random(n))
            dirs.append(d)
        new = compare_runs(dirs, out_prefix=str(tmp_path / "new"))
        old = csv_compare_tables(dirs, out_prefix=str(tmp_path / "old"))
        for a, b in zip(new, old):
            assert a.read_bytes() == b.read_bytes()
            assert len(a.read_bytes().splitlines()) == n + 1

    def test_exact_shapley_printout(self, tmp_path, capsys):
        from ksvfair import fair_policy
        from ksvfair.cli import build_env, print_exact_shapley, true_shapley

        path = write_config(tmp_path)
        cfg = load_config(path)
        phi = true_shapley(cfg, build_env(cfg))
        pi_star = fair_policy(phi.values, cfg.K).probs
        print_exact_shapley(path)
        lines = capsys.readouterr().out.splitlines()[2:]
        assert lines == [
            f"{a},{format(float(phi.values[a]), '.12g')},{format(float(pi_star[a]), '.12g')}"
            for a in range(cfg.M)
        ]


class TestOutputDigests:
    def test_two_runs_print_the_same_lines(self):
        script = ROOT / "scripts" / "output_digests.py"
        config = ROOT / "configs" / "synthetic_small.ini"
        outs = [
            subprocess.run(
                [sys.executable, str(script), str(config), "--seeds", "2"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        names = [line.split("  ")[1] for line in outs[0].splitlines()]
        assert names == [
            f"synthetic_small/{f}"
            for f in (
                "aggregate.csv",
                "arms_seed1.csv",
                "arms_seed2.csv",
                "exact_shapley.txt",
                "run_seed1.csv",
                "run_seed2.csv",
            )
        ]
        assert all(len(line.split("  ")[0]) == 64 for line in outs[0].splitlines())
