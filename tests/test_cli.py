"""End-to-end harness runs, CSV schemas, determinism, exit codes."""

import csv
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ksvfair import FairnessLedger, PolicyConfig, RunRecord, cli
from ksvfair.cli import (
    EXIT_CONFIG,
    ConfigError,
    compare_runs,
    load_config,
    main,
    run_experiment,
    write_aggregate_csv,
    write_arms_csv,
    write_round_csv,
)
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
        p = tmp_path / "bad.ini"
        text = SMALL_CONFIG.format(algo="ksvfair", rounds=5, seeds="1", out="o")
        p.write_text(text.replace("0.2,0.35,0.5,0.7,0.9", "0.2,0.35"))
        with pytest.raises(ConfigError, match="means"):
            load_config(p)

    def test_graph_path_validated(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            "[run]\nalgo = ksvfair\nenv = cascade\nt = 1000\nseeds = 1\n"
            "[algo]\nr = 2\nl = 1\n"
            "[env]\nm = 8\nk = 2\ngraph_path = missing.edges\n"
        )
        with pytest.raises(ConfigError, match="graph_path"):
            load_config(p)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("r", "0"),
            ("l", "0"),
            ("rounds", "-3"),
            ("radius_mode", "bogus"),
            ("explore_pulls", "0"),
            ("delta1", "1.5"),
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
        lines.insert(lines.index("[run]" if key == "rounds" else "[algo]") + 1, f"{key} = {value}")
        p = tmp_path / "bad.ini"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            load_config(p)
        assert main(["run", "--config", str(p)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key",
        [("run", "round"), ("algo", "radius_mod"), ("env", "max_exact_arms")],
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

    def test_seed_offset(self, tmp_path):
        cfg = write_config(tmp_path, seeds="1")
        out = run_experiment(cfg, seed_offset=100, out_dir=tmp_path / "shifted")
        assert (out / "run_seed101.csv").exists()

    def test_parallel_workers_match_serial(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, rounds=12)
        serial = run_experiment(cfg, out_dir=tmp_path / "serial")
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv("KSV_THREADS", "2")
        parallel = run_experiment(cfg, out_dir=tmp_path / "parallel")
        for name in ("run_seed1.csv", "run_seed2.csv", "aggregate.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_non_integer_thread_cap_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KSV_THREADS", "two")
        with pytest.raises(ConfigError, match="KSV_THREADS.*'two'"):
            run_experiment(write_config(tmp_path, rounds=5))

    def test_thread_cap_checked_before_fair_target(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fair target built before KSV_THREADS was checked")

        monkeypatch.setattr(cli, "true_shapley", fail)
        monkeypatch.setenv("KSV_THREADS", "x")
        with pytest.raises(ConfigError, match="KSV_THREADS"):
            run_experiment(write_config(tmp_path, rounds=5))

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


class TestAggregate:
    def test_truncation_warns_with_count(self, tmp_path, caplog):
        ledgers = [FairnessLedger(np.full(n, 0.5)) for n in (5, 3, 4)]
        with caplog.at_level(logging.WARNING, logger="ksvfair.cli"):
            write_aggregate_csv(tmp_path / "aggregate.csv", "muras", ledgers)
        [record] = caplog.records
        assert "truncated 2 of 3 seed runs to the shortest run's 3 rounds" in record.getMessage()
        rows = read_rows(tmp_path / "aggregate.csv")
        assert [r["round"] for r in rows] == ["1", "2", "3"]

    def test_equal_lengths_no_warning(self, tmp_path, caplog):
        ledgers = [FairnessLedger(np.full(4, 0.5)) for _ in range(3)]
        with caplog.at_level(logging.WARNING, logger="ksvfair.cli"):
            write_aggregate_csv(tmp_path / "aggregate.csv", "ksvfair", ledgers)
        assert caplog.records == []


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

    def test_runtime_error_exit_one(self, tmp_path):
        # budget passes validation but cannot cover the uniform phase
        cfg = tmp_path / "c.ini"
        text = SMALL_CONFIG.format(algo="muras", rounds=30, seeds="1", out=tmp_path / "o")
        cfg.write_text(text.replace("t = 1000000", "t = 50"))
        assert main(["run", "--config", cfg.as_posix()]) == 1

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
    counts = rng.integers(0, 3, size=M)
    counts[0] = 0  # an arm never selected has a NaN merit ratio
    return RunRecord(
        algo="uniform",
        seed=0,
        config=PolicyConfig(T=10**6, M=M, K=1, R=1, L=1),
        pi=pi,
        selected=rng.integers(0, 2, size=(n, M)).astype(np.uint8),
        pulls=rng.integers(1, 10**6, size=n),
        counts=counts,
        est_phi=rng.choice(SPECIALS, size=M),
        est_phi_raw=np.zeros(M),
    )


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

    def test_special_values_spelled_as_format(self, tmp_path):
        record = special_record(len(SPECIALS), np.random.default_rng(0))
        record.pi[0] = SPECIALS
        write_round_csv(tmp_path / "run.csv", record, np.zeros(len(SPECIALS)))
        first = (tmp_path / "run.csv").read_text().splitlines()[1].split(",")
        assert first[4 : 4 + len(SPECIALS)] == [format(x, ".12g") for x in SPECIALS]

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

    def test_exact_shapley_printout(self, tmp_path, capsys):
        from ksvfair import fair_policy
        from ksvfair.cli import build_env, print_exact_shapley, true_shapley

        path = write_config(tmp_path)
        cfg = load_config(path)
        phi = true_shapley(cfg, build_env(cfg))
        pi_star = fair_policy(phi, cfg.K).probs
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
