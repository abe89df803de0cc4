"""The three benchmark workloads and the configs each one writes.

A workload is a list of ``ksvfair run`` invocations (one per policy), an
optional ``ksvfair compare`` over their output directories, and the layers
it is expected to exercise.  Each invocation gets its own INI file, written
from a shipped config with the seeds shifted by the workload seed and with
the listed overrides; the shipped configs are never edited.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

SEED_STRIDE = 1000


@dataclass(frozen=True)
class PolicyRun:
    algo: str
    config: str  # shipped config, relative to the checkout root
    n_seeds: int | None = None  # first n shipped seeds; None keeps all
    overrides: dict = field(default_factory=dict)  # {(section, key): value}


@dataclass(frozen=True)
class Workload:
    runs: tuple[PolicyRun, ...]
    compare: bool
    heavy: tuple[str, ...]  # span or counter names that must record calls when traced


_CASCADE_CUTS = {
    ("run", "rounds"): 30,  # 27 round-robin warm-up rounds, then 3 merit rounds
    ("algo", "r"): 2,
    ("algo", "l"): 1,
    ("env", "pistar_sims"): 1,
    ("env", "pistar_samples"): 180,  # the target's default_rng(0) first covers all 534 arms at 165
}

WORKLOADS = {
    "synth-learners": Workload(
        runs=(
            PolicyRun("ksvfair", "configs/synthetic_ksvfair.ini", n_seeds=1),
            PolicyRun("muras", "configs/synthetic_muras.ini", n_seeds=1),
        ),
        compare=False,
        heavy=(
            "games.exact_k_shapley",
            "games.value",
            "envs.pull_mean_many",
            "estimation.shapley_estimation",
            "estimation.muras_round",
            "rounding.normalize_to_marginals",
            "rounding.rrs_sample",
            "policies.round",
            "policies.run_ksvfair",
            "policies.muras_run",
            "metrics.fair_policy",
            "metrics.ledger",
            "cli.true_shapley",
            "cli.write_round_csv",
        ),
    ),
    "synth-baselines": Workload(
        runs=(
            PolicyRun("uniform", "configs/synthetic_uniform.ini"),
            PolicyRun("etcg", "configs/synthetic_etcg.ini"),
        ),
        compare=True,
        heavy=(
            "games.exact_k_shapley",
            "games.value",
            "envs.pull",
            "envs.pull_mean",
            "policies.uniform_baseline",
            "policies.etcg_baseline",
            "metrics.ledger",
            "cli.write_round_csv",
            "cli.compare_runs",
        ),
    ),
    "cascade-community": Workload(
        runs=(
            PolicyRun("ksvfair", "configs/cascade_community.ini", n_seeds=1, overrides=_CASCADE_CUTS),
        ),
        compare=False,
        heavy=(
            "games.sampled_k_shapley",
            "games.value",
            "envs.pull",
            "envs.pull_mean_many",
            "envs.exact",
            "envs.load_edge_list",
            "estimation.shapley_estimation",
            "rounding.normalize_to_marginals",
            "rounding.rrs_sample",
            "policies.round",
            "policies.run_ksvfair",
            "cli.build_env",
        ),
    ),
}


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not parser.read(path):
        raise FileNotFoundError(f"shipped config not found: {path}")
    return parser


def write_configs(workload: Workload, root: Path, out: Path, seed: int) -> list[Path]:
    """Write one INI per policy run into ``out``; returns their paths in run order."""
    paths = []
    for run in workload.runs:
        parser = _read_ini(root / run.config)
        if parser["run"]["algo"] != run.algo:
            raise ValueError(f"{run.config}: expected algo={run.algo}")
        shipped = [int(s) for s in parser["run"]["seeds"].split(",") if s.strip()]
        kept = shipped[: run.n_seeds] if run.n_seeds else shipped
        parser["run"]["seeds"] = ",".join(str(s + SEED_STRIDE * seed) for s in kept)
        for (section, key), value in run.overrides.items():
            parser[section][key] = str(value)
        if "graph_path" in parser["env"]:
            parser["env"]["graph_path"] = str(root / parser["env"]["graph_path"])
        path = out / f"{run.algo}.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        paths.append(path)
    return paths
