"""Config-driven experiment harness.

Subcommands:

* ``run --config cfg.ini [--seed-offset N] [--out DIR]`` executes one
  algorithm on one environment across the configured seeds and writes
  per-seed round/arm CSVs plus a seed-aggregated regret CSV.
* ``compare DIR...`` joins the aggregates of several finished runs into
  one table per quantity.
* ``exact-shapley --config cfg.ini`` prints the environment's true values
  and the fair selection probabilities.

Configs are flat INI text: a ``[run]`` block (algo, env, budget, seeds,
output), an ``[algo]`` block (estimation and policy knobs) and an
``[env]`` block (environment parameters); lists are comma-separated, and
an unknown key is a config error.  Every run is fully determined by
(config, seed); reruns are byte-identical.  The ``KSV_THREADS``
environment variable caps how many seeds run in parallel workers.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .envs import CascadeEnv, SyntheticEnv, load_edge_list
from .games import MAX_EXACT_COALITIONS, ShapleyVector, exact_cost, exact_k_shapley, sampled_k_shapley
from .metrics import FairnessLedger, fair_policy, merit_to_selection
from .policies import PolicyConfig, RunRecord, etcg_baseline, muras_run, run_ksvfair, uniform_baseline

log = logging.getLogger(__name__)

ALGOS = ("ksvfair", "muras", "uniform", "etcg")
ENVS = ("synthetic", "cascade")
EXIT_CONFIG = 2
EXIT_RUNTIME = 1

_RUNNERS = {
    "ksvfair": run_ksvfair,
    "muras": muras_run,
    "uniform": uniform_baseline,
    "etcg": etcg_baseline,
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    algo: str
    env: str
    policy: PolicyConfig
    seeds: tuple[int, ...]
    out_dir: str
    means: tuple[float, ...] = ()
    noise_stds: tuple[float, ...] = ()
    curvature: float = 1.0
    graph_path: str = ""
    activation_p: float = 0.1
    pistar_sims: int = 10_000
    pistar_samples: int = 4_000

    @property
    def M(self) -> int:
        return self.policy.M

    @property
    def K(self) -> int:
        return self.policy.K


def _parse_floats(raw: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected comma-separated numbers, got {raw!r}") from exc


def _parse_ints(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"key '{key}': expected comma-separated integers, got {raw!r}") from exc


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    # each key read is popped, so whatever is left was not read
    sections = {name: dict(parser[name]) for name in parser.sections()}
    try:
        run = sections["run"]
        algo = run.pop("algo", "")
        env = run.pop("env", "")
        if algo not in ALGOS:
            raise ConfigError(f"key 'algo' must be one of {ALGOS}, got {algo!r}")
        if env not in ENVS:
            raise ConfigError(f"key 'env' must be one of {ENVS}, got {env!r}")
        seeds = _parse_ints(run.pop("seeds", ""), "seeds")
        if not seeds:
            raise ConfigError("key 'seeds' must list at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("key 'seeds' contains duplicates")
        algo_sec = sections.setdefault("algo", {})
        env_sec = sections.setdefault("env", {})

        def geti(sec, key, default=None):
            raw = sec.pop(key, None)
            if raw is None:
                if default is None:
                    raise ConfigError(f"missing required key '{key}'")
                return default
            try:
                return int(raw)
            except ValueError as exc:
                raise ConfigError(f"key '{key}': expected integer, got {raw!r}") from exc

        def getf(sec, key, default):
            raw = sec.pop(key, None)
            if raw is None:
                return default
            try:
                return float(raw)
            except ValueError as exc:
                raise ConfigError(f"key '{key}': expected number, got {raw!r}") from exc

        def getb(sec, key, default):
            raw = sec.pop(key, None)
            if raw is None:
                return default
            val = raw.strip().lower()
            if val in ("true", "1", "yes", "on"):
                return True
            if val in ("false", "0", "no", "off"):
                return False
            raise ConfigError(f"key '{key}': expected boolean, got {raw!r}")

        policy = PolicyConfig(
            T=geti(run, "t"),
            M=geti(env_sec, "m"),
            K=geti(env_sec, "k"),
            R=geti(algo_sec, "r", 50),
            L=geti(algo_sec, "l", 20),
            delta1=getf(algo_sec, "delta1", 0.05),
            delta2=getf(algo_sec, "delta2", 0.05),
            rounds=geti(run, "rounds", 0) or None,
            radius_mode=algo_sec.pop("radius_mode", "adaptive"),
            reuse_prefix=getb(algo_sec, "reuse_prefix", False),
            explore_pulls=geti(algo_sec, "explore_pulls", 20),
        )
        cfg = RunConfig(
            algo=algo,
            env=env,
            policy=policy,
            seeds=seeds,
            out_dir=run.pop("out_dir", "results"),
            means=_parse_floats(env_sec.pop("means", ""), "means"),
            noise_stds=_parse_floats(env_sec.pop("noise_stds", ""), "noise_stds"),
            curvature=getf(env_sec, "lambda", 1.0),
            graph_path=env_sec.pop("graph_path", ""),
            activation_p=getf(env_sec, "activation_p", 0.1),
            pistar_sims=geti(env_sec, "pistar_sims", 10_000),
            pistar_samples=geti(env_sec, "pistar_samples", 4_000),
        )
        for name, sec in sections.items():
            if sec:
                raise ConfigError(f"unknown key '{next(iter(sec))}' in section [{name}]")
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing config section {exc}") from exc
    except ValueError as exc:  # PolicyConfig rejected an [algo]/[run] value
        raise ConfigError(str(exc)) from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.env == "synthetic":
        if len(cfg.means) != cfg.M:
            raise ConfigError(f"key 'means' must list m={cfg.M} values, got {len(cfg.means)}")
        if cfg.noise_stds and len(cfg.noise_stds) != cfg.M:
            raise ConfigError(
                f"key 'noise_stds' must list m={cfg.M} values, got {len(cfg.noise_stds)}"
            )
        if any(not 0.0 < x <= 1.0 for x in cfg.means):
            raise ConfigError("key 'means': values must lie in (0, 1]")
        if any(x < 0 for x in cfg.noise_stds):
            raise ConfigError("key 'noise_stds': values must be nonnegative")
        if cfg.curvature < 0:
            raise ConfigError("key 'lambda' must be nonnegative")
    else:
        if not cfg.graph_path:
            raise ConfigError("key 'graph_path' is required for the cascade environment")
        if not Path(cfg.graph_path).is_file():
            raise ConfigError(f"key 'graph_path': file not found: {cfg.graph_path}")
        if not 0.0 <= cfg.activation_p <= 1.0:
            raise ConfigError("key 'activation_p' must lie in [0, 1]")


def build_env(cfg: RunConfig):
    allow_extra = cfg.algo == "muras" and cfg.K < cfg.M
    if cfg.env == "synthetic":
        return SyntheticEnv(
            cfg.means,
            cfg.noise_stds if cfg.noise_stds else None,
            budget=cfg.K,
            curvature=cfg.curvature,
            allow_extra_query=allow_extra,
        )
    graph = load_edge_list(cfg.graph_path)
    if graph.n_nodes != cfg.M:
        raise ConfigError(
            f"key 'm': graph has {graph.n_nodes} nodes but config says m={cfg.M}"
        )
    return CascadeEnv(
        graph,
        cfg.activation_p,
        budget=cfg.K,
        exact_sims=cfg.pistar_sims,
        allow_extra_query=allow_extra,
    )


def true_shapley(cfg: RunConfig, oracle) -> ShapleyVector:
    """Ground-truth values from the environment's exact backdoor.

    Enumerates when ``exact_cost(M, K)`` is within ``MAX_EXACT_COALITIONS``,
    otherwise uses the uniform-coalition Monte-Carlo estimator.  On cascade
    environments even the enumerated values rest on simulated coalition
    worths, so they are tagged as estimates with a conservative per-arm
    standard error: each value is a fixed combination of independent
    coalition estimates whose signed weights total 1 on each side, giving
    se <= 1 / sqrt(2 * pistar_sims).
    """
    game = oracle.restricted_game()
    if exact_cost(cfg.M, cfg.K) <= MAX_EXACT_COALITIONS:
        phi = exact_k_shapley(game)
        if cfg.env == "cascade":
            se = 1.0 / np.sqrt(2 * cfg.pistar_sims)
            return ShapleyVector(
                phi.values,
                "estimated",
                samples=cfg.pistar_sims,
                stderr=np.full(cfg.M, se),
            )
        return phi
    rng = np.random.default_rng(0)
    return sampled_k_shapley(game.value, cfg.M, cfg.K, cfg.pistar_samples, rng)


# Every table is written from a per-row % template: integers as %d, reals as
# %.12g (the same text as format(x, ".12g"), nan, inf and -0 included), rows
# ended by "\r\n", so the bytes are what csv.writer wrote with those strings.
def _quote(field) -> str:
    """One CSV field as ``csv.writer`` writes it: quoted only when it must be."""
    field = str(field)
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _header(fields) -> str:
    return ",".join(_quote(f) for f in fields) + "\r\n"


def _run_one(cfg: RunConfig, seed: int) -> RunRecord:
    oracle = build_env(cfg)
    rng = np.random.default_rng(seed)
    return _RUNNERS[cfg.algo](cfg.policy, oracle, rng, seed=seed)


def write_round_csv(path, record: RunRecord, pi_star: np.ndarray) -> FairnessLedger:
    ledger = FairnessLedger.from_run(pi_star, record.pi)
    M = record.pi.shape[1]
    row = "%d,%d,%.12g,%.12g" + ",%.12g" * M + ",%d" * M + "\r\n"
    columns = zip(
        range(1, record.n_rounds + 1),
        record.pulls_cum.tolist(),
        ledger.l1.tolist(),
        ledger.fr_cum.tolist(),
        record.pi.tolist(),
        record.selected.tolist(),
    )
    with open(path, "w", newline="") as fh:
        fh.write(
            _header(
                ["round", "pulls_cum", "l1_to_pistar", "fr_cum"]
                + [f"pi_{a}" for a in range(M)]
                + [f"sel_{a}" for a in range(M)]
            )
        )
        fh.writelines(row % (t, pulls, l1, fr, *pi, *sel) for t, pulls, l1, fr, pi, sel in columns)
    return ledger


def write_arms_csv(path, record: RunRecord, true_phi: np.ndarray) -> None:
    ratios = merit_to_selection(true_phi, record.counts, record.n_rounds)
    columns = zip(
        range(len(true_phi)),
        np.asarray(true_phi, dtype=float).tolist(),
        np.asarray(record.est_phi, dtype=float).tolist(),
        np.asarray(record.counts, dtype=int).tolist(),
        ratios.tolist(),
    )
    with open(path, "w", newline="") as fh:
        fh.write(_header(["arm", "true_phi", "est_phi", "count", "merit_sel_ratio"]))
        fh.writelines("%d,%.12g,%.12g,%d,%.12g\r\n" % row for row in columns)


def write_aggregate_csv(path, algo: str, ledgers: list[FairnessLedger]) -> None:
    n = min(l.n_rounds for l in ledgers)
    truncated = sum(l.n_rounds > n for l in ledgers)
    if truncated:
        log.warning(
            "%s aggregate: truncated %d of %d seed runs to the shortest run's %d rounds",
            algo,
            truncated,
            len(ledgers),
            n,
        )
    fr = np.stack([l.fr_cum[:n] for l in ledgers])
    columns = zip(range(1, n + 1), fr.mean(axis=0).tolist(), fr.var(axis=0).tolist())
    label = _quote(algo)
    with open(path, "w", newline="") as fh:
        fh.write(_header(["algo", "round", "fr_mean", "fr_var"]))
        fh.writelines("%s,%d,%.12g,%.12g\r\n" % (label, *row) for row in columns)


def _worker_count(n_seeds: int) -> int:
    workers = min(n_seeds, os.cpu_count() or 1)
    cap = os.environ.get("KSV_THREADS", "")
    if cap.strip():
        try:
            limit = int(cap)
        except ValueError:
            raise ConfigError(f"KSV_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, limit))
    return workers


def run_experiment(config_path, seed_offset: int = 0, out_dir=None) -> Path:
    """Execute the configured runs and write all CSVs; returns the output dir."""
    cfg = load_config(config_path)
    if seed_offset:
        cfg = replace(cfg, seeds=tuple(s + seed_offset for s in cfg.seeds))
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    workers = _worker_count(len(cfg.seeds))
    oracle = build_env(cfg)
    phi = true_shapley(cfg, oracle)
    pi_star = fair_policy(phi, cfg.K).probs

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, [cfg] * len(cfg.seeds), cfg.seeds))
    else:
        records = [_run_one(cfg, s) for s in cfg.seeds]

    ledgers = []
    for seed, record in zip(cfg.seeds, records):
        ledgers.append(write_round_csv(out / f"run_seed{seed}.csv", record, pi_star))
        write_arms_csv(out / f"arms_seed{seed}.csv", record, phi.values)
    write_aggregate_csv(out / "aggregate.csv", cfg.algo, ledgers)
    return out


def _read_aggregate(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path}: empty aggregate")
    algo = rows[0]["algo"]
    rounds = np.array([int(r["round"]) for r in rows])
    mean = np.array([float(r["fr_mean"]) for r in rows])
    var = np.array([float(r["fr_var"]) for r in rows])
    return algo, rounds, mean, var


def _read_arm_ratios(run_dir: Path) -> np.ndarray:
    files = sorted(run_dir.glob("arms_seed*.csv"))
    if not files:
        raise ValueError(f"{run_dir}: no per-arm summaries found")
    per_seed = []
    for f in files:
        with open(f, newline="") as fh:
            rows = list(csv.DictReader(fh))
        per_seed.append([float(r["merit_sel_ratio"]) for r in rows])
    return np.nanmean(np.array(per_seed), axis=0)


def compare_runs(run_dirs, out_prefix="comparison") -> tuple[Path, Path]:
    """Join >= 2 finished run directories into side-by-side tables."""
    if len(run_dirs) < 2:
        raise ValueError("need at least two run directories to compare")
    loaded = []
    for d in run_dirs:
        d = Path(d)
        algo, rounds, mean, var = _read_aggregate(d / "aggregate.csv")
        loaded.append((d, algo, rounds, mean, var))
    base_rounds = loaded[0][2]
    for d, _, rounds, _, _ in loaded[1:]:
        if len(rounds) != len(base_rounds) or np.any(rounds != base_rounds):
            raise ValueError(f"{d}: round grid does not match {loaded[0][0]}")
    labels = []
    for _, algo, *_ in loaded:
        label = algo
        k = 2
        while label in labels:
            label = f"{algo}{k}"
            k += 1
        labels.append(label)

    fr_path = Path(f"{out_prefix}.csv")
    columns = [base_rounds.tolist()]
    for _, _, _, mean, var in loaded:
        columns += [mean.tolist(), np.sqrt(var).tolist()]
    row = "%d" + ",%.12g,%.12g" * len(loaded) + "\r\n"
    with open(fr_path, "w", newline="") as fh:
        header = ["round"]
        for label in labels:
            header += [f"fr_mean_{label}", f"fr_std_{label}"]
        fh.write(_header(header))
        fh.writelines(row % values for values in zip(*columns))

    arms_path = Path(f"{out_prefix}_arms.csv")
    ratios = [_read_arm_ratios(d) for d, *_ in loaded]
    n_arms = len(ratios[0])
    if any(len(r) != n_arms for r in ratios):
        raise ValueError("per-arm tables disagree on arm count")
    row = "%d" + ",%.12g" * len(ratios) + "\r\n"
    with open(arms_path, "w", newline="") as fh:
        fh.write(_header(["arm"] + [f"ratio_{label}" for label in labels]))
        fh.writelines(row % values for values in zip(range(n_arms), *(r.tolist() for r in ratios)))
    return fr_path, arms_path


def print_exact_shapley(config_path, file=None) -> None:
    file = file if file is not None else sys.stdout
    cfg = load_config(config_path)
    oracle = build_env(cfg)
    phi = true_shapley(cfg, oracle)
    pi_star = fair_policy(phi, cfg.K).probs
    print(f"# env={cfg.env} M={cfg.M} K={cfg.K} kind={phi.kind}", file=file)
    print("arm,true_phi,pi_star", file=file)
    for a in range(cfg.M):
        print("%d,%.12g,%.12g" % (a, phi.values[a], pi_star[a]), file=file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ksvfair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed-offset", type=int, default=0)
    p_run.add_argument("--out", default=None)
    p_cmp = sub.add_parser("compare", help="join finished run directories")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--out-prefix", default="comparison")
    p_ex = sub.add_parser("exact-shapley", help="print true values and the fair policy")
    p_ex.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            out = run_experiment(args.config, seed_offset=args.seed_offset, out_dir=args.out)
            print(f"wrote results to {out}")
        elif args.command == "compare":
            fr, arms = compare_runs(args.run_dirs, out_prefix=args.out_prefix)
            print(f"wrote {fr} and {arms}")
        else:
            print_exact_shapley(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures get a distinct exit status
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return 0


if __name__ == "__main__":
    sys.exit(main())
