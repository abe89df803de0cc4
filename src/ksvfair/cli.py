"""Config-driven experiment harness.

Subcommands:

* ``run --config cfg.ini [--out DIR]`` executes one
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
(config, seed); reruns are byte-identical.  Seeds run in parallel worker
processes, one per CPU the process may run on (``taskset -c 0-3 ksvfair run
...`` caps them at four); with one CPU they run serially, in-process.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import os
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .envs import CascadeEnv, Graph, SyntheticEnv, load_edge_list
from .games import MAX_EXACT_COALITIONS, ShapleyVector, exact_cost, exact_k_shapley, sampled_k_shapley
from .metrics import FairnessLedger, fair_policy, merit_to_selection
from .policies import ALGORITHMS, PolicyConfig, RunRecord

# read by _run_one at call time, so a runner can be wrapped in place
_RUNNERS = {algo: runner for algo, (runner, _) in ALGORITHMS.items()}
ALGOS = tuple(ALGORITHMS)
ENVS = ("synthetic", "cascade")
EXIT_CONFIG = 2
EXIT_RUNTIME = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One run's config.  ``policy`` holds and checks the policy knobs, this
    class checks the run's own values and that the budget covers the
    runner's fixed phase, and the environment ``build_env`` makes checks the
    env values."""

    algo: str
    env: str
    policy: PolicyConfig
    seeds: tuple[int, ...]
    out_dir: str = "results"
    means: tuple[float, ...] = ()
    noise_stds: tuple[float, ...] = ()
    curvature: float = 1.0
    graph_path: str = ""
    activation_p: float = 0.1
    pistar_sims: int = 10_000
    pistar_samples: int = 4_000
    graph: Graph | None = None  # read from graph_path by load_config

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"key 'algo' must be one of {ALGOS}, got {self.algo!r}")
        if not self.seeds:
            raise ValueError("key 'seeds' must list at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("key 'seeds' contains duplicates")
        if min(self.seeds) < 0:
            raise ValueError(f"key 'seeds' must be non-negative, got {min(self.seeds)}")
        for key in ("pistar_sims", "pistar_samples"):
            if getattr(self, key) < 1:
                raise ValueError(f"key '{key}' must be >= 1, got {getattr(self, key)}")
        if exact_cost(self.M, self.K) > MAX_EXACT_COALITIONS and self.pistar_samples * self.K < self.M:
            raise ValueError(
                f"key 'pistar_samples': the sampled fair target draws {self.pistar_samples} "
                f"coalitions of k={self.K} arms, which cannot cover m={self.M} arms"
            )
        ALGORITHMS[self.algo][1](self.policy)  # the schedule rejects a budget too small for the fixed phase

    @property
    def M(self) -> int:
        return self.policy.M

    @property
    def K(self) -> int:
        return self.policy.K


def _list_of(parse):
    """Parser of a comma-separated list of ``parse`` values."""
    return lambda raw: tuple(parse(tok) for tok in raw.split(",") if tok.strip())


def _round_cap(raw: str) -> int | None:
    return int(raw) or None  # 0 means no cap


# Every INI key: {section: {key: (field, parser)}}.  A field of PolicyConfig
# goes to RunConfig.policy, any other to RunConfig.  A key left out takes its
# field's default; a field without a default makes its key required.
_KEYS = {
    "run": {
        "algo": ("algo", str),
        "env": ("env", str),
        "t": ("T", int),
        "rounds": ("rounds", _round_cap),
        "seeds": ("seeds", _list_of(int)),
        "out_dir": ("out_dir", str),
    },
    "algo": {
        "r": ("R", int),
        "l": ("L", int),
        "delta1": ("delta1", float),
        "delta2": ("delta2", float),
        "radius_mode": ("radius_mode", str),
    },
    "env": {
        "k": ("K", int),
        "means": ("means", _list_of(float)),
        "noise_stds": ("noise_stds", _list_of(float)),
        "lambda": ("curvature", float),
        "graph_path": ("graph_path", str),
        "activation_p": ("activation_p", float),
        "pistar_sims": ("pistar_sims", int),
        "pistar_samples": ("pistar_samples", int),
    },
}
# the [env] keys that one environment alone reads; the first is required and
# gives the arms, one per value or one per node of the graph
_ENV_ONLY = {
    "synthetic": ("means", "noise_stds", "lambda"),
    "cascade": ("graph_path", "activation_p", "pistar_sims"),
}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not found:
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for section in parser.sections():
        keys = _KEYS.get(section, {})
        for key, raw in parser[section].items():
            if key not in keys:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            field, parse = keys[key]
            try:
                values[field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"key '{key}': cannot read {raw!r} ({exc})") from exc
    defaults = {f.name: f.default for cls in (PolicyConfig, RunConfig) for f in fields(cls)}
    for section, keys in _KEYS.items():
        for key, (field, _) in keys.items():
            if field not in values and defaults[field] is MISSING:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")
    env = values["env"]
    if env not in ENVS:
        raise ConfigError(f"key 'env' must be one of {ENVS}, got {env!r}")
    stray = [key for other in ENVS if other != env for key in _ENV_ONLY[other] if key in parser["env"]]
    if stray:
        raise ConfigError(f"key '{stray[0]}' in section [env] is not read by the {env} environment")
    arms_key = _ENV_ONLY[env][0]
    if not values.get(arms_key):
        raise ConfigError(f"key '{arms_key}' is required for the {env} environment")
    if env == "cascade":
        try:
            values["graph"] = load_edge_list(values["graph_path"])
        except (OSError, ValueError) as exc:
            relative = not Path(values["graph_path"]).is_absolute()
            where = f", read from the current directory {Path.cwd()}" if relative else ""
            raise ConfigError(f"key 'graph_path': {exc}{where}") from exc
    values["M"] = len(values["means"]) if env == "synthetic" else values["graph"].n_nodes
    policy_fields = {f.name for f in fields(PolicyConfig)}
    try:
        policy = PolicyConfig(**{k: v for k, v in values.items() if k in policy_fields})
        return RunConfig(policy=policy, **{k: v for k, v in values.items() if k not in policy_fields})
    except ValueError as exc:  # PolicyConfig, RunConfig or the schedule rejected a value
        raise ConfigError(str(exc)) from exc


def build_env(cfg: RunConfig):
    """The run's environment.  Its constructor checks the env values, and a
    value it rejects is a ``ConfigError``."""
    allow_extra = cfg.algo == "muras" and cfg.K < cfg.M
    try:
        if cfg.env == "synthetic":
            return SyntheticEnv(
                cfg.means,
                cfg.noise_stds if cfg.noise_stds else None,
                budget=cfg.K,
                curvature=cfg.curvature,
                allow_extra_query=allow_extra,
            )
        return CascadeEnv(
            cfg.graph,
            cfg.activation_p,
            budget=cfg.K,
            exact_sims=cfg.pistar_sims,
            allow_extra_query=allow_extra,
        )
    except ValueError as exc:
        raise ConfigError(f"{cfg.env} environment: {exc}") from exc


def true_shapley(cfg: RunConfig, oracle) -> ShapleyVector:
    """Ground-truth values from the environment's exact backdoor.

    Enumerates when ``exact_cost(M, K)`` is within ``MAX_EXACT_COALITIONS``,
    otherwise uses the uniform-coalition Monte-Carlo estimator.  Either path
    values each distinct coalition once.  On cascade environments even the
    enumerated values rest on simulated coalition worths, so they are
    tagged as estimates with a conservative per-arm standard error: each
    value is a fixed combination of independent coalition estimates whose
    signed weights total 1 on each side, giving se <= 1 / sqrt(2 * pistar_sims).
    """
    game = oracle.restricted_game()
    if exact_cost(cfg.M, cfg.K) <= MAX_EXACT_COALITIONS:
        phi = exact_k_shapley(game)
        if cfg.env == "cascade":
            se = 1.0 / np.sqrt(2 * cfg.pistar_sims)
            return ShapleyVector(phi.values, "estimated", stderr=np.full(cfg.M, se))
        return phi
    rng = np.random.default_rng(0)
    return sampled_k_shapley(game.value, cfg.M, cfg.K, cfg.pistar_samples, rng)


def _fair_target(cfg: RunConfig):
    """The run's oracle, its true values and the fair policy's selection
    probabilities: ``(oracle, phi, pi_star)``."""
    oracle = build_env(cfg)
    phi = true_shapley(cfg, oracle)
    return oracle, phi, fair_policy(phi.values, cfg.K).probs


# Every table is written from a per-row % template: integers as %d, reals as
# %.12g (the same text as format(x, ".12g"), nan, inf and -0 included), rows
# ended by "\r\n", so the bytes are what csv.writer wrote with those strings.
# rows per write in _write_table: a block's text and its encoded copy are both
# held during the write, so larger blocks raise the peak RSS
_BLOCK_ROWS = 64


def _quote(field) -> str:
    """One CSV field as ``csv.writer`` writes it: quoted only when it must be."""
    field = str(field)
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _write_table(path, header: list, row: str, columns: list) -> None:
    """Write one CSV table to ``path``: the ``_quote``d ``header`` fields
    and ``"\r\n"``, then ``row % values`` for each row of equal-length
    columns (``row`` ends its own line).  The rows go ``_BLOCK_ROWS`` at a
    time: the block's cells are interleaved into one flat list and written
    with one ``%`` of the repeated row template and one ``fh.write``, so no
    whole-table string is built."""
    width, n = len(columns), len(columns[0])
    template, cells = row * _BLOCK_ROWS, [None] * (width * _BLOCK_ROWS)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_quote(f) for f in header) + "\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            if stop - start < _BLOCK_ROWS:  # the last block is short
                template, cells = row * (stop - start), cells[: width * (stop - start)]
            for j, column in enumerate(columns):
                cells[j::width] = column[start:stop]
            fh.write(template % tuple(cells))


def _run_one(cfg: RunConfig, oracle, seed: int) -> RunRecord:
    rng = np.random.default_rng(seed)
    return _RUNNERS[cfg.algo](cfg.policy, oracle, rng, seed=seed)


def _row_texts(rows: np.ndarray, fmt: str) -> list[str]:
    """``fmt % row`` for each row of a 2-D array.  A row with the same bit
    pattern as the one before it reuses that row's text, so only the first
    of a run of repeated rows is formatted; bits rather than values are
    compared, so -0.0 after 0.0 is formatted anew."""
    rows = np.ascontiguousarray(rows)
    bits = rows.view(f"u{rows.itemsize}")
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    texts = np.array([fmt % tuple(row) for row in rows[new].tolist()], dtype=object)
    return texts.repeat(np.diff(np.append(np.flatnonzero(new), len(rows)))).tolist()


def _bit_texts(bits: np.ndarray) -> list[str]:
    r"""``(",%d" * M + "\r\n") % row`` for each row of an (n, M) array of 0s
    and 1s, spelled as one byte buffer: ``","`` and ``"0" + bit`` per entry,
    then ``"\r\n"``, decoded once and cut into rows."""
    n, M = bits.shape
    width = 2 * M + 2
    buf = np.empty((n, width), dtype=np.uint8)
    buf[:, :-2:2] = ord(",")
    np.add(bits, ord("0"), out=buf[:, 1:-2:2], casting="unsafe")
    buf[:, -2] = ord("\r")
    buf[:, -1] = ord("\n")
    text = buf.tobytes().decode("ascii")
    return [text[i : i + width] for i in range(0, n * width, width)]


def write_round_csv(path, record: RunRecord, pi_star: np.ndarray) -> FairnessLedger:
    """Per-round table.  ``l1_to_pistar`` and the ``pi_*`` columns are
    formatted once per run of equal rows, and the selection columns as bytes."""
    ledger = FairnessLedger.from_run(pi_star, record.pi)
    M = record.pi.shape[1]
    # first, while no other column is held: its transient lists are the largest
    pi_texts = _row_texts(record.pi, ",%.12g" * M)
    columns = [
        range(1, record.n_rounds + 1),
        record.pulls_cum.tolist(),
        _row_texts(ledger.l1[:, None], ",%.12g"),
        ledger.fr_cum.tolist(),
        pi_texts,
        _bit_texts(record.selected),
    ]
    header = ["round", "pulls_cum", "l1_to_pistar", "fr_cum"]
    header += [f"pi_{a}" for a in range(M)] + [f"sel_{a}" for a in range(M)]
    _write_table(path, header, "%d,%d%s,%.12g%s%s", columns)
    return ledger


def write_arms_csv(path, record: RunRecord, true_phi: np.ndarray) -> None:
    counts = record.counts
    ratios = merit_to_selection(true_phi, counts, record.n_rounds)
    columns = [
        range(len(true_phi)),
        np.asarray(true_phi, dtype=float).tolist(),
        np.asarray(record.est_phi, dtype=float).tolist(),
        counts.tolist(),
        ratios.tolist(),
    ]
    header = ["arm", "true_phi", "est_phi", "count", "merit_sel_ratio"]
    _write_table(path, header, "%d,%.12g,%.12g,%d,%.12g\r\n", columns)


def write_aggregate_csv(path, algo: str, ledgers: list[FairnessLedger]) -> None:
    """Seed mean and variance of the cumulative fairness regret per round.  Every
    seed plays its config's one schedule: unequal ledgers raise before the file opens."""
    fr = np.stack([l.fr_cum for l in ledgers])
    rounds = range(1, fr.shape[1] + 1)
    columns = [
        [_quote(algo)] * len(rounds),
        rounds,
        fr.mean(axis=0).tolist(),
        fr.var(axis=0).tolist(),
    ]
    _write_table(path, ["algo", "round", "fr_mean", "fr_var"], "%s,%d,%.12g,%.12g\r\n", columns)


def _worker_count(n_seeds: int) -> int:
    """One worker per seed, at most one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return min(n_seeds, len(os.sched_getaffinity(0)))
    return min(n_seeds, os.cpu_count() or 1)  # no affinity call on this platform


def run_seeds(cfg: RunConfig, oracle):
    """Each seed's record of ``cfg`` played on ``oracle`` (never mutated), in seed order."""
    n = len(cfg.seeds)
    workers = _worker_count(n)
    if workers > 1:  # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        yield from (pool.map if pool else map)(_run_one, [cfg] * n, [oracle] * n, cfg.seeds)


def run_experiment(config_path, out_dir=None) -> Path:
    """Execute the configured runs and write all CSVs; returns the output dir.

    Files appear seed by seed, in seed order: each seed's ``run_seed*.csv``
    and ``arms_seed*.csv`` are written as soon as its record exists, and the
    record is then dropped, keeping only its ``FairnessLedger`` for
    ``aggregate.csv``.  Run serially, on one CPU, at most one record is in
    memory, so a run's memory does not grow with its seed count; with worker
    processes, the records that finish ahead of their turn also wait in
    memory.  A seed that raises stops the run: the earlier seeds' files
    stay, and no ``aggregate.csv`` is written.
    """
    cfg = load_config(config_path)
    oracle, phi, pi_star = _fair_target(cfg)
    # every config error, and a fair target that fails, is raised above,
    # before the output directory exists
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ledgers = []
    for record in run_seeds(cfg, oracle):  # every seed plays the oracle the target was built from
        ledgers.append(write_round_csv(out / f"run_seed{record.seed}.csv", record, pi_star))
        write_arms_csv(out / f"arms_seed{record.seed}.csv", record, phi.values)
        del record  # freed before the next seed's record is made
    write_aggregate_csv(out / "aggregate.csv", cfg.algo, ledgers)
    return out


def _read_rows(path: Path, columns) -> list[dict]:
    """The rows of the CSV table at ``path``, which must have ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in columns:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: missing column {column!r}")
        return list(reader)


def _read_aggregate(path: Path):
    rows = _read_rows(path, ["algo", "round", "fr_mean", "fr_var"])
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
    per_seed = [[float(r["merit_sel_ratio"]) for r in _read_rows(f, ["merit_sel_ratio"])] for f in files]
    ratios = np.array(per_seed)
    # np.nanmean's sum over count, without its warning for an arm no seed selected, whose mean is nan
    seen = (~np.isnan(ratios)).sum(axis=0)
    return np.divide(np.nansum(ratios, axis=0), seen, out=np.full(len(seen), np.nan), where=seen > 0)


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
    header, columns = ["round"], [base_rounds.tolist()]
    for label, (_, _, _, mean, var) in zip(labels, loaded):
        header += [f"fr_mean_{label}", f"fr_std_{label}"]
        columns += [mean.tolist(), np.sqrt(var).tolist()]
    _write_table(fr_path, header, "%d" + ",%.12g,%.12g" * len(loaded) + "\r\n", columns)

    arms_path = Path(f"{out_prefix}_arms.csv")
    ratios = [_read_arm_ratios(d) for d, *_ in loaded]
    n_arms = len(ratios[0])
    if any(len(r) != n_arms for r in ratios):
        raise ValueError("per-arm tables disagree on arm count")
    header = ["arm"] + [f"ratio_{label}" for label in labels]
    columns = [range(n_arms)] + [r.tolist() for r in ratios]
    _write_table(arms_path, header, "%d" + ",%.12g" * len(ratios) + "\r\n", columns)
    return fr_path, arms_path


def print_exact_shapley(config_path) -> None:
    cfg = load_config(config_path)
    _, phi, pi_star = _fair_target(cfg)
    print(f"# env={cfg.env} M={cfg.M} K={cfg.K} kind={phi.kind}")
    print("arm,true_phi,pi_star")
    for a in range(cfg.M):
        print("%d,%.12g,%.12g" % (a, phi.values[a], pi_star[a]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ksvfair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_cmp = sub.add_parser("compare", help="join finished run directories")
    p_cmp.add_argument("run_dirs", nargs="+")
    p_cmp.add_argument("--out-prefix", default="comparison")
    p_ex = sub.add_parser("exact-shapley", help="print true values and the fair policy")
    p_ex.add_argument("--config", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            out = run_experiment(args.config, out_dir=args.out)
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
