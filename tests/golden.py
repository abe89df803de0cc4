"""Golden output digests: one SHA-256 per run, checked against
``tests/golden_digests.txt``.

The file pins four sets of outputs:

* each of the 120 records of the acceptance criteria 5-7 fixture (30 seeds
  of the four policies at ``configs/synthetic_ksvfair.ini``), over the bytes
  of its ``pi``, ``selected``, ``pulls`` and ``est_phi`` arrays;
* the seed-1 record of each fixture policy, over the ``write_round_csv``
  and ``write_arms_csv`` bytes it makes;
* each seed of ``configs/cascade_tiny.ini`` run through ``run_experiment``,
  over its ``run_seed*.csv`` and ``arms_seed*.csv``, and the run's
  ``aggregate.csv``;
* seed 1 of ``configs/cascade_community.ini`` as the cascade-community
  benchmark workload writes it (``perfbench/workloads.py``), over its
  ``run_seed1.csv`` and ``arms_seed1.csv``: the sampled fair target and the
  one-world cascade pulls on the 534-node graph.

Its header records the Python and numpy versions it was made with, since a
different numpy may move the floating-point bits.  The digests come in one
set per SIMD target that numpy dispatches ``expm1`` and ``log1p`` to, each
set headed by its ``# simd`` line: the synthetic transform and the cascade
gap draw call them, and their results differ between targets (and from
libm's) in the last bits, so the same numpy on another CPU moves the
digests too.  A run is checked against the set of its own target.
Regenerate the file with ``python scripts/output_digests.py --write-golden``:
it writes the set of the host's target and, from a subprocess with
``NPY_DISABLE_CPU_FEATURES`` set, that of numpy's baseline target, and keeps
the sets of other targets when the Python and numpy versions are unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from ksvfair import exact_k_shapley, fair_policy
from ksvfair.cli import build_env, load_config, run_experiment, run_seeds, write_arms_csv, write_round_csv
from ksvfair.policies import ALGORITHMS

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_digests.txt")
BENCHMARK_CONFIG = REPO / "configs" / "synthetic_ksvfair.ini"
CASCADE_CONFIG = REPO / "configs" / "cascade_tiny.ini"


def benchmark_runs() -> dict:
    """30-seed runs of all four policies at the shipped benchmark config,
    played through the CLI's seed loop."""
    cfg = load_config(BENCHMARK_CONFIG)
    phi = exact_k_shapley(build_env(cfg).restricted_game()).values
    out = {"phi": phi, "pi_star": fair_policy(phi, cfg.K).probs, "cfg": cfg}
    for name in ALGORITHMS:
        algo_cfg = dataclasses.replace(cfg, algo=name)
        out[name] = list(run_seeds(algo_cfg, build_env(algo_cfg)))  # build_env lets muras query K + 1 arms
    return out


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def record_digests(runs: dict) -> list[str]:
    """One ``sha256  criterion5/<algo>/seed<s>`` line per fixture record."""
    return [
        f"{_sha256(r.pi.tobytes(), r.selected.tobytes(), r.pulls.tobytes(), r.est_phi.tobytes())}"
        f"  criterion5/{algo}/seed{r.seed}"
        for algo in ("ksvfair", "muras", "uniform", "etcg")
        for r in runs[algo]
    ]


def table_digests(runs: dict, out_dir: Path) -> list[str]:
    """One ``sha256  tables/<algo>/seed1`` line per fixture policy, over the
    round and arm tables of its seed-1 record, written to ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for algo in ("ksvfair", "muras", "uniform", "etcg"):
        record = next(r for r in runs[algo] if r.seed == 1)
        write_round_csv(out_dir / f"run_{algo}.csv", record, runs["pi_star"])
        write_arms_csv(out_dir / f"arms_{algo}.csv", record, runs["phi"])
        tables = [(out_dir / f"{kind}_{algo}.csv").read_bytes() for kind in ("run", "arms")]
        lines.append(f"{_sha256(*tables)}  tables/{algo}/seed1")
    return lines


def cascade_digests(out_dir: Path) -> list[str]:
    """One line per seed of ``cascade_tiny.ini`` and one for its aggregate,
    from a run written to ``out_dir``; run from the repository root, where
    the config's ``graph_path`` starts."""
    out = run_experiment(CASCADE_CONFIG, out_dir=out_dir)
    lines = [
        f"{_sha256((out / f'run_seed{s}.csv').read_bytes(), (out / f'arms_seed{s}.csv').read_bytes())}"
        f"  cascade_tiny/seed{s}"
        for s in load_config(CASCADE_CONFIG).seeds
    ]
    return lines + [f"{_sha256((out / 'aggregate.csv').read_bytes())}  cascade_tiny/aggregate"]


def community_cut_config(out_dir: Path) -> Path:
    """Write the cascade-community benchmark workload's INI, at workload
    seed 0, to ``out_dir``: ``cascade_community.ini`` at the benchmark's
    cuts, seed 1, with an absolute graph_path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    out_dir.mkdir(parents=True, exist_ok=True)
    [config] = workloads.write_configs(workloads.WORKLOADS["cascade-community"], REPO, out_dir, 0)
    return config


def community_cut_digests(out_dir: Path) -> list[str]:
    """One line for seed 1 of ``cascade_community.ini`` at the benchmark's
    cuts, run from an INI written to ``out_dir``."""
    out = run_experiment(community_cut_config(out_dir), out_dir=out_dir / "run")
    tables = [(out / f"{kind}_seed1.csv").read_bytes() for kind in ("run", "arms")]
    return [f"{_sha256(*tables)}  cascade_community_cut/seed1"]


def _loops() -> list[dict]:
    """numpy's float64 ``expm1`` and ``log1p`` loops, as ``opt_func_info``
    reports them; empty before numpy 2.0, which cannot report them."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return []
    info = opt_func_info(func_name="expm1|log1p", signature="float64")
    # each function has one float64 loop, keyed by its type characters ("dd")
    return [loop for name in ("expm1", "log1p") for loop in info[name].values()]


def simd_targets() -> str:
    """The SIMD target of numpy's float64 ``expm1`` and ``log1p`` loops on
    this host, ``unknown`` before numpy 2.0."""
    loops = _loops()
    if not loops:
        return "unknown"
    return " ".join(f"{name}={loop['current']}" for name, loop in zip(("expm1", "log1p"), loops))


def versions() -> list[str]:
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}"]


def read_golden() -> tuple[list[str], dict[str, list[str]]]:
    """The golden file's version lines, and its digest lines per SIMD target."""
    header, sets = [], {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# simd "):
            digest_set = sets.setdefault(line.removeprefix("# simd "), [])
        elif line.startswith("#"):
            header.append(line)
        elif line:
            digest_set.append(line)
    return header, sets


def mismatch(lines: list[str]) -> str | None:
    """None when ``lines`` equal the golden digests of this host's SIMD
    target; otherwise a message naming the target when the file has no set
    for it, or else the first differing run and both sets of version lines."""
    golden_versions, sets = read_golden()
    target = simd_targets()
    if target not in sets:
        return (
            f"{GOLDEN.name} has no digests for simd {target} (only for {'; '.join(sets)}); "
            "add them with `python scripts/output_digests.py --write-golden` on this host"
        )
    golden = sets[target]
    if lines == golden:
        return None
    want = {name: digest for digest, name in (l.split("  ", 1) for l in golden)}
    got = {name: digest for digest, name in (l.split("  ", 1) for l in lines)}
    first = next((n for n in [*want, *got] if want.get(n) != got.get(n)), "the run order")
    return (
        f"output digests differ from {GOLDEN.name}'s simd {target} set, first at {first}; "
        f"golden file made with {', '.join(v[2:] for v in golden_versions)}; "
        f"this run {', '.join(v[2:] for v in versions())}"
    )


def digests(runs: dict, tmp_dir: Path) -> list[str]:
    """Every digest line, in the golden file's order; tables are written under ``tmp_dir``."""
    return (
        record_digests(runs)
        + table_digests(runs, tmp_dir / "tables")
        + cascade_digests(tmp_dir / "cascade_tiny")
        + community_cut_digests(tmp_dir / "cascade_community_cut")
    )


def host_set(tmp_dir: Path) -> list[str]:
    """This process's digest set, headed by its ``# simd`` line."""
    return [f"# simd {simd_targets()}", *digests(benchmark_runs(), tmp_dir)]


def _baseline_set(tmp_dir: Path) -> list[str]:
    """The digest set of numpy's baseline target, made by this module run as
    a script with every other target of the two loops disabled; empty when
    numpy cannot name those targets."""
    above = {t for loop in _loops() for t in loop["available"].split() if not t.startswith("baseline")}
    if not above:
        return []
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(sorted(above)), PYTHONPATH=str(REPO / "src"))
    tmp_dir.mkdir(parents=True)
    subprocess.run([sys.executable, __file__, str(tmp_dir)], cwd=REPO, env=env, check=True)
    return (tmp_dir / "set.txt").read_text().splitlines()


def write_golden(tmp_dir: Path) -> Path:
    """Write the host's set and the baseline's, keeping the file's sets of
    other targets when they were made with this Python and numpy; run from
    the repository root."""
    sets = {}
    for head, *lines in filter(None, (host_set(tmp_dir / "host"), _baseline_set(tmp_dir / "baseline"))):
        sets.setdefault(head.removeprefix("# simd "), lines)
    header, kept = read_golden() if GOLDEN.exists() else ([], {})
    if header == versions():
        for target, lines in kept.items():
            sets.setdefault(target, lines)
    body = [line for target, lines in sets.items() for line in (f"# simd {target}", *lines)]
    GOLDEN.write_text("\n".join(versions() + body) + "\n")
    return GOLDEN


if __name__ == "__main__":  # python tests/golden.py TMP_DIR, from the repository root
    out = Path(sys.argv[1])
    (out / "set.txt").write_text("\n".join(host_set(out)) + "\n")
