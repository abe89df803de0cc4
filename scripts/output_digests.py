"""Print a SHA-256 digest of every file a set of configs makes ksvfair write.

    python scripts/output_digests.py [--seeds N] [--root DIR] CONFIG...
    python scripts/output_digests.py --write-golden

For each config this runs ``ksvfair run`` and ``ksvfair exact-shapley`` in
a temporary directory, and ``ksvfair compare`` over every two or more runs
that share a round grid.  It prints one ``sha256  config/file`` line per
output, sorted by path, so the outputs of two checkouts are compared with
one ``diff``.  A config whose fair target is sampled rather than enumerated
(``exact_cost(M, K) > MAX_EXACT_COALITIONS``, as for
``cascade_community.ini``) gets no ``exact_shapley.txt`` digest: its target
takes minutes to build, and the run's ``arms_seed*.csv`` already holds the
same ``true_phi`` text, from the same ``default_rng(0)`` draw.

    python scripts/output_digests.py --root ../parent configs/*.ini > parent.txt
    python scripts/output_digests.py configs/*.ini > change.txt
    diff parent.txt change.txt

``--seeds N`` keeps the first N seeds of each config.  ``--root`` names the
checkout whose ``src/`` is run (default: the one holding this script); the
runs start in that directory, so a config's relative ``graph_path`` is
read from there.  The config files themselves are read from the paths given.

``--write-golden`` instead regenerates ``tests/golden_digests.txt``, the
digests the Tier-1 test ``test_golden_output_digests`` compares against
(see ``tests/golden.py``), from this checkout's ``src/``: one set for the
host's numpy SIMD target and one for numpy's baseline target.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _ksvfair(root: Path, *args: str, stdout=None) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-m", "ksvfair.cli", *args], cwd=root, env=env, stdout=stdout, check=True
    )


def _enumerated(root: Path, config: Path) -> bool:
    """Whether ``root``'s library enumerates ``config``'s fair target."""
    code = (
        "import sys; from ksvfair.cli import load_config; "
        "from ksvfair.games import MAX_EXACT_COALITIONS, exact_cost; "
        "cfg = load_config(sys.argv[1]); print(exact_cost(cfg.M, cfg.K) <= MAX_EXACT_COALITIONS)"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(config)], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "True"


def _write_config(src: Path, dest: Path, n_seeds: int | None) -> None:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not parser.read(src):
        raise SystemExit(f"config not found: {src}")
    if n_seeds is not None:
        seeds = [s for s in parser["run"]["seeds"].split(",") if s.strip()]
        parser["run"]["seeds"] = ",".join(seeds[:n_seeds])
    with open(dest, "w") as fh:
        parser.write(fh)


def digests(configs, n_seeds: int | None = None, root: Path | None = None) -> list[str]:
    root = Path(root or Path(__file__).resolve().parent.parent).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        grids: dict[int, list[Path]] = {}
        for config in configs:
            out = tmp / Path(config).stem
            out.mkdir()
            cfg = tmp / f"{out.name}.ini"
            _write_config(Path(config).resolve(), cfg, n_seeds)
            _ksvfair(root, "run", "--config", str(cfg), "--out", str(out), stdout=subprocess.DEVNULL)
            if _enumerated(root, cfg):
                with open(out / "exact_shapley.txt", "w") as fh:
                    _ksvfair(root, "exact-shapley", "--config", str(cfg), stdout=fh)
            n_rows = len((out / "aggregate.csv").read_bytes().splitlines())
            grids.setdefault(n_rows, []).append(out)
        for runs in grids.values():
            if len(runs) > 1:
                out = tmp / "compare"
                out.mkdir(exist_ok=True)
                prefix = out / "+".join(run.name for run in runs)
                _ksvfair(root, "compare", *map(str, runs), "--out-prefix", str(prefix),
                         stdout=subprocess.DEVNULL)
        return [
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(tmp).as_posix()}"
            for path in sorted(tmp.glob("*/*"))
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG")
    parser.add_argument("--seeds", type=int, default=None, help="keep the first N seeds")
    parser.add_argument("--root", default=None, help="checkout whose src/ is run")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate tests/golden_digests.txt and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        repo = Path(__file__).resolve().parent.parent
        sys.path[:0] = [str(repo / "src"), str(repo / "tests")]
        os.chdir(repo)  # the cascade configs name their graphs relative to the root
        import golden

        with tempfile.TemporaryDirectory() as tmp:
            print(f"wrote {golden.write_golden(Path(tmp))}")
        return 0
    if not args.configs:
        parser.error("name at least one CONFIG, or pass --write-golden")
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be >= 1")
    print("\n".join(digests(args.configs, args.seeds, args.root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
