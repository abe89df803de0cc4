"""Correctness checks on the CSVs that one workload iteration wrote.

Every check is one benchmark operation: it passes or it counts as failed.
The fair target of the synthetic game is compared against the slow
dividend oracle in ``tests/reference.py``; everything else is checked for
internal consistency (probabilities, selections, the regret ledger, the
aggregate and the comparison tables).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from ksvfair.cli import build_env, load_config
from ksvfair.metrics import fair_policy
from reference import dividend_k_shapley

TOL = 1e-9


def _table(path: Path, usecols=None) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)


def _played_sizes(algo: str, n: int, M: int, K: int) -> np.ndarray:
    """Coalition size of each round: K, except during etcg's exploration sweep,
    where phase k (k arms committed) plays k + 1 arms for each of its M - k candidates."""
    sizes = np.full(n, K)
    if algo == "etcg":
        sweep = np.concatenate([np.full(M - k, k + 1) for k in range(K)])
        sizes[: min(n, len(sweep))] = sweep[:n]
    return sizes


def _header(path: Path) -> list[str]:
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


class OutputChecker:
    """Runs the checks; caches the dividend reference per synthetic game."""

    def __init__(self):
        self._reference: dict[tuple, np.ndarray] = {}
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def guarded(self, name: str, fn, *args):
        """Run one check; an exception (a missing or malformed file) fails it."""
        try:
            return fn(*args)
        except Exception as exc:  # the check failed, the benchmark carries on
            self.add(name, False, f"{type(exc).__name__}: {exc}")
            return None

    def reference_phi(self, cfg) -> np.ndarray:
        key = (cfg.means, cfg.noise_stds, cfg.curvature, cfg.K)
        if key not in self._reference:
            self._reference[key] = dividend_k_shapley(build_env(cfg).restricted_game())
        return self._reference[key]

    def check_run(self, algo: str, config: Path, out: Path) -> list[float]:
        """Check one ``ksvfair run`` output dir; returns final fr / rounds per seed."""
        cfg = load_config(config)
        M, K = cfg.M, cfg.K
        arms = {s: _table(out / f"arms_seed{s}.csv") for s in cfg.seeds}
        phi = arms[cfg.seeds[0]][:, 1]
        self.add(
            f"{algo}.target_covers_arms",
            all(
                a.shape == (M, 5) and np.array_equal(a[:, 0], np.arange(M)) and np.array_equal(a[:, 1], phi)
                for a in arms.values()
            )
            and np.isfinite(phi).all(),
        )
        if cfg.env == "synthetic":
            err = float(np.max(np.abs(phi - self.reference_phi(cfg))))
            self.add(f"{algo}.true_phi_matches_dividend_oracle", err <= TOL, f"max error {err:.3g}")
        pi_star = fair_policy(phi, K).probs
        self.add(
            f"{algo}.pistar_valid",
            pi_star.min() >= 0 and pi_star.max() <= 1 and abs(pi_star.sum() - K) <= TOL,
        )
        uniform_step = float(np.abs(pi_star - K / M).sum())
        finals = []
        fr_per_round = []
        for s in cfg.seeds:
            rows = _table(out / f"run_seed{s}.csv")
            n = len(rows)
            pi, sel = rows[:, 4 : 4 + M], rows[:, 4 + M :]
            sizes = _played_sizes(algo, n, M, K)
            self.add(
                f"{algo}.seed{s}.rounds_valid",
                rows.shape[1] == 4 + 2 * M
                and n > 0
                and np.array_equal(rows[:, 0], np.arange(1, n + 1))
                and np.all(np.diff(rows[:, 1]) >= 0)
                and np.all(np.abs(pi.sum(axis=1) - sizes) <= TOL)
                and pi.min() >= -TOL
                and pi.max() <= 1 + TOL
                and np.isin(sel, (0, 1)).all()
                and np.array_equal(sel.sum(axis=1), sizes)
                and not sel[pi <= 0].any(),
            )
            l1 = np.abs(pi - pi_star).sum(axis=1)
            self.add(
                f"{algo}.seed{s}.ledger_consistent",
                np.allclose(rows[:, 2], l1, rtol=0, atol=TOL)
                and np.allclose(rows[:, 3], np.cumsum(rows[:, 2]), rtol=TOL, atol=1e-8),
            )
            finals.append(rows[-1, 3])
            fr_per_round.append(rows[-1, 3] / n)
            if algo == "ksvfair" and cfg.env == "synthetic":
                self.add(
                    f"ksvfair.seed{s}.beats_uniform",
                    rows[-1, 3] < n * uniform_step,
                    f"fr {rows[-1, 3]:.6g} vs uniform {n * uniform_step:.6g}",
                )
        agg = _table(out / "aggregate.csv", usecols=(1, 2, 3))
        self.add(
            f"{algo}.aggregate_consistent",
            np.isclose(agg[-1, 1], np.mean(finals), rtol=TOL, atol=0),
        )
        return fr_per_round

    def check_compare(self, algos: list[str], outs: list[Path], prefix: Path, config: Path) -> None:
        M = load_config(config).M
        table = prefix.with_name(prefix.name + ".csv")
        header = ["round"] + [c for a in algos for c in (f"fr_mean_{a}", f"fr_std_{a}")]
        rows = _table(table)
        ok = _header(table) == header
        for j, out in enumerate(outs):
            agg = _table(out / "aggregate.csv", usecols=(1, 2, 3))
            ok = ok and rows.shape[0] == agg.shape[0]
            ok = ok and np.array_equal(rows[:, 0], agg[:, 0]) and np.array_equal(rows[:, 1 + 2 * j], agg[:, 1])
            ok = ok and np.allclose(rows[:, 2 + 2 * j], np.sqrt(agg[:, 2]), rtol=TOL, atol=TOL)
        arms = prefix.with_name(prefix.name + "_arms.csv")
        ok = ok and _header(arms) == ["arm"] + [f"ratio_{a}" for a in algos]
        ok = ok and _table(arms).shape == (M, 1 + len(algos))
        self.add("compare.tables_consistent", ok)
