"""Check that the tests catch a registered set of deliberate faults (mutants).

    python scripts/mutants.py

Each entry of ``MUTANTS`` names a file of the repository, an exact snippet
in it, the snippet's replacement, and the test ids that must fail once the
replacement is in.  A test id is a pytest node id; a parametrised test
counts as failing when any of its cases fails.

The script copies ``src/``, ``tests/``, ``data/``, ``configs/`` and
``pyproject.toml`` to a temporary directory and first runs every registered
test there unmutated: a test that fails before any mutant is applied could
not tell a mutant apart, so the script stops with exit 1.  It then applies one mutant at a
time and runs that mutant's tests in one pytest subprocess.  A mutant is
killed when each of its test ids fails, and survives otherwise.  The
script exits 1 if any mutant survives or any snippet does not occur exactly
once in its file, and 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "confidence-radius-first-term-only",
        "src/ksvfair/policies.py",
        "    return first + second\n",
        "    return first\n",
        ("tests/test_policies.py::TestRunKsvfairReference::test_matches_reference",),
    ),
    Mutant(
        "muras-merit-absorb-weight-1",
        "src/ksvfair/policies.py",
        "state.absorb(est, weight=est.n_perms)",
        "state.absorb(est, weight=1)",
        ("tests/test_policies.py::TestBaselineReferences::test_muras_matches_reference",),
    ),
    Mutant(
        "etcg-tie-to-the-later-candidate",
        "src/ksvfair/policies.py",
        "if m > best_mean:",
        "if m >= best_mean:",
        ("tests/test_policies.py::TestBaselineReferences::test_etcg_tie_matches_reference",),
    ),
    Mutant(
        "normalize-accepts-non-finite-sum",
        "src/ksvfair/rounding.py",
        "    if not 0 < total < np.inf:",
        "    if total <= 0:",
        ("tests/test_rounding.py::TestNormalizeToMarginals::test_non_finite_sum_rejected",),
    ),
    Mutant(
        "etcg-commit-rows-one-round-late",
        "src/ksvfair/policies.py",
        "rec.selected[t:, prefix] = 1",
        "rec.selected[t + 1 :, prefix] = 1",
        (
            "tests/test_policies.py::TestRecorder::test_selected_marks_played_coalitions",
            "tests/test_policies.py::TestBaselineReferences::test_etcg_matches_reference",
        ),
    ),
    Mutant(
        "rrs-sample-without-clip",
        "src/ksvfair/rounding.py",
        "probs[perm].clip(0.0, 1.0).cumsum()",
        "probs[perm].cumsum()",
        ("tests/test_rounding.py::TestRrsSample::test_entries_clipped_to_unit_interval",),
    ),
    Mutant(
        "sampled-stderr-ddof-0",
        "src/ksvfair/games.py",
        "        hits - 1,\n",
        "        hits,\n",
        ("tests/test_games.py::TestSampledMatchesScalar::test_random_table_games",),
    ),
    Mutant(
        "row-texts-compare-values",
        "src/ksvfair/cli.py",
        "new[1:] = (bits[1:] != bits[:-1]).any(axis=1)",
        "new[1:] = (rows[1:] != rows[:-1]).any(axis=1)",
        ("tests/test_cli.py::TestWriterBytes::test_negative_zero_l1_after_zero",),
    ),
    Mutant(
        "cascade-env-without-reduce",
        "src/ksvfair/envs.py",
        "    def __reduce__(self):",
        "    def _reduce_unused(self):",
        ("tests/test_envs.py::TestCascadePickle::test_round_trip_rebuilds_the_env",),
    ),
    Mutant(
        "synthetic-pull-means-without-clip",
        "src/ksvfair/envs.py",
        "means = draws.clip(0.0, 1.0, out=draws).sum(axis=1) / n",
        "means = draws.sum(axis=1) / n",
        ("tests/test_envs.py::TestBatchedGaussianPrimitive::test_mixed_batch",),
    ),
    Mutant(
        "synthetic-pull-draws-when-noiseless",
        "src/ksvfair/envs.py",
        "        mu, sigma = self._moment(self._checked(members))\n"
        "        if sigma == 0.0:\n"
        "            return min(max(mu, 0.0), 1.0)\n",
        "        mu, sigma = self._moment(self._checked(members))\n",
        ("tests/test_envs.py::TestScalarSumBits::test_shipped_game_every_coalition",),
    ),
    Mutant(
        "cascade-gaps-without-plus-one",
        "src/ksvfair/envs.py",
        "        ids += self._ramp\n",
        "",
        (
            "tests/test_envs.py::TestLiveEdgeLaw::test_each_edge_live_at_rate_p",
            "tests/test_envs.py::TestLiveEdgeLaw::test_live_count_per_world_is_binomial",
        ),
    ),
    Mutant(
        "one-world-count-without-renumbering",
        "src/ksvfair/envs.py",
        "reached[label.take(self._node.take(S))] = True",
        "reached[label.take(np.asarray(S))] = True",
        (
            "tests/test_envs.py::TestCascade::test_community_values_pinned",
            "tests/test_envs.py::TestCascade::test_community_one_world_values_pinned",
        ),
    ),
    Mutant(
        "sampled-shapley-pairwise-sum",
        "src/ksvfair/games.py",
        "mean = np.bincount(arms, weights=d, minlength=M) / hits",
        "mean = np.array([d[arms == a].sum() for a in range(M)]) / hits",
        (
            "tests/test_games.py::TestSampledMatchesScalar::test_random_table_games",
            "tests/test_games.py::TestSampledMatchesScalar::test_cut_community_target",
        ),
    ),
    Mutant(
        "synthetic-pull-mean-python-sum",
        "src/ksvfair/envs.py",
        "return float(draws.clip(0.0, 1.0, out=draws).sum() / n)",
        "return float(sum(draws.clip(0.0, 1.0, out=draws).tolist()) / n)",
        ("tests/test_envs.py::TestOneRowPull::test_synthetic_row_at_sweep_pull_counts",),
    ),
    Mutant(
        "estimation-squares-divided-first",
        "src/ksvfair/estimation.py",
        "weights=(d * d / R).ravel()",
        "weights=(d / R * d).ravel()",
        (
            "tests/test_estimation.py::TestArrayMatchesScalar::test_shapley_estimation",
            "tests/test_estimation.py::TestArrayMatchesScalar::test_shapley_estimation_at_benchmark_shape",
        ),
    ),
    Mutant(
        "muras-outsiders-in-id-order",
        "src/ksvfair/estimation.py",
        "outside = order[~inside[order]]",
        "outside = np.flatnonzero(~inside)",
        (
            "tests/test_estimation.py::TestArrayMatchesScalar::test_muras_round",
            "tests/test_estimation.py::TestArrayMatchesScalar::test_muras_round_at_benchmark_shape",
        ),
    ),
    Mutant(
        "rrs-sample-moved-marginals",
        "src/ksvfair/rounding.py",
        "cuts = probs[perm].clip(0.0, 1.0).cumsum()",
        "cuts = (probs[perm] + 0.01 * (perm == 2) - 0.01 * (perm == 3)).clip(0.0, 1.0).cumsum()",
        ("tests/test_rounding.py::TestInclusionLaw::test_inclusion_counts_match_marginals",),
    ),
    Mutant(
        "synthetic-moments-left-to-right",
        "src/ksvfair/envs.py",
        "sum_means[nonempty] = np.add.reduceat(self.means[flat], starts)",
        "sum_means[nonempty] = [sum(row) for row in np.split(self.means[flat], starts[1:])]",
        ("tests/test_envs.py::TestScalarSumBits::test_batched_moments_pinned_on_the_shipped_game",),
    ),
    Mutant(
        "sampled-shapley-values-before-coverage-check",
        "src/ksvfair/games.py",
        "    hits = np.bincount(arms, minlength=M)\n",
        "    valuation(tuple(arms[:1].tolist()))\n    hits = np.bincount(arms, minlength=M)\n",
        ("tests/test_games.py::TestSampledValues::test_unsampled_arm_fails_before_any_valuation",),
    ),
    Mutant(
        "synthetic-moment-fsum",
        "src/ksvfair/envs.py",
        "        return float(self._transform(x)), math.sqrt(q / len(S))\n",
        "        return float(self._transform(math.fsum(means[i] for i in S))), math.sqrt(q / len(S))\n",
        ("tests/test_envs.py::TestScalarPullBits::test_synthetic_every_coalition",),
    ),
    Mutant(
        "etcg-explores-with-twenty-pulls",
        "src/ksvfair/policies.py",
        "m = oracle.pull_mean(played, cfg.L, rng)",
        "m = oracle.pull_mean(played, 20, rng)",
        ("tests/test_policies.py::TestBaselineReferences::test_etcg_matches_reference",),
    ),
    Mutant(
        "rrs-sample-cuts-not-rescaled",
        "src/ksvfair/rounding.py",
        "cuts = np.rint(cuts / cuts[-1] * (K * q))",
        "cuts = np.rint(cuts * (K * q))",
        ("tests/test_rounding.py::TestRrsSample::test_largest_offset_keeps_the_last_point_below_k",),
    ),
    Mutant(
        "rrs-sample-cuts-not-divided-by-sum",
        "src/ksvfair/rounding.py",
        "np.rint(cuts / cuts[-1] * (K * q))",
        "np.rint(cuts * q)",
        ("tests/test_rounding.py::TestRrsSample::test_repeated_pick_raises",),
    ),
    Mutant(
        "rrs-sample-offset-rounded-up",
        "src/ksvfair/rounding.py",
        "math.floor(rng.random() * q)",
        "math.ceil(rng.random() * q)",
        ("tests/test_rounding.py::TestRrsSample::test_forced_draws_at_offsets_near_one",),
    ),
    Mutant(
        "water-fill-without-mass-guard",
        "src/ksvfair/rounding.py",
        "        if mass <= 0:\n            probs[free] = 0.0\n            break\n",
        "",
        (
            "tests/test_rounding.py::TestNormalizeToMarginals::"
            "test_every_positive_score_capped_by_rounding_leaves_the_rest_at_zero",
        ),
    ),
)


def _failed_ids(output: str) -> list[str]:
    """The node ids of the failed cases in pytest's ``-rf`` summary."""
    return re.findall(r"^FAILED (\S+)", output, flags=re.MULTILINE)


def _pytest(work: Path, tests) -> subprocess.CompletedProcess:
    """Run ``tests`` in the copy at ``work`` in one pytest subprocess."""
    # no bytecode cache: a .pyc keyed on whole-second mtimes could outlive a mutant
    path = os.pathsep.join([str(work / "src"), str(work / "tests")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)


def run_mutant(mutant: Mutant, work: Path) -> tuple[bool, str]:
    """Apply ``mutant`` in the copy at ``work``, run its tests, restore the
    file; returns (killed, note)."""
    target = work / mutant.path
    original = target.read_text()
    if original.count(mutant.snippet) != 1:
        return False, f"snippet occurs {original.count(mutant.snippet)} times in {mutant.path}"
    target.write_text(original.replace(mutant.snippet, mutant.replacement))
    try:
        proc = _pytest(work, mutant.tests)
    finally:
        target.write_text(original)
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else is an error
        return False, f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
    failed = _failed_ids(proc.stdout)
    missed = [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]
    if missed:
        return False, "survived: no failing case of " + ", ".join(missed)
    return True, f"killed by {len(failed)} failing case(s)"


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for folder in ("src", "tests", "data", "configs"):
            shutil.copytree(ROOT / folder, work / folder, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        start = time.perf_counter()
        unmutated = _pytest(work, list(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if unmutated.returncode != 0:
            print(f"the registered tests fail unmutated (pytest exited {unmutated.returncode}):")
            print(unmutated.stdout + unmutated.stderr)
            return 1
        print(f"registered tests pass unmutated ({time.perf_counter() - start:.1f} s)")
        for mutant in MUTANTS:
            start = time.perf_counter()
            killed, note = run_mutant(mutant, work)
            ok &= killed
            print(f"{'KILLED ' if killed else 'SURVIVED'} {mutant.name} ({time.perf_counter() - start:.1f} s): {note}")
    print(f"{len(MUTANTS)} mutants, {'all killed' if ok else 'NOT all killed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
