"""Check that the tests catch a registered set of deliberate faults (mutants).

    python scripts/mutants.py

Each entry of ``MUTANTS`` names a file of the repository, an exact snippet
in it, the snippet's replacement, and the test ids that must fail once the
replacement is in.  A test id is a pytest node id; a parametrised test
counts as failing when any of its cases fails.

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, then applies one mutant at a time there and runs that mutant's
tests in one pytest subprocess.  A mutant is killed when each of its test
ids fails, and survives otherwise.  The script exits 1 if any mutant
survives or any snippet does not occur exactly once in its file, and 0
when every mutant is killed.
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
)


def _failed_ids(output: str) -> list[str]:
    """The node ids of the failed cases in pytest's ``-rf`` summary."""
    return re.findall(r"^FAILED (\S+)", output, flags=re.MULTILINE)


def run_mutant(mutant: Mutant, work: Path) -> tuple[bool, str]:
    """Apply ``mutant`` in the copy at ``work``, run its tests, restore the
    file; returns (killed, note)."""
    target = work / mutant.path
    original = target.read_text()
    if original.count(mutant.snippet) != 1:
        return False, f"snippet occurs {original.count(mutant.snippet)} times in {mutant.path}"
    target.write_text(original.replace(mutant.snippet, mutant.replacement))
    try:
        # no bytecode cache: a .pyc keyed on whole-second mtimes could outlive a mutant
        path = os.pathsep.join([str(work / "src"), str(work / "tests")])
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
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
        for folder in ("src", "tests"):
            shutil.copytree(ROOT / folder, work / folder, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        for mutant in MUTANTS:
            start = time.perf_counter()
            killed, note = run_mutant(mutant, work)
            ok &= killed
            print(f"{'KILLED ' if killed else 'SURVIVED'} {mutant.name} ({time.perf_counter() - start:.1f} s): {note}")
    print(f"{len(MUTANTS)} mutants, {'all killed' if ok else 'NOT all killed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
