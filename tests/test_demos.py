"""Smoke runs of the demo scripts, as a user would start them from the repo root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# each demo with one line of its output that shows it ran to the end
DEMOS = {
    "01_exact_values_and_axioms.py": "K = M reduction check",
    "02_estimation_convergence.py": "R=50, L=10, |S|=4 -> 4000 pulls",
    "03_subset_sampling.py": "every draw has exactly K members",
    "04_bandit_fairness_comparison.py": "lower final FR and slope",
    "05_influence_cascade.py": "fair seed-selection target",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, f"demos/{demo}"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
