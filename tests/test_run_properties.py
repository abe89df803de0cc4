"""Property test of ``ksvfair run`` over small configs, valid and invalid.

Every run either exits 0 and writes tables that keep the schedule's
invariants, or exits 2 before it creates its output directory.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksvfair.cli import ALGOS, ENVS, EXIT_CONFIG, main

GRAPH = Path(__file__).resolve().parent.parent / "data" / "toy_8.edges"  # 8 nodes


@st.composite
def configs(draw, algo, env):
    """INI text of a small run of ``algo`` on ``env``.  About a third of the
    draws hold one invalid value (k = 0, k > m, an m the env does not have,
    r = 0 or a negative round cap), and a small t may not cover the
    runner's fixed phase."""
    bad = draw(st.sampled_from([None] * 10 + ["k = 0", "k > m", "m", "r = 0", "rounds < 0"]))
    n_arms = 8 if env == "cascade" else draw(st.integers(1, 8))
    k = {"k = 0": 0, "k > m": n_arms + 1}.get(bad) or draw(st.integers(1, n_arms))
    tiny = st.sampled_from(range(1, 61))
    if env == "synthetic":
        means = draw(st.lists(st.floats(0.05, 1.0), min_size=n_arms, max_size=n_arms))
        env_keys = f"means = {','.join(map(repr, means))}\nnoise_stds = {','.join(['0.2'] * n_arms)}\n"
    else:
        env_keys = f"graph_path = {GRAPH}\nactivation_p = 0.3\npistar_sims = 20\n"
    return (
        f"[run]\nalgo = {algo}\nenv = {env}\nt = {draw(st.one_of(tiny, st.sampled_from(range(61, 3001))))}\n"
        f"rounds = {-1 if bad == 'rounds < 0' else draw(st.one_of(st.just(0), tiny))}\n"
        f"seeds = {draw(st.integers(0, 3))}\n"
        f"[algo]\nr = {0 if bad == 'r = 0' else draw(st.integers(1, 3))}\n"
        f"l = {draw(st.integers(1, 2))}\n"
        f"[env]\nm = {n_arms + (bad == 'm')}\nk = {k}\n{env_keys}"
    )


def run(config: Path, out: Path) -> int:
    return main(["run", "--config", str(config), "--out", str(out)])


def check_rounds(path: Path, algo: str, T: int, M: int, K: int) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    sel = np.array([[int(r[f"sel_{a}"]) for a in range(M)] for r in rows])
    pi = np.array([[float(r[f"pi_{a}"]) for a in range(M)] for r in rows])
    pulls = np.array([int(r["pulls_cum"]) for r in rows])
    sizes = np.full(len(rows), K)
    if algo == "etcg":  # the sweep plays prefix + 1 arms, as each of the M - k candidates
        sweep = [k + 1 for k in range(K) for _ in range(M - k)]
        assert len(rows) >= len(sweep)
        sizes[: len(sweep)] = sweep
    np.testing.assert_array_equal(sel.sum(axis=1), sizes)
    np.testing.assert_allclose(pi.sum(axis=1), sizes, rtol=0, atol=1e-9)
    assert np.all(np.diff(pulls) > 0) and 0 < pulls[0] and pulls[-1] <= T


@pytest.mark.parametrize("env", ENVS)
@pytest.mark.parametrize("algo", ALGOS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_run_exits_zero_with_sound_tables_or_two_with_no_output(algo, env, data):
    text = data.draw(configs(algo, env))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "c.ini"
        config.write_text(text)
        first, second = tmp / "a", tmp / "b"
        code = run(config, first)
        assert code in (0, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert not first.exists()
            return
        assert run(config, second) == 0
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        keys = dict(line.split(" = ") for line in text.splitlines() if " = " in line)
        [table] = first.glob("run_seed*.csv")
        check_rounds(table, algo, int(keys["t"]), int(keys["m"]), int(keys["k"]))
