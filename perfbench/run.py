"""ksvfair benchmark: one workload of the CLI, timed, checked and optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes its configs from the
shipped ones (seeds shifted by ``--seed``), then runs the workload's
``ksvfair run`` / ``ksvfair compare`` calls from the checkout's ``src/`` in
fresh interpreters, with ``KSV_THREADS=1``, until ``--seconds`` of work have
been measured.  Times are scaled to a reference CPU speed, measured by a
probe on the same CPU while each child runs (see README.md).  Every
output is checked.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds traced runs and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  Scratch files live under
``.perfbench-work/`` in the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/ksvfair/cli.py", "tests/reference.py", "configs", "data/community_534.edges")
BUDGET_S = 170.0  # the whole run, children included, ends before this
SETUP_REPEATS = 5
KSV_THREADS = "1"  # one process per run: measure the program, not the scheduler
TRACED_REPEATS = 2  # the second traced run checks that the exact counts repeat
PROBE_PERIOD_S = 0.05
REF_CHUNK_S = 1e-3  # probe chunk time that defines the reference speed (see README)
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fr_per_round", "1/round"),
)


@dataclass
class Iteration:
    wall_s: float  # at the reference speed
    raw_wall_s: float
    peak_rss_mb: float
    duration_s: float
    hashes: dict[str, str]
    output_bytes: int
    trace: dict | None = None


@dataclass
class Ledger:
    """Operations attempted and failed: one per (policy, seed) run or output check."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, weight: int = 1, detail: str = "") -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(f"FAILED {name} {detail}".rstrip())


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        from ksvfair.cli import load_config  # from the checkout's src/, on sys.path since main()

        self.name = workload
        self.workload = WORKLOADS[workload]
        self.work = work
        self.deadline = deadline
        self.ledger = Ledger()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), KSV_THREADS=KSV_THREADS)
        cfg_dir = work / "configs"
        cfg_dir.mkdir()
        self.configs = write_configs(self.workload, ROOT, cfg_dir, seed)
        self.seeds_per_run = [len(load_config(c).seeds) for c in self.configs]

    def _spawn(self, args: list[str], log: Path) -> tuple[int, float, float]:
        """Run child.py to completion, probing the CPU's speed meanwhile.

        Returns the exit code, the wall time from start to exit, and the speed
        factor REF_CHUNK_S / mean probe chunk time over the child's lifetime.
        A thread blocks in waitpid, so the end time is exact; the child is
        killed at the deadline.
        """
        if time.monotonic() >= self.deadline:
            raise TimeoutError("benchmark time budget exhausted")
        ended: list[tuple[int, float]] = []
        samples = []
        with open(log, "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), *args],
                cwd=ROOT,
                env=self.env,
                stdout=fh,
                stderr=subprocess.STDOUT,
            )
            waiter = threading.Thread(target=lambda: ended.append((proc.wait(), time.perf_counter())))
            waiter.start()
            while waiter.is_alive():
                samples.append(probe_chunk())
                waiter.join(PROBE_PERIOD_S)
                if time.monotonic() >= self.deadline:
                    proc.kill()
                    waiter.join()
        if not samples:  # the child ended before the first probe
            samples.append(probe_chunk())
        code, end = ended[0]
        if code < 0 and time.monotonic() >= self.deadline:
            raise TimeoutError("benchmark time budget exhausted; child stopped")
        return code, end - start, REF_CHUNK_S / statistics.fmean(samples)

    def setup_s(self) -> tuple[float, float]:
        """Median time of fresh interpreters that import ksvfair and build every env.

        Returns (at the reference speed, raw).
        """
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            code, elapsed, speed = self._spawn(["setup", *map(str, self.configs)], self.work / "setup.log")
            if code != 0:
                raise RuntimeError(f"set-up failed; see {self.work / 'setup.log'}")
            scaled.append(elapsed * speed)
            raw.append(elapsed)
        return statistics.median(scaled), statistics.median(raw)

    def iterate(self, tag: str, trace: bool) -> tuple[Iteration | None, Path]:
        """Run the workload's CLI calls once in a fresh interpreter."""
        it_dir = self.work / tag
        out = it_dir / "out"
        out.mkdir(parents=True)
        runs = [out / r.algo for r in self.workload.runs]
        calls = [["run", "--config", str(c), "--out", str(d)] for c, d in zip(self.configs, runs)]
        if self.workload.compare:
            calls.append(["compare", *map(str, runs), "--out-prefix", str(out / "comparison")])
        spec = {"calls": calls, "trace": trace, "run_id": tag, "result": str(it_dir / "result.json")}
        (it_dir / "spec.json").write_text(json.dumps(spec))
        code, duration, speed = self._spawn(["run", str(it_dir / "spec.json")], it_dir / "child.log")
        if code != 0:
            self.ledger.record(f"{tag}.interpreter", False, sum(self.seeds_per_run), _tail(it_dir / "child.log"))
            return None, out
        result = json.loads((it_dir / "result.json").read_text())
        for call, code, n in zip(calls, result["returncodes"], self.seeds_per_run + [1]):
            self.ledger.record(f"{tag}.{call[0]} {call[-1]}", code == 0, n, _tail(it_dir / "child.log"))
        hashes = {str(p.relative_to(out)): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}
        size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        wall = result["wall_s"]
        it = Iteration(wall * speed, wall, result["peak_rss_mb"], duration, hashes, size, result.get("trace"))
        return it, out

    def check(self, out: Path) -> dict[str, list[float]]:
        """Check one iteration's outputs; returns per-seed fr / rounds by policy."""
        from checks import OutputChecker

        checker = OutputChecker()
        fr = {}
        for run, cfg in zip(self.workload.runs, self.configs):
            fr[run.algo] = checker.guarded(f"{run.algo}.outputs", checker.check_run, run.algo, cfg, out / run.algo)
        if self.workload.compare:
            algos = [r.algo for r in self.workload.runs]
            outs = [out / a for a in algos]
            checker.guarded("compare.outputs", checker.check_compare, algos, outs, out / "comparison", self.configs[0])
        for name, ok, detail in checker.results:
            self.ledger.record(name, ok, 1, detail)
        return {k: v for k, v in fr.items() if v}

    def measure(self, seconds: float, trace: bool) -> tuple[list[Iteration], list[Iteration], dict]:
        """Untraced iterations until ``seconds`` are measured, then the traced ones."""
        plain: list[Iteration] = []
        fr: dict[str, list[float]] = {}
        measured = 0.0
        while True:
            it, out = self.iterate(f"it{len(plain)}", trace=False)
            if it is None:
                break
            if not plain:
                fr = self.check(out)
            else:
                self.ledger.record(f"it{len(plain)}.rerun_identical", it.hashes == plain[0].hashes)
            shutil.rmtree(out)
            plain.append(it)
            measured += it.raw_wall_s
            if measured >= seconds or not self._fits(it.duration_s):
                break
        traced: list[Iteration] = []
        while trace and plain and len(traced) < TRACED_REPEATS:
            if traced and not self._fits(traced[-1].duration_s, 1.0):
                print("note: no time left to repeat the traced run; exact-count repeat check skipped")
                break
            try:
                it, out = self.iterate(f"traced{len(traced)}", trace=True)
            except TimeoutError:
                if not traced:
                    raise
                print("note: the repeated traced run hit the time budget; exact-count repeat check skipped")
                break
            if it is None:
                break
            self.ledger.record(f"traced{len(traced)}.same_outputs_as_untraced", it.hashes == plain[0].hashes)
            shutil.rmtree(out)
            traced.append(it)
        return plain, traced, fr

    def _fits(self, duration: float, factor: float = 1.5) -> bool:
        """Whether a run that last took ``duration`` likely ends before the deadline."""
        return time.monotonic() + factor * duration + 5 < self.deadline


def probe_chunk() -> float:
    """Time one fixed piece of pure-Python work: the CPU speed probe."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(4000):
        d[i % 97] = d.get(i % 97, 0) + i * i % 7 + len((i, i + 1))
    return time.perf_counter() - start


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tail(log: Path, n: int = 5) -> str:
    try:
        return " | ".join(log.read_text(errors="replace").strip().splitlines()[-n:])
    except OSError:
        return ""


def machine_note() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "KSV_THREADS": KSV_THREADS,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def end_to_end(runner: Runner, plain: list[Iteration], fr: dict) -> dict:
    means = {algo: statistics.fmean(v) for algo, v in fr.items()}
    for algo, v in means.items():
        print(f"fr.{algo} {v:.6g} 1/round (mean over {len(fr[algo])} seed(s))")
    setup_s, setup_raw = runner.setup_s()
    print(f"raw (unscaled) setup_s {setup_raw:.6g} s, wall_s {statistics.median(it.raw_wall_s for it in plain):.6g} s")
    return {
        "wall_s": statistics.median(it.wall_s for it in plain),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in plain),
        "fr_per_round": statistics.fmean(means.values()),
    }


def per_layer(runner: Runner, plain: list[Iteration], traced: list[Iteration]) -> tuple[dict, dict]:
    from tracing import EXACT_COUNTS, PER_LAYER, Summary

    summaries = [Summary(it.trace, it.raw_wall_s) for it in traced]
    rows = []
    for it, summary in zip(traced, summaries):
        row = {name: fn(summary) for name, _, _, fn in PER_LAYER}
        row["cli.output_bytes"] = it.output_bytes
        rows.append(row)
    for name in runner.workload.heavy:
        ok = summaries[0].n_calls(name) > 0
        if not ok:
            print(f"LAYER SELF-CHECK FAILED: {name} recorded no calls on {runner.name}", file=sys.stderr)
        runner.ledger.record(f"heavy.{name}", ok)
    if len(rows) > 1:
        for name in EXACT_COUNTS:
            values = [r[name] for r in rows]
            runner.ledger.record(f"repeat.{name}", len(set(values)) == 1, 1, str(values))
    metrics = rows[0]
    untraced = statistics.median(it.wall_s for it in plain)
    metrics["trace.overhead_frac"] = statistics.median(it.wall_s for it in traced) / untraced - 1
    metrics["trace.top_level_coverage"] = summaries[0].top_level_coverage
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    units.update({"cli.output_bytes": "bytes", "trace.overhead_frac": "ratio", "trace.top_level_coverage": "ratio"})
    return metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a ksvfair checkout ({ROOT}): missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    # the probe must share the children's CPU: they inherit this affinity
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + BUDGET_S
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        print("machine " + json.dumps(machine_note()))
        runner = Runner(args.workload, args.seed, work, deadline)
        plain, traced, fr = runner.measure(args.seconds, bool(args.trace))
        if not plain or not fr or (args.trace and not traced):
            for note in runner.ledger.notes:
                print(note, file=sys.stderr)
            print("error: no successful run to measure", file=sys.stderr)
            return 1
        for label, its in (("untraced", plain), ("traced", traced)):
            if its:
                walls = " ".join(f"{it.wall_s:.4f} ({it.raw_wall_s:.4f} raw)" for it in its)
                print(f"{label} wall_s per run: {walls}")
        if args.trace:
            metrics, units = per_layer(runner, plain, traced)
        else:
            metrics = end_to_end(runner, plain, fr)
            units = dict(END_TO_END)
    except (TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    ledger = runner.ledger
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {ledger.failed / ledger.attempted:.6g} ({ledger.failed} of {ledger.attempted} operations)")
    for note in ledger.notes:
        print(note, file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
