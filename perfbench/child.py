"""One fresh interpreter of the benchmark; started by run.py, never by hand.

``child.py setup CFG...`` imports ksvfair and runs load_config plus build_env
on each config, which is what the set-up time measures.

``child.py run SPEC`` runs the CLI invocations listed in the JSON spec
through ``ksvfair.cli.main``, optionally with the layer tracer installed,
and writes the wall time, return codes, peak RSS and (when traced) the
span dump to the spec's result path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _import_cli():
    from ksvfair import cli

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"ksvfair imported from {cli.__file__}, not from {src}")
    return cli


def setup(configs: list[str]) -> None:
    cli = _import_cli()
    for path in configs:
        cli.build_env(cli.load_config(path))


def run(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    cli = _import_cli()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install(spec["run_id"])
    start = time.perf_counter()
    codes = [cli.main(argv) for argv in spec["calls"]]
    wall_s = time.perf_counter() - start
    result = {
        "wall_s": wall_s,
        "returncodes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    else:
        run(sys.argv[2])
