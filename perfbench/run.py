"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload {ingest,serve-cold,serve-warm,routed}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
Temporary files live in ``.perfbench_run/`` under the checkout and are
removed on exit; every child process is reaped on every exit path.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import metrics, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    signal.signal(signal.SIGTERM, _on_sigterm)
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        ctx = workloads.Context(args.workload, args.seed, args.seconds, workdir)
        if args.trace:
            outcome = workloads.run_traced(ctx)
            names = metrics.PER_LAYER
        else:
            outcome = workloads.run(ctx)
            names = metrics.END_TO_END
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run shares the directory
    for line in outcome.report:
        print(line)
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
