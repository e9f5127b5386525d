"""Benchmark-owned launcher for the program's processes.

    python3 perfbench/launch.py [--trace FILE] -- serve DATA... --port 0 ...
    python3 perfbench/launch.py [--trace FILE] -- shard-serve BACKEND... ...
    python3 perfbench/launch.py --warmup DIR

The first two forms run the stock CLI entry point (``repro.cli.main``)
with the given arguments.  With ``--trace`` the layer wrappers of
:mod:`perfbench.tracing` are installed first and the recorded spans are
written to ``FILE.npy``/``FILE.json`` once the CLI returns (after its
SIGTERM drain).  ``--warmup`` is the ingest set-up: import the library,
write and read back the inputs in DIR, print ``ready``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def warmup(directory: Path) -> int:
    import numpy as np

    inputs = [np.load(path) for path in sorted(directory.glob("*.npy"))]
    from repro import api

    for index, values in enumerate(inputs):
        path = directory / f"w{index}.alpc"
        api.write(path, values)
        back = api.read(path)
        if not np.array_equal(back.view(np.uint64), values.view(np.uint64)):
            print(f"warm-up read-back of {path} differs", file=sys.stderr)
            return 1
    print("ready", flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--warmup"]:
        return warmup(Path(argv[1]))
    trace_file: Path | None = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.cli import main as cli_main

    if trace_file is None:
        return cli_main(argv)

    from perfbench import tracing

    rec = tracing.SpanRecorder()
    tracing.install_program_layers(rec)
    stats_sources = tracing.install_server_layers(rec)
    if argv[:1] == ["shard-serve"]:
        tracing.install_router_layers(rec)
    try:
        return cli_main(argv)
    finally:
        tracing.record_server_stats(rec, stats_sources)
        rec.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
