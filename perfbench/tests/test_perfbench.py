"""The benchmark's own tests: output contract, process hygiene, and the
self-check that traced count metrics repeat exactly at one seed.

    python3 -m pytest -q perfbench/tests

They start real servers and take a few minutes; they are not part of the
program's test suite.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics  # noqa: E402

RUN = [sys.executable, "perfbench/run.py"]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result(proc: subprocess.CompletedProcess[str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def live_children(marker: str) -> list[int]:
    """Pids of live processes whose command line mentions ``marker``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            state = next(
                line for line in (entry / "status").read_text().splitlines()
                if line.startswith("State:")
            )
        except (OSError, StopIteration):
            continue
        if marker in cmdline and "zombie" not in state:
            pids.append(int(entry.name))
    return pids


def start_and_wait_for_server(workload: str) -> tuple[subprocess.Popen[str], Path]:
    proc = subprocess.Popen(
        [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    workdir = ROOT / ".perfbench_run" / str(proc.pid)
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            pytest.fail(f"benchmark ended early: {proc.stderr.read()}")
        if live_children(str(workdir)) and list(workdir.glob("*.port")):
            return proc, workdir
        time.sleep(0.05)
    proc.kill()
    pytest.fail("no server started")


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def test_untraced_run_prints_every_end_to_end_metric_and_leaves_nothing():
    proc = bench("serve-cold", seed=5, trace=0)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == [name for name, _ in metrics.END_TO_END]
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert not live_children(str(ROOT / ".perfbench_run"))


@pytest.mark.parametrize("workload", ["ingest", "serve-cold", "serve-warm"])
def test_traced_counts_repeat_exactly_at_one_seed(workload):
    first, second = (result(bench(workload, seed=7, trace=1)) for _ in range(2))
    assert list(first["metrics"]) == [name for name, _ in metrics.PER_LAYER]
    for name in metrics.DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


def test_sigint_reaps_every_server():
    proc, workdir = start_and_wait_for_server("serve-warm")
    proc.send_signal(signal.SIGINT)
    stdout, _ = proc.communicate(timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in stdout
    assert not live_children(str(workdir))
    assert not workdir.exists()


def test_a_server_dying_mid_run_fails_loudly():
    proc, workdir = start_and_wait_for_server("serve-cold")
    for pid in live_children(str(workdir)):
        os.kill(pid, signal.SIGKILL)
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode != 0
    assert '"metrics"' not in stdout
    assert "died" in stderr or "failed" in stderr or "exited" in stderr
    assert not live_children(str(workdir))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = bench("ingest", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
