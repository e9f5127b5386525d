"""Child processes: spawn through the launcher, wait for ports, reap.

Every process the benchmark starts is registered in one
:class:`Processes` group and stopped on every exit path (normal return,
exception, SIGINT, SIGTERM): SIGTERM first, which the stock CLI answers
with a graceful drain, then SIGKILL after a grace period, and always a
``wait`` so no zombie is left.  Children also get ``PR_SET_PDEATHSIG``
so a benchmark killed with SIGKILL does not orphan its servers.
"""

from __future__ import annotations

import ctypes
import signal
import subprocess
import sys
import time
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
_PR_SET_PDEATHSIG = 1


class BenchError(RuntimeError):
    """The run cannot produce trustworthy numbers; it reports none."""


def _die_with_parent() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the explicit reaping below still applies


class Processes:
    """The benchmark's children; a context manager that reaps them all."""

    def __init__(self, workdir: Path) -> None:
        self._workdir = workdir
        self._procs: list[subprocess.Popen[bytes]] = []
        self._logs: dict[int, Path] = {}

    def __enter__(self) -> "Processes":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop_all()

    def launch(self, tag: str, args: list[str]) -> subprocess.Popen[bytes]:
        """Start ``perfbench/launch.py ARGS`` with output to a log file."""
        log = self._workdir / f"{tag}.log"
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), *args],
                stdin=subprocess.DEVNULL,
                stdout=sink,
                stderr=subprocess.STDOUT,
                preexec_fn=_die_with_parent,
            )
        self._procs.append(proc)
        self._logs[proc.pid] = log
        return proc

    def log_tail(self, proc: subprocess.Popen[bytes], lines: int = 20) -> str:
        log = self._logs.get(proc.pid)
        if log is None or not log.exists():
            return ""
        text = log.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])

    def wait_port(
        self, proc: subprocess.Popen[bytes], port_file: Path, timeout_s: float = 60.0
    ) -> int:
        """The port a server wrote to ``--port-file``; fails if it died."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise BenchError(
                    f"server exited with code {proc.returncode} before "
                    f"listening:\n{self.log_tail(proc)}"
                )
            try:
                text = port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):  # written whole, not mid-write
                return int(text)
            time.sleep(0.005)
        raise BenchError(f"server did not write {port_file} in {timeout_s} s")

    def check_alive(self) -> None:
        """Fail loudly if any child died while the run was measuring."""
        for proc in self._procs:
            if proc.poll() is not None:
                raise BenchError(
                    f"server pid {proc.pid} died mid-run with code "
                    f"{proc.returncode}:\n{self.log_tail(proc)}"
                )

    def stop(self, proc: subprocess.Popen[bytes], grace_s: float = 20.0) -> int:
        """SIGTERM (graceful drain), SIGKILL after ``grace_s``; always reaped."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def stop_all(self) -> None:
        # Reverse start order: a router goes down before its backends.
        for proc in reversed(list(self._procs)):
            self.stop(proc)


def peak_rss_mib(pid: int | None = None) -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    status = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {status}")
