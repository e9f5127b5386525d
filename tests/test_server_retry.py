"""Client retry semantics against a deliberately flaky fake server.

The fake accepts real TCP connections and speaks just enough of the
framed protocol to answer ``ping`` — but drops the first N connections
(accept-then-close) or the first N requests (read-then-close), which is
what a crashing/restarting backend looks like from the client side.
Pins the satellite contract: bounded connect/request retries with
jittered exponential backoff, and a typed
:class:`~repro.server.client.ServerUnavailableError` once the budget is
spent.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.server import protocol
from repro.server.client import (
    ServerClient,
    ServerUnavailableError,
)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class FlakyServer:
    """A real listener that fails the first N connections or requests."""

    def __init__(self, drop_connections: int = 0, drop_requests: int = 0):
        self._drop_connections = drop_connections
        self._drop_requests = drop_requests
        self.connections = 0
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = int(self._listener.getsockname()[1])
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conns: list[socket.socket] = []
        self._workers: list[threading.Thread] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            if self._drop_connections > 0:
                self._drop_connections -= 1
                conn.close()
                continue
            worker = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._lock:
                self._conns.append(conn)
                self._workers.append(worker)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    header, _ = protocol.read_frame(
                        lambda n: self._read_exactly(conn, n)
                    )
                except (protocol.ProtocolError, ConnectionError, OSError):
                    return
                if self._drop_requests > 0:
                    self._drop_requests -= 1
                    return  # close mid-exchange: request died in flight
                frame = protocol.ok_frame(
                    {"pong": True}, b"", header.get("id")
                )
                try:
                    conn.sendall(frame)
                except OSError:
                    return

    @staticmethod
    def _read_exactly(conn: socket.socket, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = conn.recv(remaining)
            if not chunk:
                raise ConnectionError("peer closed")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        """Stop accepting, drop every connection, join every thread.

        Closing a listening socket does not wake a thread blocked in
        ``accept()``; ``shutdown()`` does (it returns ``EINVAL``), and
        likewise wakes connection threads blocked in ``recv()``.
        """
        self._stop.set()
        _shutdown(self._listener)
        self._listener.close()
        self._thread.join(timeout=5)
        with self._lock:
            conns, workers = list(self._conns), list(self._workers)
        for conn in conns:
            _shutdown(conn)
        for worker in workers:
            worker.join(timeout=5)


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed or never connected: nothing to wake


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Every thread a test starts must be gone when it returns."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    deadline = time.monotonic() + 5
    for thread in started:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    leaked = [t for t in started if t.is_alive()]
    assert not leaked, f"threads outlived the test: {leaked}"


class TestConnectRetry:
    def test_unreachable_raises_typed_error(self):
        port = _free_port()  # nothing listens here
        start = time.perf_counter()
        with pytest.raises(ServerUnavailableError) as excinfo:
            ServerClient(
                "127.0.0.1",
                port,
                connect_retries=2,
                retry_backoff_s=0.01,
                rng=random.Random(0),
            )
        elapsed = time.perf_counter() - start
        err = excinfo.value
        assert err.attempts == 3
        assert err.port == port
        assert err.host == "127.0.0.1"
        assert isinstance(err.__cause__, OSError)
        # Two backoffs happened: >= 0.01 + 0.02 (jitter only adds).
        assert elapsed >= 0.03

    def test_is_a_connection_error(self):
        # Callers catching the broad class keep working.
        with pytest.raises(ConnectionError):
            ServerClient("127.0.0.1", _free_port())

    def test_no_retries_by_default(self):
        with pytest.raises(ServerUnavailableError) as excinfo:
            ServerClient("127.0.0.1", _free_port())
        assert excinfo.value.attempts == 1

    def test_flaky_accept_recovers_within_budget(self):
        server = FlakyServer(drop_connections=2)
        try:
            # The first two connects are accepted then dropped; the
            # dropped connection surfaces on first use, and the request
            # retry budget covers the reconnect.
            with ServerClient(
                "127.0.0.1",
                server.port,
                request_retries=2,
                retry_backoff_s=0.01,
            ) as client:
                assert client.ping()
            assert server.connections == 3
        finally:
            server.close()


class TestRequestRetry:
    def test_request_resent_after_midflight_close(self):
        server = FlakyServer(drop_requests=1)
        try:
            with ServerClient(
                "127.0.0.1",
                server.port,
                request_retries=1,
                retry_backoff_s=0.01,
            ) as client:
                assert client.ping()
            assert server.connections == 2
        finally:
            server.close()

    def test_no_request_retries_by_default(self):
        server = FlakyServer(drop_requests=1)
        try:
            with ServerClient("127.0.0.1", server.port) as client:
                with pytest.raises((ConnectionError, OSError)):
                    client.ping()
        finally:
            server.close()

    def test_budget_exhaustion_propagates(self):
        server = FlakyServer(drop_requests=5)
        try:
            with ServerClient(
                "127.0.0.1",
                server.port,
                request_retries=2,
                retry_backoff_s=0.01,
            ) as client:
                with pytest.raises((ConnectionError, OSError)):
                    client.ping()
        finally:
            server.close()

    def test_per_request_deadline_reaches_the_wire(self):
        """deadline_ms on request() overrides the client default."""
        seen: list[object] = []

        class Recorder(FlakyServer):
            def _serve_connection(self, conn: socket.socket) -> None:
                with conn:
                    header, _ = protocol.read_frame(
                        lambda n: self._read_exactly(conn, n)
                    )
                    seen.append(header.get("deadline_ms"))
                    conn.sendall(
                        protocol.ok_frame(
                            {"pong": True}, b"", header.get("id")
                        )
                    )

        server = Recorder()
        try:
            with ServerClient(
                "127.0.0.1", server.port, deadline_ms=9000.0
            ) as client:
                client.request("ping", deadline_ms=1234.0)
            assert seen == [1234.0]
        finally:
            server.close()


class TestEphemeralPortFile:
    def test_serve_port_zero_writes_port_file(self, tmp_path):
        """`alp-repro serve --port 0 --port-file` hands the bound port
        to scripts without racing on fixed port numbers (the CI
        shard-smoke job's backend bring-up depends on this)."""
        values = np.arange(512, dtype=np.float64)
        data = tmp_path / "col.alpc"
        api.write(data, values)
        port_file = tmp_path / "port.txt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(data),
                "--port",
                "0",
                "--port-file",
                str(port_file),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not port_file.exists() and time.monotonic() < deadline:
                if proc.poll() is not None:
                    raise AssertionError(
                        f"serve exited early:\n{proc.stdout.read()}"
                    )
                time.sleep(0.05)
            assert port_file.exists(), "port file never appeared"
            port = int(port_file.read_text().strip())
            assert port > 0
            with ServerClient("127.0.0.1", port) as client:
                assert client.ping()
                values_back, _ = client.scan("col")
            assert np.array_equal(values_back, values)
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
