"""The traced run: an in-memory span recorder and the layer wrappers.

Spans are ``(id, name, start, end, parent, request id, arg)`` rows of
int64 in one ``array('q')``; nothing is written until :meth:`dump` at
exit.  Times come from ``time.monotonic_ns``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``, so spans of the benchmark client and of
the server processes share one timeline.  The parent is the innermost
open span of the same thread (async spans have none), which is what
self time = span time - child spans needs.

Wrappers are installed at the attribute callers look up: every
``repro.*`` module attribute bound to a layer function is replaced (so
``from x import f`` bindings are covered too), and methods are replaced
on their class.  No program source changes; an untraced run installs
nothing.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: Request id of the work the current thread or task is doing (-1: none).
REQUEST = contextvars.ContextVar("perfbench_request", default=-1)
FIELDS = 7


class SpanRecorder:
    def __init__(self) -> None:
        self._rows = array("q")
        self._names: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.extras: dict[str, Any] = {}

    def code(self, name: str) -> int:
        code = self._names.get(name)
        if code is None:
            with self._lock:
                code = self._names.setdefault(name, len(self._names))
        return code

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, arg_fn: Callable[..., int] | None = None):
        """Decorator factory: a synchronous span around ``fn``."""
        code = self.code(name)
        ids = self._ids
        rows = self._rows

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = self._stack()
                sid = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(sid)
                start = time.monotonic_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = time.monotonic_ns()
                    stack.pop()
                    arg = arg_fn(*args, **kwargs) if arg_fn else 0
                    rows.extend((sid, code, start, end, parent, REQUEST.get(), arg))

            return wrapper

        return decorate

    def interval(self, name: str, start: int, end: int, request: int = -1) -> None:
        """An explicit, parentless span (async code, computed intervals)."""
        self._rows.extend(
            (next(self._ids), self.code(name), start, end, 0, request, 0)
        )

    def snapshot(self) -> tuple[np.ndarray, list[str], dict[str, float], dict[str, Any]]:
        """(spans, names by code, counters, extras) as recorded so far."""
        spans = np.frombuffer(self._rows, dtype=np.int64).reshape(-1, FIELDS).copy()
        with self._lock:
            names = sorted(self._names, key=self._names.__getitem__)
            return spans, names, dict(self.counters), dict(self.extras)

    def dump(self, path: Path) -> None:
        spans, names, counters, extras = self.snapshot()
        np.save(path.with_suffix(".npy"), spans)
        meta = {"names": names, "counters": counters, "extras": extras}
        path.with_suffix(".json").write_text(json.dumps(meta))


def load(path: Path) -> tuple[np.ndarray, list[str], dict[str, float], dict[str, Any]]:
    spans = np.load(path.with_suffix(".npy"))
    meta = json.loads(path.with_suffix(".json").read_text())
    return spans, meta["names"], meta["counters"], meta["extras"]


def rebind(original: Callable[..., Any], replacement: Callable[..., Any]) -> int:
    """Point every ``repro.*`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings moved."""
    moved = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                moved += 1
    if not moved:
        raise RuntimeError(f"no caller binds {original!r}; the layer moved")
    return moved


def wrap_method(cls: type, attr: str, make: Callable[[Any], Any]) -> None:
    original = getattr(cls, attr)
    setattr(cls, attr, make(original))


def _nbytes(data: Any, *_: Any, **__: Any) -> int:
    return memoryview(data).nbytes


def _request_id(header: dict) -> int:
    request = header.get("id")
    return request if isinstance(request, int) else -1


# -- program layers: core, encodings, storage, query ---------------------


def install_program_layers(rec: SpanRecorder) -> None:
    """Spans and counts for core/encodings/storage/query, in any process."""
    import repro.core.alprd as alprd
    import repro.core.compressor as compressor
    import repro.encodings.bitpack as bitpack
    import repro.query.engine as engine
    import repro.query.sources as sources
    import repro.storage.columnfile as columnfile
    import repro.storage.integrity as integrity
    import repro.storage.serializer as serializer
    import repro.storage.tablefile as tablefile

    compress = rec.span("core.compress")(compressor.compress_rowgroup)

    def compress_rowgroup(*args: Any, **kwargs: Any) -> Any:
        result = compress(*args, **kwargs)
        rowgroup = result[0]
        rec.count("core.rowgroups")
        rec.count("core.values", rowgroup.count)
        if rowgroup.rd is not None:
            rec.count("core.alprd_rowgroups")
            vectors = rowgroup.rd.vectors
        else:
            vectors = rowgroup.alp.vectors
        rec.count("core.exceptions", sum(int(v.exc_positions.size) for v in vectors))
        return result

    rebind(compressor.compress_rowgroup, compress_rowgroup)
    rebind(compressor.decompress, rec.span("core.decode")(compressor.decompress))
    rebind(alprd.decode_vector_bits, rec.span("core.decode")(alprd.decode_vector_bits))
    rebind(bitpack.unpack_bits, rec.span("encodings.unpack")(bitpack.unpack_bits))
    rebind(integrity.crc32c, rec.span("storage.crc", _nbytes)(integrity.crc32c))
    rebind(
        serializer.serialize_rowgroup,
        rec.span("storage.serialize")(serializer.serialize_rowgroup),
    )
    rebind(engine.sum_query, rec.span("query.sum")(engine.sum_query))
    for cls in (columnfile.ColumnFileReader, tablefile.TableFileReader):
        wrap_method(cls, "__init__", rec.span("storage.open"))
    os.fsync = rec.span("storage.fsync")(os.fsync)

    def count_batches(original: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        @functools.wraps(original)
        def encoded_batches(*args: Any, **kwargs: Any) -> Iterator[Any]:
            for batch in original(*args, **kwargs):
                rec.count("query.sum_batches")
                if batch.alp is not None:
                    rec.count("query.sum_batches_encoded")
                yield batch

        return encoded_batches

    wrap_method(sources.FileColumnSource, "encoded_batches", count_batches)

    def count_skipped(original: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        @functools.wraps(original)
        def scan_range(self: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            rec.count("query.range_values", self.value_count)
            for index, values in original(self, *args, **kwargs):
                rec.count("query.range_values_read", values.size)
                yield index, values

        return scan_range

    for cls in (columnfile.ColumnFileReader, tablefile.TableColumnReader):
        wrap_method(cls, "scan_range", count_skipped)


# -- server and router (inside the launcher) ------------------------------


def install_server_layers(rec: SpanRecorder) -> list[Any]:
    """Spans for the asyncio service and the served-column registry.

    Returns the list that collects every decoded-vector cache and buffer
    pool the server creates, for :func:`record_server_stats` at exit.
    """
    from repro.server import protocol
    from repro.server.bufferpool import BufferPool
    from repro.server.cache import DecodedVectorCache
    from repro.server.registry import ServedColumn
    from repro.server.service import ReproServer

    admitted: dict[int, int] = {}

    def read_frame(original: Callable[..., Any]) -> Callable[..., Any]:
        async def _read_frame(self: Any, *args: Any) -> Any:
            start = time.monotonic_ns()
            header, payload = await original(self, *args)
            rec.interval("server.read_frame", start, time.monotonic_ns(), _request_id(header))
            return header, payload

        return _read_frame

    def handle_request(original: Callable[..., Any]) -> Callable[..., Any]:
        async def _handle_request(self: Any, header: dict, *args: Any) -> Any:
            token = REQUEST.set(_request_id(header))
            try:
                return await original(self, header, *args)
            finally:
                REQUEST.reset(token)

        return _handle_request

    def admit(original: Callable[..., Any]) -> Callable[..., Any]:
        async def _admit_and_run(self: Any, handler: Any, header: dict, *args: Any) -> Any:
            admitted[id(header)] = time.monotonic_ns()
            try:
                return await original(self, handler, header, *args)
            finally:
                admitted.pop(id(header), None)

        return _admit_and_run

    def send(original: Callable[..., Any]) -> Callable[..., Any]:
        async def _send(self: Any, *args: Any) -> Any:
            start = time.monotonic_ns()
            try:
                return await original(self, *args)
            finally:
                rec.interval("server.send", start, time.monotonic_ns(), REQUEST.get())

        return _send

    def run_op(original: Callable[..., Any]) -> Callable[..., Any]:
        traced = rec.span("server.op")(original)

        @functools.wraps(original)
        def _run_op(self: Any, handler: Any, header: dict, *args: Any) -> Any:
            request = _request_id(header)
            start = admitted.get(id(header))
            if start is not None:
                rec.interval("server.queue_wait", start, time.monotonic_ns(), request)
            rec.count(f"server.ops.{header.get('op')}")
            token = REQUEST.set(request)
            try:
                return traced(self, handler, header, *args)
            finally:
                REQUEST.reset(token)

        return _run_op

    wrap_method(ReproServer, "_read_frame", read_frame)
    wrap_method(ReproServer, "_handle_request", handle_request)
    wrap_method(ReproServer, "_admit_and_run", admit)
    wrap_method(ReproServer, "_send", send)
    wrap_method(ReproServer, "_run_op", run_op)
    encode = rec.span("server.frame_encode")
    protocol.ok_frame = encode(protocol.ok_frame)
    protocol.values_to_bytes = encode(protocol.values_to_bytes)

    def scan_payload(original: Callable[..., Any]) -> Callable[..., Any]:
        ranged = rec.span("query.range")(original)

        @functools.wraps(original)
        def _scan_payload(self: Any, bounds: Any = None, *args: Any, **kwargs: Any) -> Any:
            if bounds is None:
                return original(self, bounds, *args, **kwargs)
            return ranged(self, bounds, *args, **kwargs)

        return _scan_payload

    wrap_method(ServedColumn, "scan_payload", scan_payload)

    instances: list[Any] = []

    def keep(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            original(self, *args, **kwargs)
            instances.append(self)

        return __init__

    wrap_method(DecodedVectorCache, "__init__", keep)
    wrap_method(BufferPool, "__init__", keep)
    return instances


def install_router_layers(rec: SpanRecorder) -> None:
    """Spans and counts for scatter RPCs, merges and replica failover."""
    import repro.shard.merge as merge
    import repro.shard.router as router
    from repro.shard.pool import BackendPool

    attempts = threading.local()
    rpc = rec.span("shard.rpc")

    def call_partition(original: Callable[..., Any]) -> Callable[..., Any]:
        traced = rpc(original)

        @functools.wraps(original)
        def _call_partition(*args: Any, **kwargs: Any) -> Any:
            attempts.n = 0
            try:
                return traced(*args, **kwargs)
            finally:
                rec.count("shard.partitions")
                rec.count("shard.failovers", max(0, attempts.n - 1))

        return _call_partition

    def checkout(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def _checkout(*args: Any, **kwargs: Any) -> Any:
            attempts.n = getattr(attempts, "n", 0) + 1
            return original(*args, **kwargs)

        return _checkout

    wrap_method(router.ShardRouter, "_call_partition", call_partition)
    wrap_method(BackendPool, "checkout", checkout)
    for name in ("merge_scan", "merge_scan_columns", "merge_sum"):
        rebind(getattr(merge, name), rec.span("shard.merge")(getattr(merge, name)))


def record_server_stats(rec: SpanRecorder, sources: list[Any]) -> None:
    """The final public stats of every cache and buffer pool."""
    from repro.server.cache import DecodedVectorCache

    rec.extras["caches"] = [
        s.stats().as_dict() for s in sources if isinstance(s, DecodedVectorCache)
    ]
    rec.extras["pools"] = [
        s.stats().as_dict() for s in sources if not isinstance(s, DecodedVectorCache)
    ]


# -- the benchmark client ---------------------------------------------------


class ClientTracer:
    """Client-side spans of the benchmark's own ``ServerClient`` calls.

    ``send`` runs from the request start until the response read begins
    (frame encode + ``sendall``); the first ``_read_exactly`` of a
    response (its 12-byte prefix) is time spent waiting for the server,
    the later ones are ``recv``; ``parse`` is ``values_from_bytes``.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        from repro.server import client, protocol

        self.rec = rec
        self._local = threading.local()
        read_frame = protocol.read_frame
        read_exactly = client.ServerClient._read_exactly
        local = self._local

        def traced_read_frame(*args: Any, **kwargs: Any) -> Any:
            local.send_end = time.monotonic_ns()
            local.first = True
            return read_frame(*args, **kwargs)

        def traced_read_exactly(self_: Any, n: int) -> bytes:
            if local.first:
                local.first = False
                return read_exactly(self_, n)
            start = time.monotonic_ns()
            try:
                return read_exactly(self_, n)
            finally:
                rec.interval("client.recv", start, time.monotonic_ns(), REQUEST.get())

        protocol.read_frame = traced_read_frame
        client.ServerClient._read_exactly = traced_read_exactly

    def request_done(self, request: int, start: int, parse_start: int, end: int) -> None:
        rec = self.rec
        rec.interval("client.request", start, end, request)
        rec.interval("client.send", start, self._local.send_end, request)
        if parse_start < end:
            rec.interval("client.parse", parse_start, end, request)
