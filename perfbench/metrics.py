"""Metric names and units, latency summaries and per-layer accounting.

Per-layer times are *self* times summed over a traced run: a span's
duration minus the durations of its child spans (same thread).  Counts
come from wrapped calls or the program's public stats objects.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from perfbench.tracing import FIELDS

END_TO_END = (
    ("setup_s", "s"),
    ("bits_per_value", "bits"),
    ("write_mbps", "MB/s"),
    ("read_mbps", "MB/s"),
    ("scan_p50_ms", "ms"),
    ("scan_p90_ms", "ms"),
    ("sum_p50_ms", "ms"),
    ("sum_p90_ms", "ms"),
    ("range_p50_ms", "ms"),
    ("range_p90_ms", "ms"),
    ("served_mbps", "MB/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("success_share", "ratio"),
)

PER_LAYER = (
    ("core.compress_s", "s"),
    ("core.alprd_rowgroup_share", "ratio"),
    ("core.exceptions_per_1k", "per_1k"),
    ("core.decode_s", "s"),
    ("encodings.unpack_s", "s"),
    ("storage.crc_s", "s"),
    ("storage.crc_bytes", "bytes"),
    ("storage.open_s", "s"),
    ("storage.serialize_s", "s"),
    ("storage.fsync_s", "s"),
    ("storage.fsync_count", "count"),
    ("storage.bytes_written_per_user_byte", "ratio"),
    ("query.sum_s", "s"),
    ("query.sum_encoded_share", "ratio"),
    ("query.range_s", "s"),
    ("query.vectors_skipped_share", "ratio"),
    ("server.client_send_s", "s"),
    ("server.client_recv_s", "s"),
    ("server.client_parse_s", "s"),
    ("server.frame_encode_s", "s"),
    ("server.op_s", "s"),
    ("server.queue_wait_s", "s"),
    ("server.cache_hit_share", "ratio"),
    ("server.cache_evictions", "count"),
    ("server.pool_hit_share", "ratio"),
    ("server.unattributed_share", "ratio"),
    ("shard.rpc_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.partitions_per_request", "count"),
    ("shard.failovers", "count"),
    ("trace.overhead_share", "ratio"),
)

#: Per-layer metrics that must repeat exactly across two traced runs at
#: one seed: every count, and every share built only from counts of a
#: single-client, request-ordered run.
DETERMINISTIC = (
    "core.alprd_rowgroup_share",
    "core.exceptions_per_1k",
    "storage.crc_bytes",
    "storage.fsync_count",
    "storage.bytes_written_per_user_byte",
    "query.sum_encoded_share",
    "query.vectors_skipped_share",
    "server.cache_hit_share",
    "server.cache_evictions",
    "shard.partitions_per_request",
    "shard.failovers",
)

#: Request ids at or above this mark belong to the untimed warm-up pass.
WARMUP_ID_BASE = 1_000_000_000

# Server spans that cover a request's time on the serving side; with the
# client's own spans they are what a request's latency is attributed to.
_SERVER_COVER = (
    "server.read_frame",
    "server.queue_wait",
    "server.op",
    "server.frame_encode",
    "server.send",
)
_CLIENT_COVER = ("client.send", "client.recv", "client.parse")


def latency_summary(samples_ms: list[float]) -> dict[str, float]:
    values = np.asarray(samples_ms, dtype=np.float64)
    p50, p90, p99 = np.percentile(values, [50, 90, 99])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99), "n": int(values.size)}


class Trace:
    """One process's recorded spans, counters and extras."""

    def __init__(
        self,
        spans: np.ndarray,
        names: list[str],
        counters: dict[str, float],
        extras: dict[str, Any],
    ) -> None:
        self.spans = spans.reshape(-1, FIELDS)
        self.names = names
        self.counters = counters
        self.extras = extras

    def _codes(self, names: tuple[str, ...]) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def select(self, *names: str) -> np.ndarray:
        codes = self._codes(names)
        return self.spans[np.isin(self.spans[:, 1], codes)]

    def self_seconds(self) -> dict[str, float]:
        spans = self.spans
        if not len(spans):
            return {}
        sids, parents = spans[:, 0], spans[:, 4]
        duration = (spans[:, 3] - spans[:, 2]).astype(np.float64)
        order = np.argsort(sids)
        pos = np.searchsorted(sids[order], parents)
        pos = np.minimum(pos, len(sids) - 1)
        found = (parents != 0) & (sids[order][pos] == parents)
        children = np.zeros(len(spans))
        np.add.at(children, order[pos[found]], duration[found])
        own = np.bincount(spans[:, 1], weights=duration - children, minlength=len(self.names))
        return {name: float(own[code]) / 1e9 for code, name in enumerate(self.names)}

    def count(self, name: str) -> int:
        return int(len(self.select(name)))

    def arg_sum(self, name: str) -> int:
        return int(self.select(name)[:, 6].sum())


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def unattributed_share(client: Trace, frontend: Trace) -> float:
    """Share of timed client latency that no client or server span covers."""
    by_request: dict[int, list[tuple[int, int]]] = {}
    for trace, names in ((client, _CLIENT_COVER), (frontend, _SERVER_COVER)):
        for _sid, _code, start, end, _parent, request, _arg in trace.select(*names):
            by_request.setdefault(int(request), []).append((int(start), int(end)))
    latency = uncovered = 0
    for _sid, _code, start, end, _parent, request, _arg in client.select("client.request"):
        if request >= WARMUP_ID_BASE:
            continue
        clipped = [
            (max(s, start), min(e, end))
            for s, e in by_request.get(int(request), [])
            if e > start and s < end
        ]
        latency += end - start
        uncovered += end - start - _union_ns(clipped)
    return _share(uncovered, latency)


def per_layer(
    program: list[Trace],
    client: Trace | None,
    frontend: Trace | None,
    router: Trace | None,
    bytes_per_user_byte: float,
    overhead_share: float,
) -> dict[str, float]:
    """Every per-layer metric from the traced processes of one run.

    ``program`` holds every process that ran program layers (the
    benchmark itself for ingest, the servers otherwise); ``frontend`` is
    the process the client talks to; ``router`` the shard router.
    """
    own: dict[str, float] = {}
    counters: dict[str, float] = {}
    caches: list[dict[str, Any]] = []
    pools: list[dict[str, Any]] = []
    crc_bytes = fsyncs = 0
    for trace in program:
        for name, seconds in trace.self_seconds().items():
            own[name] = own.get(name, 0.0) + seconds
        for name, value in trace.counters.items():
            counters[name] = counters.get(name, 0) + value
        caches += trace.extras.get("caches", [])
        pools += trace.extras.get("pools", [])
        crc_bytes += trace.arg_sum("storage.crc")
        fsyncs += trace.count("storage.fsync")

    def c(name: str) -> float:
        return counters.get(name, 0)

    client_own: dict[str, float] = {}
    if client is not None:
        timed = client.spans[client.spans[:, 5] < WARMUP_ID_BASE]
        for name in _CLIENT_COVER:
            if name in client.names:
                rows = timed[timed[:, 1] == client.names.index(name)]
                client_own[name] = float((rows[:, 3] - rows[:, 2]).sum()) / 1e9
    hits = sum(s["hits"] for s in caches)
    misses = sum(s["misses"] for s in caches)
    pool_hits = sum(s["hits"] for s in pools)
    pool_misses = sum(s["misses"] for s in pools)
    routed_requests = 0.0
    if router is not None:
        routed_requests = router.counters.get("server.ops.scan", 0) + router.counters.get(
            "server.ops.sum", 0
        )
    return {
        "core.compress_s": own.get("core.compress", 0.0),
        "core.alprd_rowgroup_share": _share(c("core.alprd_rowgroups"), c("core.rowgroups")),
        "core.exceptions_per_1k": 1000.0 * _share(c("core.exceptions"), c("core.values")),
        "core.decode_s": own.get("core.decode", 0.0),
        "encodings.unpack_s": own.get("encodings.unpack", 0.0),
        "storage.crc_s": own.get("storage.crc", 0.0),
        "storage.crc_bytes": float(crc_bytes),
        "storage.open_s": own.get("storage.open", 0.0),
        "storage.serialize_s": own.get("storage.serialize", 0.0),
        "storage.fsync_s": own.get("storage.fsync", 0.0),
        "storage.fsync_count": float(fsyncs),
        "storage.bytes_written_per_user_byte": bytes_per_user_byte,
        "query.sum_s": own.get("query.sum", 0.0),
        "query.sum_encoded_share": _share(
            c("query.sum_batches_encoded"), c("query.sum_batches")
        ),
        "query.range_s": own.get("query.range", 0.0),
        "query.vectors_skipped_share": 1.0
        - _share(c("query.range_values_read"), c("query.range_values"))
        if c("query.range_values")
        else 0.0,
        "server.client_send_s": client_own.get("client.send", 0.0),
        "server.client_recv_s": client_own.get("client.recv", 0.0),
        "server.client_parse_s": client_own.get("client.parse", 0.0),
        "server.frame_encode_s": own.get("server.frame_encode", 0.0),
        "server.op_s": own.get("server.op", 0.0),
        "server.queue_wait_s": own.get("server.queue_wait", 0.0),
        "server.cache_hit_share": _share(hits, hits + misses),
        "server.cache_evictions": float(sum(s["evictions"] for s in caches)),
        "server.pool_hit_share": _share(pool_hits, pool_hits + pool_misses),
        "server.unattributed_share": unattributed_share(client, frontend)
        if client is not None and frontend is not None
        else 0.0,
        "shard.rpc_s": own.get("shard.rpc", 0.0),
        "shard.merge_s": own.get("shard.merge", 0.0),
        "shard.partitions_per_request": _share(c("shard.partitions"), routed_requests),
        "shard.failovers": c("shard.failovers"),
        "trace.overhead_share": overhead_share,
    }
