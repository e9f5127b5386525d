"""The four workloads and the closed-loop client that drives them.

Each workload is a fixed, seeded sequence of operations: its length is
``--seconds`` times a per-workload nominal rate (about one second of
work on a 2-vCPU machine per unit), so runs at one seed send the same
requests and differ only in timing, and a faster program finishes the
same work sooner.  Every answer is checked before the next request is
sent; a wrong answer, an error frame or a timeout counts as a failure.

The write and read-back passes (and ingest's set-ups) are spread over
the whole run, between chunks of the trace, because a shared host's speed
drifts over seconds: a figure taken in one short window follows that
window, one taken across the run follows the run.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench import corpus, metrics, tracing
from perfbench.procs import BenchError, Processes, peak_rss_mib
from repro import api
from repro.core.constants import ROWGROUP_SIZE
from repro.query import engine
from repro.query.sources import FileColumnSource
from repro.server import protocol
from repro.server.client import ServerClient, ServerError

MB = 1e6
SETUP_REPEATS = 6


@dataclass(frozen=True)
class Serving:
    """How a serving workload is deployed and loaded."""

    cache_mb: int
    clients: int
    weights: tuple[float, ...]
    backends: int
    ops_per_second: float


SERVING = {
    # Decoded working set 6 x 2.46 MB = 14.7 MB against a 2 MiB cache,
    # which holds two of a column's three row-groups: LRU decodes nearly
    # every scan, while a policy that kept the hot column would not.
    "serve-cold": Serving(
        cache_mb=2,
        clients=1,
        weights=corpus.zipf_weights(len(corpus.SERVED), corpus.ZIPF_S),
        backends=0,
        ops_per_second=18,
    ),
    # A 32 MiB cache holds the working set twice over; warmed first.
    "serve-warm": Serving(
        cache_mb=32, clients=2, weights=corpus.UNIFORM5, backends=0, ops_per_second=36
    ),
    # A shard router over two warm backends (each serves every column).
    "routed": Serving(
        cache_mb=32, clients=1, weights=corpus.UNIFORM5, backends=2, ops_per_second=20
    ),
}
#: ingest runs its trace INGEST_ROUNDS times; each round is cut into
#: INGEST_CHUNKS chunks, and PASSES_PER_CHUNK write and read-back passes
#: run before each chunk.
INGEST_OPS_PER_SECOND = 3.5
INGEST_ROUNDS = 3
INGEST_CHUNKS = 3
#: The serving workloads send their requests in SERVED_SEGMENTS
#: segments, each after PASSES_PER_CHUNK write and read-back passes over
#: the served corpus; one more pass, before any server starts, writes
#: the files the servers serve.
SERVED_SEGMENTS = 8
PASSES_PER_CHUNK = 2
WORKLOADS = ("ingest", *SERVING)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    workdir: Path


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    wrong: int
    report: list[str] = field(default_factory=list)
    bytes_per_user_byte: float = 0.0
    trace_files: dict[str, Path] = field(default_factory=dict)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit-exact float64 equality (NaN and -0.0 included)."""
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    )


def same_float(got: float, want: float) -> bool:
    return np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def now() -> int:
    return time.monotonic_ns()


def ops_per_kind(seconds: int, rate: float) -> int:
    # >= 100 samples per op keeps >= 10 samples beyond p90.
    return max(100, round(seconds * rate))


# -- write and read-back passes (ingest, and the served corpus) -------------


@dataclass
class WriteSet:
    floats: list[np.ndarray]
    table: corpus.TableInput | None = None

    def user_bytes(self) -> int:
        total = sum(values.nbytes for values in self.floats)
        return total + (self.table.user_bytes() if self.table else 0)

    def values(self) -> int:
        total = sum(values.size for values in self.floats)
        if self.table:
            total += self.table.rows * len(self.table.schema)
        return total


def _table_matches(got: api.Table, table: corpus.TableInput) -> bool:
    for column in table.schema:
        want = table.columns[column.name]
        have = got.column(column.name)
        if column.nullable:
            valid = table.validity[column.name]
            if not np.array_equal(got.column_validity(column.name), valid):
                return False
            want, have = want[valid], have[valid]
        if column.type == "float64":
            if not same_bits(np.ascontiguousarray(have), np.ascontiguousarray(want)):
                return False
        elif not np.array_equal(have, want):
            return False
    return True


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = now()
    result = fn()
    return (now() - start) / 1e9, result


class Passes:
    """Write and read-back passes over one :class:`WriteSet`.

    A pass writes ``data`` through ``api.write``/``api.write_table`` and
    reads it back on fresh handles (``api.read``/``api.read_table``),
    checking every value.  Every write is atomic and fsynced by the
    program.  Each file's time is its median over the passes, and the
    workloads spread their passes over the whole run, so a spell of
    machine noise moves a minority of them.
    """

    def __init__(self, ctx: Context, data: WriteSet) -> None:
        self.ctx = ctx
        self.data = data
        self.write_s: list[list[float]] = []
        self.read_s: list[list[float]] = []
        self.stored = self.checked = self.wrong = 0
        self._transient: Path | None = None

    def run(self, keep: bool = False) -> list[Path]:
        """One pass into a fresh directory; returns the float columns'
        paths.  The previous pass's directory is removed unless that
        pass was run with ``keep``."""
        data, table = self.data, self.data.table
        directory = self.ctx.workdir / f"pass{len(self.write_s)}"
        directory.mkdir()
        paths = [directory / f"f{i}.alpc" for i in range(len(data.floats))]
        table_path = directory / "table.alpc"
        writes = [
            _timed(lambda p=path, v=values: api.write(p, v))[0]
            for path, values in zip(paths, data.floats, strict=True)
        ]
        reads = []
        for path, values in zip(paths, data.floats, strict=True):
            seconds, back = _timed(lambda p=path: api.read(p))
            reads.append(seconds)
            self.checked += 1
            self.wrong += not same_bits(back, values)
        if table is not None:
            writes.append(
                _timed(
                    lambda: api.write_table(
                        table_path, table.columns, validity=table.validity, schema=table.schema
                    )
                )[0]
            )
            seconds, back = _timed(lambda: api.read_table(table_path))
            reads.append(seconds)
            self.checked += 1
            self.wrong += not _table_matches(back, table)
            paths.append(table_path)
        self.write_s.append(writes)
        self.read_s.append(reads)
        self.stored = sum(path.stat().st_size for path in paths)
        if self._transient is not None:
            shutil.rmtree(self._transient)
        self._transient = None if keep else directory
        return paths[: len(data.floats)]

    def _mbps(self, seconds: list[list[float]]) -> float:
        return self.data.user_bytes() / MB / float(np.median(seconds, axis=0).sum())

    @property
    def write_mbps(self) -> float:
        return self._mbps(self.write_s)

    @property
    def read_mbps(self) -> float:
        return self._mbps(self.read_s)

    @property
    def bits_per_value(self) -> float:
        return self.stored * 8 / self.data.values()

    @property
    def bytes_per_user_byte(self) -> float:
        return self.stored / self.data.user_bytes()


def local_sum(path: Path) -> float:
    reader = api.open(path)
    try:
        return engine.sum_query(FileColumnSource(reader=reader))
    finally:
        reader.close()


# -- results of an op loop --------------------------------------------------


@dataclass
class Loop:
    samples: dict[str, list[float]] = field(
        default_factory=lambda: {op: [] for op in corpus.OPS}
    )
    payload_bytes: int = 0
    attempted: int = 0
    errors: int = 0
    wrong: int = 0

    def merge(self, other: "Loop") -> None:
        for op in corpus.OPS:
            self.samples[op] += other.samples[op]
        self.payload_bytes += other.payload_bytes
        self.attempted += other.attempted
        self.errors += other.errors
        self.wrong += other.wrong


def loop_metrics(loop: Loop, wall_s: float, report: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for op in corpus.OPS:
        summary = metrics.latency_summary(loop.samples[op])
        out[f"{op}_p50_ms"] = summary["p50"]
        out[f"{op}_p90_ms"] = summary["p90"]
        report.append(
            f"{op:5s} n={summary['n']} p50={summary['p50']:.3f} ms "
            f"p90={summary['p90']:.3f} ms p99={summary['p99']:.3f} ms"
        )
    completed = loop.attempted - loop.errors
    out["served_mbps"] = loop.payload_bytes / MB / wall_s
    out["requests_per_s"] = completed / wall_s
    return out


# -- ingest -----------------------------------------------------------------


def ingest_warmup_corpus(ctx: Context) -> Path:
    warm = ctx.workdir / "warmup"
    warm.mkdir()
    columns = corpus.float_columns(corpus.INGEST_FLOATS, ROWGROUP_SIZE // 4, ctx.seed)
    for index, values in enumerate(columns):
        np.save(warm / f"w{index}.npy", values)
    return warm


def ingest_setup_s(procs: Processes, warm: Path, tag: str) -> float:
    """Time from a fresh interpreter to a finished warm-up write and
    read-back through ``repro.api`` (the library's set-up cost)."""
    start = now()
    proc = procs.launch(tag, ["--warmup", str(warm)])
    code = proc.wait(timeout=120)
    procs.stop(proc)
    if code != 0:
        raise BenchError(f"ingest warm-up failed:\n{procs.log_tail(proc)}")
    return (now() - start) / 1e9


def spread(total: int, rounds: int) -> list[int]:
    """``total`` items dealt over ``rounds`` rounds, earlier rounds first."""
    return [total // rounds + (r < total % rounds) for r in range(rounds)]


def run_ingest(ctx: Context, rec: tracing.SpanRecorder | None, setups: int) -> Outcome:
    floats = corpus.float_columns(corpus.INGEST_FLOATS, corpus.INGEST_ROWS, ctx.seed)
    data = WriteSet(floats=floats, table=corpus.ingest_table(corpus.INGEST_ROWS, ctx.seed))
    per_op = ops_per_kind(ctx.seconds, INGEST_OPS_PER_SECOND)
    requests = corpus.make_trace(ctx.seed, per_op, floats, corpus.INGEST_OP_WEIGHTS)
    expected = [
        corpus.in_range(floats[r.column], r.low, r.high) if r.op == "range" else None
        for r in requests
    ]
    report: list[str] = []
    warm = ingest_warmup_corpus(ctx)
    setup_times: list[float] = []
    passes = Passes(ctx, data)

    def scan(path: Path, _low: float, _high: float) -> np.ndarray:
        reader = api.open(path)
        try:
            return reader.read_all()
        finally:
            reader.close()

    def range_scan(path: Path, low: float, high: float) -> np.ndarray:
        reader = api.open(path)
        try:
            chunks = [v[(v >= low) & (v <= high)] for _, v in reader.scan_range(low, high)]
        finally:
            reader.close()
        return np.concatenate(chunks) if chunks else np.empty(0)

    if rec is not None:
        range_scan = rec.span("query.range")(range_scan)
    loop = Loop()
    wall_ns = 0
    latency_ms = np.empty((INGEST_ROUNDS, len(requests)))
    sums: list[float] = []

    def op_once(index: int, paths: list[Path], latencies: np.ndarray) -> None:
        request, want = requests[index], expected[index]
        path = paths[request.column]
        t0 = now()
        if request.op == "sum":
            got_sum = local_sum(path)
        else:
            op = scan if request.op == "scan" else range_scan
            values = op(path, request.low, request.high)
        latencies[index] = (now() - t0) / 1e6
        loop.attempted += 1
        if request.op == "sum":
            loop.wrong += not same_float(got_sum, sums[request.column])
        else:
            loop.payload_bytes += values.nbytes
            target = floats[request.column] if want is None else want
            loop.wrong += not same_bits(values, target)

    for round_, round_setups in enumerate(spread(setups, INGEST_ROUNDS)):
        with Processes(ctx.workdir) as procs:
            for _ in range(round_setups):
                tag = f"warmup{len(setup_times)}"
                setup_times.append(ingest_setup_s(procs, warm, tag))
        if rec is not None and round_ == 0:
            tracing.install_program_layers(rec)
        for chunk in range(INGEST_CHUNKS):
            # Write and read-back passes before each chunk of the trace,
            # so the passes are spread evenly over the run.
            for _ in range(PASSES_PER_CHUNK):
                paths = passes.run()
            if not sums:
                sums = [local_sum(path) for path in paths]
            start = now()
            for index in range(chunk, len(requests), INGEST_CHUNKS):
                op_once(index, paths, latency_ms[round_])
            wall_ns += now() - start
    # A request's latency is its median over the rounds, which lie
    # seconds apart: a burst of machine noise slows at most one of them.
    for request, latency in zip(requests, np.median(latency_ms, axis=0), strict=True):
        loop.samples[request.op].append(float(latency))
    wall_s = wall_ns / 1e9
    out = loop_metrics(loop, wall_s, report)
    attempted = loop.attempted + passes.checked
    wrong = loop.wrong + passes.wrong
    report.append(f"setups {', '.join(f'{s:.3f}' for s in setup_times)} s")
    out.update(
        setup_s=statistics.median(setup_times),
        bits_per_value=passes.bits_per_value,
        write_mbps=passes.write_mbps,
        read_mbps=passes.read_mbps,
        peak_rss_mb=peak_rss_mib(),
        success_share=1.0 - wrong / attempted,
    )
    return Outcome(
        metrics=out,
        attempted=attempted,
        failed=wrong,
        wrong=wrong,
        report=report,
        bytes_per_user_byte=passes.bytes_per_user_byte,
    )


# -- serving workloads ------------------------------------------------------


@dataclass
class Deployment:
    port: int
    servers: list[subprocess.Popen[bytes]]
    trace_files: dict[str, Path]


def deploy(
    ctx: Context,
    procs: Processes,
    cfg: Serving,
    paths: list[Path],
    tag: str,
    traced: bool,
) -> Deployment:
    """Start ``alp-repro serve`` (or two backends and ``shard-serve``)."""
    data = [f"{corpus.served_name(i)}={path}" for i, path in enumerate(paths)]
    trace_files: dict[str, Path] = {}

    def launch(name: str, cli: list[str]) -> tuple[subprocess.Popen[bytes], Path]:
        port_file = ctx.workdir / f"{tag}-{name}.port"
        args = [*cli, "--port", "0", "--port-file", str(port_file)]
        if traced:
            trace_files[name] = ctx.workdir / f"{tag}-{name}.trace"
            args = ["--trace", str(trace_files[name]), "--", *args]
        proc = procs.launch(f"{tag}-{name}", args)
        return proc, port_file

    serve = ["serve", *data, "--cache-mb", str(cfg.cache_mb)]
    if cfg.backends == 0:
        proc, port_file = launch("server", serve)
        port = procs.wait_port(proc, port_file)
        return Deployment(port, [proc], trace_files)
    started = [launch(f"backend{k}", serve) for k in range(cfg.backends)]
    backends = [f"127.0.0.1:{procs.wait_port(p, f)}" for p, f in started]
    router, port_file = launch("router", ["shard-serve", *backends])
    port = procs.wait_port(router, port_file)
    return Deployment(port, [router] + [p for p, _ in started], trace_files)


class Checker:
    """Expected answers for every request of a serving trace."""

    def __init__(self, columns: list[np.ndarray], sums: list[float]) -> None:
        self.columns = columns
        self.sums = sums

    def expected(self, request: corpus.Request) -> np.ndarray | float:
        if request.op == "sum":
            return self.sums[request.column]
        if request.op == "range":
            return corpus.in_range(self.columns[request.column], request.low, request.high)
        return self.columns[request.column]


def run_requests(
    client: ServerClient,
    requests: list[tuple[int, corpus.Request, Any]],
    loop: Loop,
    tracer: tracing.ClientTracer | None,
    on_broken: Callable[[], None],
) -> None:
    """The closed loop: send, wait, parse, check, then the next request."""
    for request_id, request, want in requests:
        fields: dict[str, object] = {
            "dataset": corpus.served_name(request.column),
            "id": request_id,
        }
        if request.op == "range":
            fields["low"], fields["high"] = request.low, request.high
        op = "sum" if request.op == "sum" else "scan"
        token = tracing.REQUEST.set(request_id)
        loop.attempted += 1
        try:
            t0 = now()
            try:
                header, payload = client.request(op, fields)
            except ServerError:
                loop.errors += 1
                continue
            except (ConnectionError, TimeoutError, OSError) as exc:
                on_broken()
                raise BenchError(f"request {request_id} failed: {exc}") from exc
            t_parse = now()
            if op == "scan":
                values = protocol.values_from_bytes(payload)
            t1 = now()
        finally:
            tracing.REQUEST.reset(token)
        if tracer is not None:
            tracer.request_done(request_id, t0, t_parse, t1)
        if request_id < metrics.WARMUP_ID_BASE:
            loop.samples[request.op].append((t1 - t0) / 1e6)
        if header.get("partial") or header.get("quarantined_rowgroups"):
            loop.wrong += 1
        elif op == "sum":
            loop.wrong += not same_float(float(header["sum"]), want)
        else:
            loop.payload_bytes += len(payload)
            loop.wrong += not same_bits(values, want)


def connect(port: int, procs: Processes) -> ServerClient:
    try:
        return ServerClient("127.0.0.1", port)
    except OSError as exc:
        procs.check_alive()
        raise BenchError(f"cannot connect to port {port}: {exc}") from exc


def warm_up(port: int, checker: Checker, tracer: Any, procs: Processes) -> Loop:
    """One untimed pass: a scan, a sum and a central 1% range per column."""
    plan = []
    for column, values in enumerate(checker.columns):
        low, high = (float(q) for q in np.quantile(values, [0.495, 0.505]))
        for request in (
            corpus.Request("scan", column),
            corpus.Request("sum", column),
            corpus.Request("range", column, low, high),
        ):
            plan.append(
                (metrics.WARMUP_ID_BASE + len(plan), request, checker.expected(request))
            )
    loop = Loop()
    with connect(port, procs) as client:
        run_requests(client, plan, loop, tracer, procs.check_alive)
    return loop


def run_serving(ctx: Context, rec: tracing.SpanRecorder | None, setups: int) -> Outcome:
    cfg = SERVING[ctx.workload]
    columns = corpus.float_columns(corpus.SERVED, corpus.SERVED_ROWS, ctx.seed)
    requests = corpus.make_trace(
        ctx.seed, ops_per_kind(ctx.seconds, cfg.ops_per_second), columns, cfg.weights
    )
    passes = Passes(ctx, WriteSet(floats=columns))
    served = passes.run(keep=True)
    checker = Checker(columns, [local_sum(path) for path in served])
    plans: list[list[tuple[int, corpus.Request, Any]]] = [[] for _ in range(cfg.clients)]
    for index, request in enumerate(requests):
        plans[index % cfg.clients].append((index, request, checker.expected(request)))
    tracer = tracing.ClientTracer(rec) if rec is not None else None
    report: list[str] = []
    setup_times: list[float] = []
    warm = Loop()
    loops = [Loop() for _ in plans]
    wall_ns = 0
    with Processes(ctx.workdir) as procs:
        for attempt in range(setups):
            start = now()
            deployment = deploy(ctx, procs, cfg, served, f"setup{attempt}", rec is not None)
            warm.merge(warm_up(deployment.port, checker, tracer, procs))
            setup_times.append((now() - start) / 1e9)
            if attempt + 1 < setups:
                for proc in deployment.servers:
                    procs.stop(proc)
        clients = [connect(deployment.port, procs) for _ in plans]
        errors: list[BaseException] = []

        def drive(k: int, part: list[tuple[int, corpus.Request, Any]]) -> None:
            try:
                run_requests(clients[k], part, loops[k], tracer, procs.check_alive)
            except BaseException as exc:  # re-raised in the main thread
                errors.append(exc)

        try:
            # The passes between segments run while no request is in
            # flight, and spread the passes over the run as on ingest.
            for segment in range(SERVED_SEGMENTS):
                for _ in range(PASSES_PER_CHUNK):
                    passes.run()
                threads = [
                    threading.Thread(target=drive, args=(k, plan[segment::SERVED_SEGMENTS]))
                    for k, plan in enumerate(plans)
                ]
                start = now()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall_ns += now() - start
                if errors:
                    raise errors[0]
        finally:
            for client in clients:
                client.close()
        procs.check_alive()
        rss = sum(peak_rss_mib(proc.pid) for proc in deployment.servers)
        for proc in deployment.servers:
            code = procs.stop(proc)
            if code != 0:
                raise BenchError(f"server pid {proc.pid} exited with code {code}")
    loop = Loop()
    for part in loops:
        loop.merge(part)
    out = loop_metrics(loop, wall_ns / 1e9, report)
    attempted = loop.attempted + warm.attempted + passes.checked
    wrong = loop.wrong + warm.wrong + passes.wrong
    failed = wrong + loop.errors + warm.errors
    out.update(
        setup_s=statistics.median(setup_times),
        bits_per_value=passes.bits_per_value,
        write_mbps=passes.write_mbps,
        read_mbps=passes.read_mbps,
        peak_rss_mb=rss,
        success_share=1.0 - failed / attempted,
    )
    report.append(f"setups {', '.join(f'{s:.3f}' for s in setup_times)} s")
    return Outcome(
        metrics=out,
        attempted=attempted,
        failed=failed,
        wrong=wrong,
        report=report,
        bytes_per_user_byte=passes.bytes_per_user_byte,
        trace_files=deployment.trace_files,
    )


def run(
    ctx: Context,
    rec: tracing.SpanRecorder | None = None,
    setups: int = SETUP_REPEATS,
) -> Outcome:
    """One run; ``setups`` set-ups of which ``setup_s`` is the median."""
    if ctx.workload == "ingest":
        return run_ingest(ctx, rec, setups)
    return run_serving(ctx, rec, setups)


def run_traced(ctx: Context) -> Outcome:
    """An untraced pass, then a traced pass; per-layer metrics of the latter."""
    plain_dir, traced_dir = ctx.workdir / "plain", ctx.workdir / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    ctx_plain = Context(ctx.workload, ctx.seed, ctx.seconds, plain_dir)
    ctx_traced = Context(ctx.workload, ctx.seed, ctx.seconds, traced_dir)
    plain = run(ctx_plain, setups=1)
    rec = tracing.SpanRecorder()
    traced = run(ctx_traced, rec, setups=1)
    key = "write_mbps" if ctx.workload == "ingest" else "requests_per_s"
    overhead = 1.0 - traced.metrics[key] / plain.metrics[key]
    me = metrics.Trace(*rec.snapshot())
    processes = {
        name: metrics.Trace(*tracing.load(path))
        for name, path in traced.trace_files.items()
    }
    if ctx.workload == "ingest":
        program, client, frontend, router = [me], None, None, None
    else:
        program = list(processes.values())
        client = me
        frontend = processes.get("router", processes.get("server"))
        router = processes.get("router")
    layer = metrics.per_layer(
        program,
        client,
        frontend,
        router,
        traced.bytes_per_user_byte,
        overhead,
    )
    report = traced.report + [
        f"tracing overhead on {key}: untraced {plain.metrics[key]:.3f}, "
        f"traced {traced.metrics[key]:.3f}"
    ]
    return Outcome(
        metrics=layer,
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        wrong=plain.wrong + traced.wrong,
        report=report,
    )

