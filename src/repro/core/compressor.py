"""Row-group orchestration: the public compress/decompress entry points.

``compress`` splits a column into row-groups of 100 vectors x 1024
values, runs the first sampling level once per row-group, decides between
ALP and ALP_rd, then encodes every vector (running the second sampling
level only when more than one candidate survived level one).

The returned objects carry enough introspection (scheme used, k' per
row-group, combinations tried per vector) to reproduce the paper's
sampling-overhead analysis (§4.2) without re-instrumenting the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.alp import (
    AlpVector,
    alp_decode_rowgroup,
    alp_encode_rowgroup,
    alp_encode_vector,
)
from repro.core.alprd import (
    AlpRdRowGroup,
    alprd_decode,
    alprd_encode,
)
from repro.core.constants import (
    ROWGROUP_VECTORS,
    VECTOR_SIZE,
)
from repro.core.sampler import (
    ExponentFactor,
    FirstLevelResult,
    first_level_sample,
    second_level_sample_rowgroup,
)


@dataclass(frozen=True)
class AlpRowGroup:
    """A decimal-encoded (main ALP) row-group."""

    vectors: tuple[AlpVector, ...]
    candidates: tuple[ExponentFactor, ...]
    count: int

    def size_bits(self) -> int:
        """Sum of per-vector footprints plus the candidate-list header."""
        return sum(v.size_bits() for v in self.vectors) + 8

    def exception_count(self) -> int:
        """Total exceptions across the row-group."""
        return sum(v.exception_count for v in self.vectors)


@dataclass(frozen=True)
class CompressedRowGroup:
    """One compressed row-group: exactly one of ``alp`` / ``rd`` is set."""

    alp: AlpRowGroup | None
    rd: AlpRdRowGroup | None
    first_level: FirstLevelResult
    count: int

    @property
    def scheme(self) -> str:
        """'alp' or 'alprd'."""
        return "alp" if self.alp is not None else "alprd"

    def size_bits(self) -> int:
        """Compressed footprint of this row-group."""
        payload = self.alp if self.alp is not None else self.rd
        if payload is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        return payload.size_bits() + 8  # scheme tag


@dataclass(frozen=True)
class CompressionStats:
    """Aggregate sampling statistics for the §4.2 overhead analysis."""

    vectors_encoded: int = 0
    second_level_skipped: int = 0
    combinations_tried: tuple[int, ...] = field(default_factory=tuple)
    rd_rowgroups: int = 0
    alp_rowgroups: int = 0

    def tried_histogram(self) -> dict[int, int]:
        """Histogram of combinations tried per (non-skipped) vector."""
        hist: dict[int, int] = {}
        for tried in self.combinations_tried:
            hist[tried] = hist.get(tried, 0) + 1
        return hist


@dataclass(frozen=True)
class CompressedRowGroups:
    """A fully compressed column (ordered row-groups)."""

    rowgroups: tuple[CompressedRowGroup, ...]
    count: int
    vector_size: int
    stats: CompressionStats

    def size_bits(self) -> int:
        """Total compressed footprint."""
        return sum(rg.size_bits() for rg in self.rowgroups)

    def bits_per_value(self) -> float:
        """Compressed bits per value — the paper's Table 4 metric."""
        if self.count == 0:
            return 0.0
        return self.size_bits() / self.count

    def compression_ratio(self) -> float:
        """Uncompressed (64-bit) over compressed size."""
        bpv = self.bits_per_value()
        return 64.0 / bpv if bpv else float("inf")

    @property
    def uses_rd(self) -> bool:
        """True if any row-group fell back to ALP_rd."""
        return any(rg.scheme == "alprd" for rg in self.rowgroups)


#: Backwards-friendly alias used by the storage layer.
CompressedColumn = CompressedRowGroups


def compress_rowgroup(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    force_scheme: str | None = None,
) -> tuple[CompressedRowGroup, list[int], int]:
    """Compress one row-group; returns (result, tried-counts, skipped).

    ``force_scheme`` ("alp" or "alprd") bypasses the adaptive decision,
    which the ablation benchmarks use to measure the fallback's cost.
    """
    if not 1 <= vector_size <= 65_535:
        # Exception positions and serialized vector counts are 16-bit.
        raise ValueError(
            f"vector_size must be in [1, 65535], got {vector_size}"
        )
    with obs.span("compressor.rowgroup"):
        return _compress_rowgroup(rowgroup, vector_size, force_scheme)


def _compress_rowgroup(
    rowgroup: np.ndarray,
    vector_size: int,
    force_scheme: str | None,
) -> tuple[CompressedRowGroup, list[int], int]:
    rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
    first = first_level_sample(rowgroup, vector_size=vector_size)

    use_rd = first.use_rd if force_scheme is None else force_scheme == "alprd"
    if obs.ENABLED:
        obs.metrics.counter_add("compressor.rowgroups", 1)
        obs.metrics.counter_add(
            "compressor.scheme.alprd" if use_rd else "compressor.scheme.alp", 1
        )
    if use_rd:
        rd = alprd_encode(rowgroup, vector_size=vector_size)
        return (
            CompressedRowGroup(
                alp=None, rd=rd, first_level=first, count=rowgroup.size
            ),
            [],
            0,
        )

    tried_counts: list[int] = []
    if len(first.candidates) == 1:
        # The common case: one surviving candidate means every vector
        # skips level two, so the whole row-group encodes as a single
        # batched ALP_enc/ALP_dec pass instead of ~100 per-vector ones.
        combo = first.candidates[0]
        vectors = alp_encode_rowgroup(
            rowgroup, combo.exponent, combo.factor, vector_size
        )
        skipped = len(vectors)
        obs.counter_add("sampler.second_level_skipped", skipped)
    else:
        # Multiple candidates: level-two sampling for every vector runs
        # as one batched (k' x vectors x s) evaluation, then each vector
        # encodes under its own winner.
        seconds = second_level_sample_rowgroup(
            rowgroup, first.candidates, vector_size=vector_size
        )
        vectors = []
        skipped = 0
        for vi, start in enumerate(range(0, rowgroup.size, vector_size)):
            chunk = rowgroup[start : start + vector_size]
            second = seconds[vi]
            if second.skipped:
                skipped += 1
            else:
                tried_counts.append(second.combinations_tried)
            combo = second.combination
            vectors.append(
                alp_encode_vector(chunk, combo.exponent, combo.factor)
            )

    if obs.ENABLED:
        obs.metrics.counter_add(
            "compressor.exceptions_patched",
            sum(v.exception_count for v in vectors),
        )
    alp = AlpRowGroup(
        vectors=tuple(vectors),
        candidates=first.candidates,
        count=rowgroup.size,
    )
    return (
        CompressedRowGroup(
            alp=alp, rd=None, first_level=first, count=rowgroup.size
        ),
        tried_counts,
        skipped,
    )


def compress(
    values: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    rowgroup_vectors: int = ROWGROUP_VECTORS,
    force_scheme: str | None = None,
) -> CompressedRowGroups:
    """Compress a float64 column with adaptive ALP / ALP_rd.

    This is the library's primary entry point.  The input round-trips
    bit-exactly through :func:`decompress`, including NaN payloads,
    infinities and signed zeros.
    """
    with obs.span("compressor.compress"):
        values = np.ascontiguousarray(values, dtype=np.float64)
        rowgroup_size = vector_size * rowgroup_vectors
        rowgroups: list[CompressedRowGroup] = []
        all_tried: list[int] = []
        skipped_total = 0
        for start in range(0, values.size, rowgroup_size):
            chunk = values[start : start + rowgroup_size]
            rg, tried, skipped = compress_rowgroup(
                chunk, vector_size=vector_size, force_scheme=force_scheme
            )
            rowgroups.append(rg)
            all_tried.extend(tried)
            skipped_total += skipped

        vectors_encoded = sum(
            len(rg.alp.vectors) if rg.alp else len(rg.rd.vectors)
            for rg in rowgroups
        )
        stats = CompressionStats(
            vectors_encoded=vectors_encoded,
            second_level_skipped=skipped_total,
            combinations_tried=tuple(all_tried),
            rd_rowgroups=sum(1 for rg in rowgroups if rg.scheme == "alprd"),
            alp_rowgroups=sum(1 for rg in rowgroups if rg.scheme == "alp"),
        )
        column = CompressedRowGroups(
            rowgroups=tuple(rowgroups),
            count=values.size,
            vector_size=vector_size,
            stats=stats,
        )
        _record_column_metrics(column)
        return column


def _record_column_metrics(column: CompressedRowGroups) -> None:
    """Counter/gauge summary of one finished compression (if enabled)."""
    if not obs.ENABLED:
        return
    stats = column.stats
    obs.metrics.counter_add("compressor.vectors_encoded", stats.vectors_encoded)
    obs.metrics.counter_add(
        "compressor.second_level_skipped", stats.second_level_skipped
    )
    obs.metrics.counter_add(
        "compressor.combinations_tried", sum(stats.combinations_tried)
    )
    obs.metrics.counter_add("compressor.values", column.count)
    obs.metrics.counter_add("compressor.compressed_bits", column.size_bits())
    obs.metrics.gauge_set(
        "compressor.bits_per_value", column.bits_per_value()
    )


def compress_parallel(
    values: np.ndarray,
    threads: int = 2,
    vector_size: int = VECTOR_SIZE,
    rowgroup_vectors: int = ROWGROUP_VECTORS,
    force_scheme: str | None = None,
) -> CompressedRowGroups:
    """Compress row-groups concurrently with a thread pool.

    Row-groups are independent by construction (sampling is row-group
    scoped), so the result is bit-identical to :func:`compress` — order,
    parameters and payloads included.  numpy kernels release the GIL for
    part of the work, so two threads help even in CPython.
    """
    from concurrent.futures import ThreadPoolExecutor

    values = np.ascontiguousarray(values, dtype=np.float64)
    rowgroup_size = vector_size * rowgroup_vectors
    chunks = [
        values[start : start + rowgroup_size]
        for start in range(0, values.size, rowgroup_size)
    ]
    if threads <= 1 or len(chunks) <= 1:
        return compress(
            values,
            vector_size=vector_size,
            rowgroup_vectors=rowgroup_vectors,
            force_scheme=force_scheme,
        )

    def work(chunk: np.ndarray) -> CompressedRowGroup:
        return compress_rowgroup(
            chunk, vector_size=vector_size, force_scheme=force_scheme
        )

    with obs.span("compressor.compress_parallel"):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, chunks))

    rowgroups = [rg for rg, _, _ in results]
    all_tried = [t for _, tried, _ in results for t in tried]
    skipped_total = sum(skipped for _, _, skipped in results)
    stats = CompressionStats(
        vectors_encoded=sum(
            len(rg.alp.vectors) if rg.alp else len(rg.rd.vectors)
            for rg in rowgroups
        ),
        second_level_skipped=skipped_total,
        combinations_tried=tuple(all_tried),
        rd_rowgroups=sum(1 for rg in rowgroups if rg.scheme == "alprd"),
        alp_rowgroups=sum(1 for rg in rowgroups if rg.scheme == "alp"),
    )
    column = CompressedRowGroups(
        rowgroups=tuple(rowgroups),
        count=values.size,
        vector_size=vector_size,
        stats=stats,
    )
    _record_column_metrics(column)
    return column


def decode_rowgroup_into(rg: CompressedRowGroup, out: np.ndarray) -> None:
    """Decode one row-group into a preallocated float64 slice.

    The canonical decode path: :func:`decompress`,
    :func:`decompress_parallel` and the storage readers'
    ``read_rowgroup``/``read_all`` ``out=`` variants all funnel through
    here.  The whole row-group decodes in a fixed number of numpy
    passes (:func:`~repro.core.alp.alp_decode_rowgroup`,
    :func:`~repro.core.alprd.alprd_decode`) straight into the caller's
    buffer, bit-identical to decoding vector by vector.  ``out`` must be
    a writable float64 array (or slice) of exactly ``rg.count`` values.
    """
    if out.dtype != np.float64 or out.ndim != 1 or out.size != rg.count:
        raise ValueError(
            f"out must be a 1-D float64 array of {rg.count} values, "
            f"got {out.dtype} with shape {out.shape}"
        )
    if rg.alp is not None:
        alp_decode_rowgroup(rg.alp.vectors, out)
    else:
        if rg.rd is None:
            raise ValueError("row-group has neither ALP nor ALP_rd payload")
        alprd_decode(rg.rd, out=out)


def coerce_decode_out(
    column: CompressedRowGroups, out: np.ndarray | None
) -> np.ndarray:
    """Validate (or allocate) a whole-column float64 decode buffer."""
    if out is None:
        return np.empty(column.count, dtype=np.float64)
    if not isinstance(out, np.ndarray):
        raise TypeError(f"out must be a numpy ndarray, got {type(out)!r}")
    if out.dtype != np.float64 or out.ndim != 1 or out.size != column.count:
        raise ValueError(
            f"out must be a 1-D float64 array of {column.count} values, "
            f"got {out.dtype} with shape {out.shape}"
        )
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("out must be C-contiguous and writable")
    return out


def decompress(
    column: CompressedRowGroups, out: np.ndarray | None = None
) -> np.ndarray:
    """Decompress a column back to float64, bit-exactly.

    Every vector decodes directly into its offset of one preallocated
    output array — no per-vector arrays are built and concatenated.
    ``out``, when given, must be a writable C-contiguous float64 array
    of exactly ``column.count`` values; the decoded column is written
    in place and ``out`` itself is returned, so steady-state callers
    (the serving buffer pool) allocate nothing per decode.
    """
    out = coerce_decode_out(column, out)
    if column.count == 0:
        return out
    with obs.span("compressor.decompress"):
        pos = 0
        for rg in column.rowgroups:
            decode_rowgroup_into(rg, out[pos : pos + rg.count])
            pos += rg.count
        if obs.ENABLED:
            obs.metrics.counter_add("compressor.values_decoded", column.count)
        return out


def decompress_parallel(
    column: CompressedRowGroups, threads: int = 2, out: np.ndarray | None = None
) -> np.ndarray:
    """Decompress row-groups concurrently with a thread pool.

    Each row-group decodes into a disjoint slice of one preallocated
    output array, so workers never touch the same memory and the result
    is bit-identical to :func:`decompress` — including when the caller
    provides the array via ``out=`` (same contract as
    :func:`decompress`).  Like :func:`compress_parallel`, the win comes
    from numpy kernels releasing the GIL for part of the decode.
    """
    from concurrent.futures import ThreadPoolExecutor

    if threads <= 1 or len(column.rowgroups) <= 1:
        return decompress(column, out=out)
    out = coerce_decode_out(column, out)
    if column.count == 0:
        return out
    with obs.span("compressor.decompress_parallel"):
        slices = []
        pos = 0
        for rg in column.rowgroups:
            slices.append((rg, out[pos : pos + rg.count]))
            pos += rg.count
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda item: decode_rowgroup_into(*item), slices))
        if obs.ENABLED:
            obs.metrics.counter_add("compressor.values_decoded", column.count)
        return out
