"""ALP_rd: compression for "real" doubles (Section 3.4, Algorithm 3).

When a row-group's values cannot be represented as decimals (e.g. the
POI-lat/POI-lon coordinate datasets), ALP cuts every double's 64 bits at
a position ``p >= 48`` chosen once per row-group:

- the *right* part (low ``p`` bits) is stored with plain bit-packing —
  high-precision mantissa tails are close to incompressible anyway;
- the *left* part (high ``64 - p <= 16`` bits: sign, exponent and top
  mantissa bits) has low variance and is compressed with a skewed
  dictionary of at most 8 16-bit entries plus 16-bit exceptions.

Decoding bit-unpacks both parts, patches left-part exceptions, and
*glues* them back with a shift-or.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro import obs
from repro.alputil.bits import bits_to_double, double_to_bits
from repro.core.alp import check_vector_layout
from repro.core.constants import (
    MAX_RD_LEFT_BITS,
    RD_EXCEPTION_SIZE_BITS,
    VECTOR_SIZE,
)
from repro.core.sampler import equidistant_indices
from repro.encodings.bitpack import (
    batchable_prefix,
    join_payloads,
    pack_bits,
    unpack_bits,
)
from repro.encodings.dictionary import SkewedDictionary

#: How many values per row-group the cut-position search looks at.
RD_SAMPLE_SIZE = 256


@dataclass(frozen=True)
class AlpRdParameters:
    """Row-group-level parameters of ALP_rd: cut position + dictionary."""

    right_bit_width: int  # the paper's p, >= 48 for doubles
    dictionary: SkewedDictionary
    total_bits: int = 64  # 64 for doubles, 32 for the float port

    @property
    def left_bit_width(self) -> int:
        """Width of the front-bit part (``total_bits - p``)."""
        return self.total_bits - self.right_bit_width

    def size_bits(self) -> int:
        """Row-group header: 8-bit cut position + the dictionary entries."""
        return 8 + self.dictionary.size_bits()


@dataclass(frozen=True)
class AlpRdVector:
    """One ALP_rd-encoded vector (parameters live on the row-group)."""

    left_payload: bytes  # bit-packed dictionary codes
    right_payload: bytes  # bit-packed right parts
    exc_positions: np.ndarray  # uint16
    exc_values: np.ndarray  # uint16 left parts that missed the dictionary
    count: int

    def size_bits(
        self, parameters: AlpRdParameters
    ) -> int:
        """Vector footprint: both payloads + 32 bits per exception + count."""
        return (
            len(self.left_payload) * 8
            + len(self.right_payload) * 8
            + self.exc_positions.size * RD_EXCEPTION_SIZE_BITS
            + 16  # exception count
        )


@dataclass(frozen=True)
class AlpRdRowGroup:
    """An ALP_rd-encoded row-group: shared parameters + vectors."""

    parameters: AlpRdParameters
    vectors: tuple[AlpRdVector, ...]
    count: int

    def size_bits(self) -> int:
        """Header + every vector's footprint."""
        return self.parameters.size_bits() + sum(
            v.size_bits(self.parameters) for v in self.vectors
        )

    def bits_per_value(self) -> float:
        """Compressed bits per value."""
        if self.count == 0:
            return 0.0
        return self.size_bits() / self.count


def find_best_cut(
    sample_bits: np.ndarray, total_bits: int = 64
) -> AlpRdParameters:
    """Search the cut position minimizing estimated bits per value.

    Tries every left width in ``1..16`` (i.e. ``p`` from ``total_bits - 1``
    down to ``total_bits - 16``), fitting a skewed dictionary on the
    sampled left parts each time, and keeps the cheapest estimate:
    ``right_width + code_width + exception_rate * 32`` bits per value.
    """
    sample_bits = np.asarray(sample_bits, dtype=np.uint64)
    best: AlpRdParameters | None = None
    best_cost = float("inf")
    for left_width in range(1, MAX_RD_LEFT_BITS + 1):
        right_width = total_bits - left_width
        left = sample_bits >> np.uint64(right_width)
        dictionary = SkewedDictionary.fit(left)
        _, exc_positions, _ = dictionary.encode(left)
        exc_rate = exc_positions.size / max(sample_bits.size, 1)
        cost = right_width + dictionary.code_width + exc_rate * 32
        if cost < best_cost:
            best_cost = cost
            best = AlpRdParameters(
                right_bit_width=right_width,
                dictionary=dictionary,
                total_bits=total_bits,
            )
    if best is None:
        raise RuntimeError("ALP_rd cut search produced no candidate")
    return best


def fit_parameters(
    rowgroup: np.ndarray,
    total_bits: int = 64,
    sample_size: int = RD_SAMPLE_SIZE,
) -> AlpRdParameters:
    """Sample a row-group and fit (cut position, dictionary) once."""
    if total_bits == 64:
        bits = double_to_bits(np.ascontiguousarray(rowgroup, dtype=np.float64))
    else:
        from repro.alputil.bits import float32_to_bits

        bits = float32_to_bits(
            np.ascontiguousarray(rowgroup, dtype=np.float32)
        ).astype(np.uint64)
    sample = bits[equidistant_indices(bits.size, sample_size)]
    return find_best_cut(sample, total_bits=total_bits)


def encode_vector_bits(
    bits: np.ndarray, parameters: AlpRdParameters
) -> AlpRdVector:
    """Encode one vector of raw bit patterns under fixed parameters."""
    bits = np.asarray(bits, dtype=np.uint64)
    right_width = parameters.right_bit_width
    right = bits & np.uint64((1 << right_width) - 1)
    left = bits >> np.uint64(right_width)
    codes, exc_positions, exc_values = parameters.dictionary.encode(left)
    return AlpRdVector(
        left_payload=pack_bits(codes, parameters.dictionary.code_width),
        right_payload=pack_bits(right, right_width),
        exc_positions=exc_positions,
        exc_values=exc_values,
        count=bits.size,
    )


def decode_vector_bits(
    vector: AlpRdVector, parameters: AlpRdParameters
) -> np.ndarray:
    """Decode one vector back to raw bit patterns (BITUNPACK + GLUE)."""
    right = unpack_bits(
        vector.right_payload, parameters.right_bit_width, vector.count
    )
    codes = unpack_bits(
        vector.left_payload, parameters.dictionary.code_width, vector.count
    )
    left = parameters.dictionary.decode(
        codes, vector.exc_positions, vector.exc_values
    )
    return (left << np.uint64(parameters.right_bit_width)) | right


def alprd_encode(
    rowgroup: np.ndarray,
    vector_size: int = VECTOR_SIZE,
    parameters: AlpRdParameters | None = None,
) -> AlpRdRowGroup:
    """Encode a float64 row-group with ALP_rd."""
    with obs.span("alprd.encode"):
        rowgroup = np.ascontiguousarray(rowgroup, dtype=np.float64)
        if parameters is None:
            with obs.span("alprd.fit_parameters"):
                parameters = fit_parameters(rowgroup, total_bits=64)
        bits = double_to_bits(rowgroup)
        vectors = tuple(
            encode_vector_bits(bits[start : start + vector_size], parameters)
            for start in range(0, max(bits.size, 1), vector_size)
            if bits[start : start + vector_size].size
        )
        if obs.ENABLED:
            obs.metrics.counter_add("alprd.vectors_encoded", len(vectors))
            obs.metrics.counter_add(
                "alprd.exceptions",
                sum(int(v.exc_positions.size) for v in vectors),
            )
        return AlpRdRowGroup(
            parameters=parameters, vectors=vectors, count=rowgroup.size
        )


def alprd_decode(
    rowgroup: AlpRdRowGroup, out: np.ndarray | None = None
) -> np.ndarray:
    """Decode an ALP_rd row-group back to float64, bit-exactly.

    ``out``, when given, receives the decoded doubles in place (a
    ``rowgroup.count``-sized float64 slice), letting :func:`decompress`
    fill one preallocated column instead of concatenating per-row-group
    arrays.

    Every vector shares the row-group's right width and code width, so
    the batch (the leading vectors of one count, a multiple of 8) takes
    one code unpack, one gather of the pre-shifted dictionary entries
    straight into ``out`` viewed as uint64, one exception scatter, one
    right unpack into the codes' spent buffer and one OR — the same
    elementwise operations :func:`decode_vector_bits` runs per vector,
    with one row-group-sized scratch.  A ragged last vector decodes
    through :func:`decode_vector_bits`.
    """
    vectors = rowgroup.vectors
    if not vectors:
        return np.empty(0, dtype=np.float64) if out is None else out
    parameters = rowgroup.parameters
    right_width = parameters.right_bit_width
    code_width = parameters.dictionary.code_width
    target = np.empty(rowgroup.count, dtype=np.float64) if out is None else out
    n_vectors = len(vectors)
    counts = np.fromiter(map(attrgetter("count"), vectors), np.int64, n_vectors)
    rights = [v.right_payload for v in vectors]
    lefts = [v.left_payload for v in vectors]
    positions = [v.exc_positions for v in vectors]
    sizes = np.fromiter(map(len, positions), np.int64, n_vectors)
    exc_sizes = (v.exc_values.size for v in vectors)
    if (np.fromiter(exc_sizes, np.int64, n_vectors) != sizes).any():
        raise ValueError("exception values and positions differ in number")
    lengths = np.array(
        [list(map(len, rights)), list(map(len, lefts))], dtype=np.int64
    ).reshape(2, n_vectors)
    offsets = check_vector_layout(
        target.size,
        counts,
        np.array([[right_width], [code_width]]),
        lengths,
        positions,
    )
    with obs.span("alprd.decode"):
        bits = target.view(np.uint64)
        batched = batchable_prefix(counts.tolist())
        pos = batched * int(counts[0]) if batched else 0
        if batched:
            entries = parameters.dictionary.entries
            codes = unpack_bits(join_payloads(lefts[:batched]), code_width, pos)
            if int(codes.max()) >= entries.size:
                raise IndexError("dictionary code outside the dictionary")
            shift = np.uint64(right_width)
            np.take(
                entries.astype(np.uint64) << shift,
                codes.view(np.int64),
                out=bits[:pos],
                mode="clip",  # codes were bounds-checked just above
            )
            patched = offsets[offsets < pos]
            if patched.size:
                # Offsets run in vector order, so the batch's come first.
                values = np.concatenate(
                    [vectors[i].exc_values for i in np.flatnonzero(sizes)]
                )
                bits[patched] = values[: patched.size].astype(np.uint64) << shift
            # The codes' buffer is spent; reuse it for the right parts.
            right = unpack_bits(
                join_payloads(rights[:batched]), right_width, pos, out=codes
            )
            bits[:pos] |= right
        for vector in vectors[batched:]:
            bits[pos : pos + vector.count] = decode_vector_bits(
                vector, parameters
            )
            pos += vector.count
        obs.counter_add("alprd.vectors_decoded", len(vectors))
        return target
